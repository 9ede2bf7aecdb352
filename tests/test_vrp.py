import itertools
import math
import re

import numpy as np
import pytest

from gea.problems import (VehicleRouting, VrpInstance, format_instance,
                          generate_instance, parse_instance, standard_suite,
                          vrp_dp_optimum)
from gea.problems.vrp import SUITE_DIMENSIONS


def collinear_instance(k=1):
    return VrpInstance("line", k, (0.0, 0.0), ((1.0, 0.0), (2.0, 0.0)))


class TestEvaluate:
    def test_out_and_back(self):
        inst = VrpInstance("one", 1, (0.0, 0.0), ((3.0, 4.0),))
        assert VehicleRouting(inst).evaluate(np.array([1])) == pytest.approx(10.0)

    def test_collinear_single_route(self):
        problem = VehicleRouting(collinear_instance(k=1))
        assert problem.evaluate(np.array([1, 2])) == pytest.approx(4.0)

    def test_two_out_and_backs(self):
        problem = VehicleRouting(collinear_instance(k=2))
        assert problem.evaluate(np.array([1, 3, 2])) == pytest.approx(6.0)

    def test_batch_matches_scalar(self):
        problem = VehicleRouting(generate_instance(6, 3, 5))
        batch = problem.domain().sample_batch(np.random.default_rng(2), 100)
        scalar = [problem.evaluate(g) for g in batch]
        assert np.allclose(problem.evaluate_batch(batch), scalar)

    def test_separator_relabel_and_route_exchange_invariance(self):
        problem = VehicleRouting(generate_instance(5, 3, 9))
        # routes [1,2] | [3] | [4,5] with separators 6,7 in either role/order
        variants = [
            [1, 2, 6, 3, 7, 4, 5],
            [1, 2, 7, 3, 6, 4, 5],
            [3, 6, 1, 2, 7, 4, 5],
            [4, 5, 7, 3, 6, 1, 2],
        ]
        costs = {round(problem.evaluate(np.array(v)), 10) for v in variants}
        assert len(costs) == 1

    def test_route_reversal_invariance(self):
        problem = VehicleRouting(generate_instance(6, 2, 4))
        forward = np.array([1, 2, 3, 7, 4, 5, 6])
        reversed_first = np.array([3, 2, 1, 7, 4, 5, 6])
        assert problem.evaluate(forward) == pytest.approx(problem.evaluate(reversed_first))


def node_distances(instance):
    """Distances between the depot (node 0) and the customers (nodes 1..n),
    by the same `np.hypot` expression the problem builds its leg table with."""
    points = np.array([instance.depot, *instance.customers], dtype=np.float64)
    delta = points[:, None, :] - points[None, :, :]
    return np.hypot(delta[..., 0], delta[..., 1])


class TestLegGatherOracle:
    # leg indices go up to (L+1)^2 - 1: uint8 at L <= 15, uint16 up to
    # L = 255 (65,535), uint32 from L = 256 (66,048)
    @pytest.mark.parametrize("n_customers,n_vehicles",
                             [(1, 1), (2, 1), (17, 4), (200, 10), (250, 6), (250, 7), (260, 5)],
                             ids=["L1", "L2", "L20", "L209", "L255_uint16_legs",
                                  "L256_uint32_legs", "L264_uint16"])
    def test_bit_equal_to_2d_index(self, n_customers, n_vehicles):
        instance = generate_instance(n_customers, n_vehicles, n_customers)
        problem = VehicleRouting(instance)
        genomes = problem.domain().sample_batch(np.random.default_rng(n_customers), 80)
        # reference: separators are depot visits, legs read by a 2-D index
        distances = node_distances(instance)
        nodes = np.where(genomes > n_customers, 0, genomes).astype(np.int64)
        depot = np.zeros((80, 1), dtype=np.int64)
        path = np.concatenate([depot, nodes, depot], axis=1)
        expected = distances[path[:, :-1], path[:, 1:]].sum(1)
        assert np.array_equal(problem.evaluate_batch(genomes), expected)


class TestSymbolRange:
    # 4 customers, 2 vehicles: L = 5 and uint8 leg indices, into which 261
    # would wrap to 5 and cost what the valid row costs
    @pytest.mark.parametrize("row,dtype,symbol", [
        ([1, 2, 3, 4, 261], np.int64, 261),
        ([0, 2, 3, 4, 5], np.int64, 0),
        ([1, 2, 3, 4, 6], None, 6),
        ([-1, 2, 3, 4, 5], np.int64, -1),
    ], ids=["wraps_to_L", "zero", "L_plus_1_domain_dtype", "minus_one"])
    def test_out_of_range_symbol_rejected(self, row, dtype, symbol):
        problem = VehicleRouting(generate_instance(4, 2, 1))
        genomes = np.array([[1, 2, 3, 4, 5], row], dtype=dtype or problem.domain().dtype)
        with pytest.raises(ValueError, match=rf"^row 1 holds symbol {symbol}, outside 1\.\.5$"):
            problem.evaluate_batch(genomes)

    def test_empty_batch(self):
        problem = VehicleRouting(generate_instance(4, 2, 1))
        assert problem.evaluate_batch(np.empty((0, 5), dtype=problem.domain().dtype)).shape == (0,)


def enumerated_optimum(instance):
    """Reference optimum: every customer ordering x every multiset of
    separator gaps, each route summed from the coordinates."""
    n, k = instance.n_customers, instance.n_vehicles
    points = [instance.depot, *instance.customers]
    dist = [[math.hypot(ax - bx, ay - by) for bx, by in points] for ax, ay in points]
    best = math.inf
    for order in itertools.permutations(range(1, n + 1)):
        for gaps in itertools.combinations_with_replacement(range(n + 1), k - 1):
            bounds = (0, *gaps, n)
            cost = 0.0
            for start, stop in zip(bounds[:-1], bounds[1:]):
                if start == stop:
                    continue
                path = (0, *order[start:stop], 0)
                cost += sum(dist[a][b] for a, b in zip(path[:-1], path[1:]))
            best = min(best, cost)
    return best


class TestDpOptimum:
    def test_collinear_optimum(self):
        cost, genome = vrp_dp_optimum(collinear_instance(k=1))
        assert cost == pytest.approx(4.0)
        assert genome.tolist() in ([1, 2], [2, 1])

    def test_unit_square_perimeter(self):
        # depot shares a corner; shortest tour is the square perimeter
        inst = VrpInstance("square", 1, (0.0, 0.0),
                           ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        cost, _ = vrp_dp_optimum(inst)
        assert cost == pytest.approx(4.0)

    @pytest.mark.parametrize("n_customers,n_vehicles",
                             [(n, k) for n in range(1, 7) for k in range(1, min(n, 3) + 1)])
    def test_matches_enumeration(self, n_customers, n_vehicles):
        for seed in (1, 2, 3):
            inst = generate_instance(n_customers, n_vehicles, 100 * n_customers + seed)
            cost, genome = vrp_dp_optimum(inst)
            assert cost == pytest.approx(enumerated_optimum(inst), rel=1e-9, abs=0)
            assert VehicleRouting(inst).evaluate(genome) == pytest.approx(cost, rel=1e-9, abs=0)

    def test_lower_bounds_random_genomes(self):
        inst = generate_instance(6, 2, 17)
        problem = VehicleRouting(inst)
        optimum, genome = vrp_dp_optimum(inst)
        assert problem.evaluate(genome) == pytest.approx(optimum)
        batch = problem.domain().sample_batch(np.random.default_rng(3), 1000)
        assert (problem.evaluate_batch(batch) >= optimum - 1e-9).all()

    def test_size_guard(self):
        assert vrp_dp_optimum(generate_instance(15, 2, 1))[1].size == 16
        with pytest.raises(ValueError, match="limited to 15 customers, got 16"):
            vrp_dp_optimum(generate_instance(16, 2, 1))


class TestGenerateInstance:
    def test_deterministic(self):
        assert generate_instance(8, 3, 1) == generate_instance(8, 3, 1)

    def test_suite_dimensions(self):
        suite = standard_suite()
        assert [(i.name, i.n_customers, i.n_vehicles) for i in suite] == \
            [(name, n, k) for name, n, k, _ in SUITE_DIMENSIONS]
        assert [i.n_customers for i in suite] == [8, 10, 14, 20, 25, 30]
        assert [i.n_vehicles for i in suite] == [3, 3, 4, 4, 5, 5]

    def test_coordinates_in_range(self):
        inst = generate_instance(30, 5, 12)
        coords = np.array(inst.customers)
        assert (coords >= 0).all() and (coords <= 100).all()
        assert inst.depot == (50.0, 50.0)

    def test_vehicle_guard(self):
        with pytest.raises(ValueError):
            generate_instance(3, 5, 1)

    def test_distance_matrix_properties(self):
        # the problem's leg table over genome symbols 0..L: the depot frame,
        # customers 1..7 and separators 8..9, each a copy of the depot
        inst = generate_instance(7, 3, 3)
        legs = VehicleRouting(inst)._legs
        assert legs.shape == (10, 10)
        assert np.array_equal(legs, legs.T)
        assert not np.diag(legs).any()
        assert (legs[8:] == legs[0]).all()
        assert np.array_equal(legs[:8, :8], node_distances(inst))


class TestInstanceFiles:
    def test_round_trip(self):
        inst = generate_instance(8, 3, 1, name="f1")
        again = parse_instance(format_instance(inst))
        assert again == inst

    def test_format_shape(self):
        text = format_instance(generate_instance(3, 2, 5, name="tiny"))
        lines = text.strip().splitlines()
        assert lines[0] == "NAME tiny"
        assert lines[1] == "VEHICLES 2"
        assert lines[2].startswith("DEPOT ")
        assert sum(1 for line in lines if line.startswith("CUSTOMER ")) == 3

    @pytest.mark.parametrize("mutation,message", [
        (lambda t: t.replace("NAME tiny\n", ""), "NAME"),
        (lambda t: t.replace("VEHICLES 2\n", ""), "VEHICLES"),
        (lambda t: t + "CUSTOMER 2 1.0 2.0\n", "duplicate"),
        (lambda t: t.replace("CUSTOMER 3", "CUSTOMER 9"), "consecutive"),
        (lambda t: t.replace("VEHICLES 2", "VEHICLES 7"), "vehicles"),
        (lambda t: t + "JUNK 1 2\n", "malformed"),
        (lambda t: t.replace("DEPOT 50.0 50.0", "DEPOT 50.0"), "malformed"),
        (lambda t: re.sub(r"CUSTOMER 1 \S+", "CUSTOMER 1 nan", t),
         r"finite, got customer 1 \(nan, "),
        (lambda t: t.replace("DEPOT 50.0 50.0", "DEPOT 50.0 -inf"),
         r"finite, got depot \(50\.0, -inf\)"),
    ])
    def test_rejections(self, mutation, message):
        text = format_instance(generate_instance(3, 2, 5, name="tiny"))
        with pytest.raises(ValueError, match=message):
            parse_instance(mutation(text))

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            VrpInstance("bad", 3, (0.0, 0.0), ((1.0, 1.0),))
