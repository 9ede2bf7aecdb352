import numpy as np
import pytest

import gea.solver
from gea.population import Population, init_population, row_keys
from gea.problems import OneMax, VehicleRouting, generate_instance
from gea.rng import make_rng, split_streams
from gea.solver import VARIANTS, GeaSolver, _Generation


class TestEstimatorProtocol:
    def test_get_params_returns_all_hyperparameters(self):
        params = GeaSolver().get_params()
        assert params == {
            "variant": "gea", "pop_size": 100, "max_iters": 1000,
            "crossover_rate": 0.8, "mutation_rate": 0.1, "elite_fraction": 0.2,
            "threshold_fraction": 0.5, "scenario_weights": (0.5, 0.5, 0.2), "seed": 0,
        }

    def test_set_params_roundtrip(self):
        solver = GeaSolver().set_params(pop_size=20, variant="ga")
        assert solver.pop_size == 20 and solver.variant == "ga"

    def test_set_params_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="popsize"):
            GeaSolver().set_params(popsize=10)

    def test_init_stores_params_verbatim(self):
        # sklearn convention: validation happens in fit, not __init__
        solver = GeaSolver(pop_size=-3)
        assert solver.pop_size == -3

    def test_clone_compatible_construction(self):
        solver = GeaSolver(pop_size=17, seed=9)
        clone = GeaSolver(**solver.get_params())
        assert clone.get_params() == solver.get_params()


class TestFitValidation:
    @pytest.mark.parametrize("params,fragment", [
        ({"variant": "bogus"}, "variant"),
        ({"pop_size": 1}, "pop_size"),
        ({"max_iters": -1}, "max_iters"),
        ({"crossover_rate": 1.5}, "crossover_rate"),
        ({"mutation_rate": -0.1}, "mutation_rate"),
        ({"elite_fraction": 0.0}, "elite_fraction"),
        ({"elite_fraction": 0.001}, "elite_fraction"),
        ({"threshold_fraction": 2.0}, "threshold_fraction"),
        ({"scenario_weights": (0.5, 0.5)}, "scenario_weights"),
        ({"scenario_weights": (-1.0, 0.5, 0.5)}, "scenario_weights"),
        ({"scenario_weights": (0.0, 0.0, 0.0)}, "scenario_weights"),
        ({"scenario_weights": (1.5, 0.5, 0.5)}, "scenario_weights"),
        ({"seed": -1}, "seed"),
        ({"crossover_rate": float("nan")}, "crossover_rate"),
        ({"scenario_weights": (float("nan"), 0.5, 0.2)}, "scenario_weights"),
        ({"variant": "ga", "scenario_weights": (float("inf"), 0.0, 0.0)}, "scenario_weights"),
    ])
    def test_invalid_params_named_in_error(self, params, fragment):
        kwargs = {"pop_size": 50, "max_iters": 1}
        kwargs.update(params)
        with pytest.raises(ValueError, match=fragment):
            GeaSolver(**kwargs).fit(OneMax(4))

    def test_zero_weights_fine_for_fixed_variants(self):
        GeaSolver(variant="ga", pop_size=10, max_iters=2,
                  scenario_weights=(0, 0, 0)).fit(OneMax(4))


class TestFit:
    def test_deterministic_replay(self):
        problem = VehicleRouting(generate_instance(6, 2, 3))
        a = GeaSolver(pop_size=30, max_iters=60, seed=5).fit(problem)
        b = GeaSolver(pop_size=30, max_iters=60, seed=5).fit(problem)
        assert a.best_cost_ == b.best_cost_
        assert np.array_equal(a.trace_, b.trace_)
        assert np.array_equal(a.best_genes_, b.best_genes_)

    def test_zero_iterations_returns_initial_best(self):
        problem = OneMax(10)
        solver = GeaSolver(pop_size=12, max_iters=0, seed=4).fit(problem)
        assert solver.trace_.shape == (0,)
        rng, _ = split_streams(4)
        init = init_population(problem, 12, rng)
        assert solver.best_cost_ == init.best_cost

    def test_no_operators_means_flat_trace(self):
        problem = OneMax(8)
        solver = GeaSolver(variant="ga", pop_size=10, max_iters=25,
                           crossover_rate=0.0, mutation_rate=0.0, seed=1).fit(problem)
        assert (solver.trace_ == solver.trace_[0]).all()
        assert solver.trace_[0] == solver.best_cost_

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_monotone_for_every_variant(self, variant):
        problem = VehicleRouting(generate_instance(7, 2, 2))
        solver = GeaSolver(variant=variant, pop_size=20, max_iters=80, seed=3).fit(problem)
        assert (np.diff(solver.trace_) <= 1e-12).all()

    def test_best_cost_matches_best_genes(self):
        problem = VehicleRouting(generate_instance(5, 2, 8))
        solver = GeaSolver(pop_size=15, max_iters=40, seed=2).fit(problem)
        assert problem.evaluate(solver.best_genes_) == pytest.approx(solver.best_cost_)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_genes_stay_in_domain_dtype(self, variant):
        for problem in (OneMax(12), VehicleRouting(generate_instance(7, 2, 2))):
            solver = GeaSolver(variant=variant, pop_size=12, max_iters=15, seed=4).fit(problem)
            assert solver.population_.genes.dtype == problem.domain().dtype
            assert solver.best_genes_.dtype == problem.domain().dtype

    def test_two_byte_genes_above_255_symbols(self):
        problem = VehicleRouting(generate_instance(260, 4, 1))
        length = problem.domain().length
        solver = GeaSolver(pop_size=20, max_iters=5, seed=1).fit(problem)
        genes = solver.population_.genes
        assert genes.dtype == np.uint16
        assert (np.sort(genes, axis=1) == np.arange(1, length + 1)).all()
        assert np.array_equal(problem.evaluate_batch(genes), solver.population_.costs)
        assert row_keys(genes).dtype.itemsize == 2 * length

    def test_gea_converges_on_onemax(self):
        solver = GeaSolver(variant="gea", pop_size=30, max_iters=200, seed=42).fit(OneMax(20))
        assert (solver.trace_ == 0).any()
        assert int(np.argmax(solver.trace_ == 0)) < 200

    @pytest.mark.parametrize("index,fixed", [(0, "gea1"), (1, "gea2"), (2, "gea3")])
    def test_single_scenario_gea_replays_fixed_variant(self, index, fixed):
        weights = [0.0, 0.0, 0.0]
        weights[index] = 1.0
        for problem in (OneMax(15), VehicleRouting(generate_instance(6, 2, 5))):
            a = GeaSolver(variant=fixed, pop_size=20, max_iters=60, seed=11).fit(problem)
            b = GeaSolver(variant="gea", scenario_weights=tuple(weights),
                          pop_size=20, max_iters=60, seed=11).fit(problem)
            assert np.array_equal(a.trace_, b.trace_)
            assert np.array_equal(a.best_genes_, b.best_genes_)


class TestElitePass:
    @pytest.mark.parametrize("variant,expected_per_generation", [("gea", 1), ("ga", 0)])
    def test_one_repetition_matrix_per_generation(self, monkeypatch, variant,
                                                  expected_per_generation):
        calls = []
        original = gea.solver.repetition_matrix

        def counting(elite):
            calls.append(1)
            return original(elite)

        monkeypatch.setattr(gea.solver, "repetition_matrix", counting)
        generations = 25
        for problem in (OneMax(12), VehicleRouting(generate_instance(6, 2, 5))):
            calls.clear()
            GeaSolver(variant=variant, scenario_weights=(1, 1, 1), pop_size=20,
                      max_iters=generations, seed=3).fit(problem)
            assert len(calls) == expected_per_generation * generations


class TestStep:
    def test_directed_mutants_of_identical_elite_change_nothing(self):
        # fully agreed elite -> all-ones mask -> directed mutation is identity
        problem = OneMax(6)
        genes = np.tile(np.array([1, 0, 1, 0, 1, 0]), (10, 1))
        pop = Population(genes, problem.evaluate_batch(genes))
        params = GeaSolver(variant="gea2", pop_size=10, crossover_rate=0.0,
                           mutation_rate=0.5, seed=6)._checked_params()
        out = _Generation(params, problem.domain()).step(pop, problem, make_rng(1), make_rng(2))
        assert out.best_cost == pop.best_cost
        assert np.array_equal(np.unique(out.genes, axis=0),
                              np.unique(genes, axis=0))


class FaultyOneMax(OneMax):
    """OneMax(12) whose `evaluate_batch` answers honestly `honest_calls` times,
    then passes its costs through `fault`."""

    def __init__(self, fault, honest_calls):
        super().__init__(12)
        self.name = "faulty"
        self.fault = fault
        self.honest_calls = honest_calls

    def evaluate_batch(self, genomes):
        costs = super().evaluate_batch(genomes)
        if self.honest_calls:
            self.honest_calls -= 1
            return costs
        return self.fault(costs)


def with_nan_at_row_2(costs):
    costs = costs.copy()
    costs[2] = np.nan
    return costs


class TestProblemBoundary:
    # ga on 20 members: the initial population is 20 rows, each generation's
    # offspring 18 (16 crossover children and 2 mutants)
    @pytest.mark.parametrize("honest_calls,rows", [(0, 20), (1, 18)],
                             ids=["init_population", "step"])
    @pytest.mark.parametrize("fault,message", [
        (lambda costs: costs[:-3],
         "shape \\({short},\\) for {rows} genomes: row {short} has no cost"),
        (lambda costs: np.concatenate([costs, costs[:3]]),
         "shape \\({long},\\) for {rows} genomes: costs from row {rows} on match no genome"),
        (with_nan_at_row_2, "non-finite cost nan for row 2"),
    ], ids=["three_too_few", "three_too_many", "nan"])
    def test_bad_costs_named_by_problem_and_row(self, fault, message, honest_calls, rows):
        problem = FaultyOneMax(fault, honest_calls)
        expected = "problem 'faulty' \\(FaultyOneMax\\) evaluate_batch: .*" + message.format(
            short=rows - 3, long=rows + 3, rows=rows)
        with pytest.raises(ValueError, match=expected):
            GeaSolver(variant="ga", pop_size=20, max_iters=3, seed=1).fit(problem)
