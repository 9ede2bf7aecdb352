import numpy as np
import pytest

import gea.population
from gea.genome import GeneDomain
from gea.population import (Population, _row_fingerprints, init_population, rank_weight_cumsum,
                            roulette_indices)
from gea.problems import (Knapsack, OneMax, VehicleRouting, generate_instance,
                          generate_knapsack_instance, standard_suite)
from gea.solver import GeaSolver

REFERENCE_CASES = ["binary-1", "binary-7", "binary-9", "binary-250", "bool-9", "permutation",
                   "differ-by-256", "above-65535", "negative"]


def pop_from_costs(costs, length=3):
    """Distinct genomes carrying prescribed costs (cost = index pattern)."""
    genes = np.arange(len(costs) * length).reshape(len(costs), length)
    return Population(genes, np.array(costs, dtype=float))


def reference_survivors(pop, offspring_genes, offspring_costs):
    """Loop reference for select_survivors: walk the stable cost order with
    parents first, keep each genome's first occurrence, then fill the rest
    with the earliest duplicates; survivors stay in cost order."""
    genes = np.concatenate([pop.genes, offspring_genes])
    costs = np.concatenate([pop.costs, offspring_costs])
    order = sorted(range(len(costs)), key=lambda i: costs[i])
    seen, firsts, duplicates = set(), [], []
    for rank, i in enumerate(order):
        key = tuple(genes[i].tolist())
        (duplicates if key in seen else firsts).append(rank)
        seen.add(key)
    kept = firsts[: len(pop)]
    kept = sorted(kept + duplicates[: len(pop) - len(kept)])
    rows = [order[rank] for rank in kept]
    return genes[rows], costs[rows]


def constant_fingerprints(monkeypatch):
    """Give every row one fingerprint and spy on the exact fallback. Every
    select_survivors call must then take the fallback exactly when its
    parents and offspring hold two distinct genomes; returns the list of
    calls checked, each True where the fallback ran."""
    exact, survivors = gea.population._exact_first_in_cost_order, Population.select_survivors
    fallbacks, calls = [], []

    def spied_exact(genes, order):
        fallbacks.append(genes.shape[0])
        return exact(genes, order)

    def checked_survivors(pop, offspring_genes, offspring_costs):
        before = len(fallbacks)
        out = survivors(pop, offspring_genes, offspring_costs)
        if len(offspring_genes):
            rows = np.concatenate([pop.genes, offspring_genes])
            collides = np.unique(rows, axis=0).shape[0] > 1
            assert len(fallbacks) - before == collides
            calls.append(collides)
        return out

    monkeypatch.setattr(gea.population, "_row_fingerprints",
                        lambda genes: np.zeros(genes.shape[0], dtype=np.uint64))
    monkeypatch.setattr(gea.population, "_exact_first_in_cost_order", spied_exact)
    monkeypatch.setattr(Population, "select_survivors", checked_survivors)
    return calls


def check_reference_cases(case):
    """60 random select_survivors calls of one case against the loop reference."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        if case.startswith("binary"):
            draw = GeneDomain.binary(int(case.split("-")[1])).sample_batch
        elif case.startswith("bool"):
            draw = lambda r, n: r.random((n, int(case.split("-")[1]))) < 0.5
        elif case == "permutation":
            draw = GeneDomain.permutation(6 + trial % 25, 1 + trial % 4).sample_batch
        else:
            alphabet = {"differ-by-256": [0, 1, 256, 257],
                        "above-65535": [1, 2, 65536, 65537, 2**40],
                        "negative": [-1, 0, 1, 255]}[case]
            draw = lambda r, n: r.choice(alphabet, size=(n, 2 + trial % 3))
        # few templates and few cost levels: duplicates and cost ties abound,
        # and capacity often exceeds the distinct count
        templates = draw(rng, 1 + trial % 12)
        size, n_offspring = 2 + trial % 9, trial % 7
        pop = Population(templates[rng.integers(0, len(templates), size)],
                         rng.integers(0, 4, size).astype(float))
        offspring = templates[rng.integers(0, len(templates), n_offspring)]
        offspring_costs = rng.integers(0, 4, n_offspring).astype(float)
        out = pop.select_survivors(offspring, offspring_costs)
        genes, costs = (reference_survivors(pop, offspring, offspring_costs)
                        if n_offspring else (pop.genes, pop.costs))
        assert np.array_equal(out.genes, genes)
        assert np.array_equal(out.costs, costs)


class TestPopulation:
    def test_sorted_on_construction(self):
        pop = pop_from_costs([5.0, 1.0, 3.0])
        assert pop.costs.tolist() == [1.0, 3.0, 5.0]
        assert pop.best_cost == 1.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Population(np.empty((0, 3), int), np.empty(0))
        with pytest.raises(ValueError):
            Population(np.zeros((1, 3), int), np.array([np.inf]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, object])
    def test_rejects_genes_that_are_not_bool_or_integer(self, dtype):
        with pytest.raises(ValueError, match=f"Population.*dtype {np.dtype(dtype)}"):
            Population(np.zeros((2, 3), dtype=dtype), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.int32, np.int64])
    def test_accepts_bool_and_integer_genes(self, dtype):
        pop = Population(np.array([[1, 0, 1], [0, 1, 1]], dtype=dtype), np.array([2.0, 1.0]))
        assert pop.genes.dtype == dtype
        assert pop.genes.tolist() == [[0, 1, 1], [1, 0, 1]]

    def test_genes_are_read_only_and_the_input_is_not(self):
        # a row written in place would keep its old fingerprint and break dedup
        genes = np.array([[0, 1], [1, 0], [1, 1]])
        pop = Population(genes, np.array([1.0, 2.0, 3.0]))
        survivors = pop.select_survivors(np.array([[0, 0]]), np.array([1.5]))
        for out in (pop, survivors):
            with pytest.raises(ValueError, match="read-only"):
                out.genes[1] = out.genes[0]
        genes[1] = genes[0]
        assert pop.genes.tolist() == [[0, 1], [1, 0], [1, 1]]

    def test_costs_are_read_only(self):
        # a cost written in place would break the order best_cost reads
        pop = Population(np.array([[0, 1], [1, 0], [1, 1]]), np.array([1.0, 2.0, 3.0]))
        survivors = pop.select_survivors(np.array([[0, 0]]), np.array([1.5]))
        for out in (pop, survivors):
            with pytest.raises(ValueError, match="read-only"):
                out.costs[2] = 0.5
        assert pop.costs.tolist() == [1.0, 2.0, 3.0] and pop.best_cost == 1.0


class TestInitPopulation:
    def test_binary_population_sorted_and_valid(self):
        pop = init_population(OneMax(3), 4, np.random.default_rng(7))
        assert len(pop) == 4
        assert np.isin(pop.genes, (0, 1)).all()
        assert (np.diff(pop.costs) >= 0).all()

    def test_permutation_population_has_distinct_symbols(self):
        from gea.problems import VehicleRouting, generate_instance
        pop = init_population(VehicleRouting(generate_instance(4, 2, 1)), 3,
                              np.random.default_rng(1))
        for genes in pop.genes:
            assert sorted(genes.tolist()) == [1, 2, 3, 4, 5]

    def test_rejects_size_below_two(self):
        with pytest.raises(ValueError, match="size"):
            init_population(OneMax(3), 1, np.random.default_rng(0))

    def test_deterministic(self):
        a = init_population(OneMax(8), 12, np.random.default_rng(1))
        b = init_population(OneMax(8), 12, np.random.default_rng(1))
        assert np.array_equal(a.genes, b.genes)
        assert np.array_equal(a.costs, b.costs)


class TestRoulette:
    def test_three_member_probabilities(self, within_five_sigma):
        # rank weights 3,2,1 -> probabilities 3/6, 2/6, 1/6; 10^6 draws put
        # each rank's rate within 0.005 * sqrt(p(1-p)) at 5 sigma
        idx = roulette_indices(rank_weight_cumsum(3), 1_000_000, np.random.default_rng(123))
        assert within_five_sigma(np.bincount(idx, minlength=3), np.array([3, 2, 1]) / 6)

    def test_singleton_population(self, scripted_rng):
        # the lone member takes the whole wheel, whatever the point drawn
        idx = roulette_indices(rank_weight_cumsum(1), 3, scripted_rng([0.0, 0.5, 0.999999]))
        assert idx.tolist() == [0, 0, 0]

    def test_deterministic(self):
        cumulative = rank_weight_cumsum(4)
        assert np.array_equal(roulette_indices(cumulative, 10, np.random.default_rng(5)),
                              roulette_indices(cumulative, 10, np.random.default_rng(5)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roulette_indices(rank_weight_cumsum(0), 1, np.random.default_rng(0))


class TestSurvivorSelect:
    def test_truncation_keeps_best(self):
        parents = pop_from_costs([1.0, 5.0])
        out = parents.select_survivors(np.array([[100, 101, 102]]), np.array([3.0]))
        assert out.costs.tolist() == [1.0, 3.0]
        assert len(out) == len(parents) == 2

    def test_empty_offspring_is_identity(self):
        parents = pop_from_costs([1.0, 5.0])
        empty = np.empty((0, 3), dtype=np.int64)
        assert parents.select_survivors(empty, np.empty(0)) is parents

    def test_cost_tie_prefers_incumbent(self):
        parents = pop_from_costs([1.0, 2.0])
        out = parents.select_survivors(np.array([[100, 101, 102]]), np.array([2.0]))
        assert np.array_equal(out.genes, parents.genes)

    def test_duplicate_genomes_are_suppressed(self):
        parents = pop_from_costs([1.0, 2.0])
        out = parents.select_survivors(parents.genes[:1].copy(), np.array([1.0]))
        assert np.array_equal(out.genes, parents.genes)

    def test_duplicates_fill_small_domains(self):
        genes = np.array([[0, 1], [0, 1], [1, 0]])
        pop = Population(genes, np.array([1.0, 1.0, 2.0]))
        out = pop.select_survivors(np.array([[0, 1]]), np.array([1.0]))
        # only two distinct genomes exist; capacity 3 padded with a duplicate
        assert len(out) == 3
        assert out.costs.tolist() == [1.0, 1.0, 2.0]

    def test_elitism_never_regresses(self):
        rng = np.random.default_rng(2)
        dom = GeneDomain.binary(6)
        problem = OneMax(6)
        pop = init_population(problem, 10, rng)
        for _ in range(50):
            offspring = dom.sample_batch(rng, 5)
            best_before = pop.best_cost
            pop = pop.select_survivors(offspring, problem.evaluate_batch(offspring))
            assert pop.best_cost <= best_before
            assert (np.diff(pop.costs) >= 0).all()
            assert len(pop) == 10

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_reference_loop(self, case):
        check_reference_cases(case)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_fingerprint_collisions_fall_back_to_exact_keys(self, monkeypatch, case):
        calls = constant_fingerprints(monkeypatch)
        check_reference_cases(case)
        assert any(calls)

    @pytest.mark.parametrize("problem", [
        VehicleRouting(next(inst for inst in standard_suite() if inst.name == "f4")),
        Knapsack(generate_knapsack_instance(60, 3)),
        VehicleRouting(generate_instance(290, 12, 1)),
    ], ids=["routing-f4", "knapsack-binary", "routing-uint16"])
    def test_fingerprint_collisions_keep_a_fit(self, monkeypatch, problem):
        def fit():
            return GeaSolver(variant="gea", pop_size=30, max_iters=40, seed=3).fit(problem)

        honest = fit()
        calls = constant_fingerprints(monkeypatch)
        colliding = fit()
        assert len(calls) == 40 and all(calls)
        assert colliding.population_.genes.dtype == problem.domain().dtype
        assert np.array_equal(colliding.trace_, honest.trace_)
        assert np.array_equal(colliding.best_genes_, honest.best_genes_)
        assert np.array_equal(colliding.population_.genes, honest.population_.genes)
        assert np.array_equal(colliding.population_.costs, honest.population_.costs)

    @pytest.mark.parametrize("offspring_dtype", [np.uint16, np.int64, bool])
    def test_offspring_of_another_dtype_are_refused(self, offspring_dtype):
        # fingerprints hash row bytes, so rows compare in one dtype only
        pop = Population(np.array([[0, 1], [1, 0]], dtype=np.uint8), np.array([1.0, 2.0]))
        offspring = np.array([[1, 1]], dtype=offspring_dtype)
        with pytest.raises(ValueError, match=f"Population of dtype uint8: offspring_genes "
                                             f"of dtype {np.dtype(offspring_dtype)}"):
            pop.select_survivors(offspring, np.array([0.5]))

    def test_float_genes_are_refused_where_zero_and_negative_zero_differ(self):
        # fingerprints hash bytes, so 0.0 and -0.0 would be distinct genes on
        # the fast path and one gene to np.unique; float genes are refused
        # before either runs, as parents and as offspring
        parents, offspring = [[0.0, 1.0], [2.0, 3.0]], np.array([[-0.0, 1.0]])
        with pytest.raises(ValueError, match="Population.*dtype float64"):
            Population(np.array(parents), np.array([1.0, 2.0]))
        pop = Population(np.array(parents, dtype=np.int64), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="Population.*dtype float64"):
            pop.select_survivors(offspring, np.array([0.5]))
        with pytest.raises(ValueError, match="Population.*dtype float64"):
            pop.select_survivors(np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("offspring_shape,costs", [
        ((4, 3), 2), ((4, 3), 6), ((4, 2), 4), ((12,), 12)])
    def test_rejects_offspring_of_the_wrong_shape(self, offspring_shape, costs):
        parents = pop_from_costs([1.0, 5.0])
        offspring = np.arange(np.prod(offspring_shape)).reshape(offspring_shape) + 100
        message = (rf"Population of 3 loci: offspring genes of shape "
                   rf"\({offspring_shape[0]},.*\) and costs of shape \({costs},\)")
        with pytest.raises(ValueError, match=message):
            parents.select_survivors(offspring, np.ones(costs))

    @pytest.mark.parametrize("problem", [
        OneMax(13),
        Knapsack(generate_knapsack_instance(37, 2)),
        VehicleRouting(generate_instance(30, 4, 1)),
        VehicleRouting(generate_instance(290, 12, 1)),
    ], ids=["onemax", "knapsack", "routing-uint8", "routing-uint16"])
    def test_kept_fingerprints_match_the_genes(self, monkeypatch, problem):
        dtype = problem.domain().dtype
        assert dtype == (np.uint16 if problem.domain().length > 255 else np.uint8)
        survivors = Population.select_survivors
        checked = []

        def checked_survivors(pop, offspring_genes, offspring_costs):
            out = survivors(pop, offspring_genes, offspring_costs)
            assert out.genes.dtype == dtype
            assert np.array_equal(out._fingerprints, _row_fingerprints(out.genes))
            checked.append(len(out))
            return out

        def no_exact_keys(genes, order):
            raise AssertionError("the exact fallback ran without a fingerprint collision")

        monkeypatch.setattr(Population, "select_survivors", checked_survivors)
        monkeypatch.setattr(gea.population, "_exact_first_in_cost_order", no_exact_keys)
        solver = GeaSolver(variant="gea", pop_size=20, max_iters=30, seed=2).fit(problem)
        assert len(checked) == 30
        pop = solver.population_
        assert np.array_equal(pop._fingerprints, _row_fingerprints(pop.genes))

    @pytest.mark.parametrize("width", [4, 8, 12, 20, 36])
    def test_two_word_top_byte_differences_get_distinct_fingerprints(self, width):
        # with 64-bit words such a pair collides whenever the two constants
        # agree in their low 8 bits; with 32-bit words, a collision needs
        # a1 * c1 + a2 * c2 to be 0 modulo 2**40
        base = np.zeros(width, dtype=np.uint8)
        rows = [base]
        for first in range(3, width, 4):
            for second in range(first + 4, width, 4):
                for a in (1, 128, 255):
                    for b in (1, 127, 255):
                        row = base.copy()
                        row[first], row[second] = a, b
                        rows.append(row)
        for locus in range(width):
            for value in (1, 255):
                row = base.copy()
                row[locus] = value
                rows.append(row)
        prints = _row_fingerprints(np.array(rows))
        assert np.unique(prints).size == len(rows)
