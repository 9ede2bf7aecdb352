import numpy as np
import pytest

from gea.genome import GeneDomain
from gea.population import Population, init_population, roulette_indices, row_keys
from gea.problems import OneMax, VehicleRouting, generate_instance
from gea.rng import make_rng


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


class TestInitPopulation:
    def test_binary_population_sorted_and_valid(self):
        pop = init_population(OneMax(3), 4, make_rng(7))
        assert len(pop) == 4
        assert np.isin(pop.genes, (0, 1)).all()
        assert (np.diff(pop.costs) >= 0).all()

    def test_permutation_population_has_distinct_symbols(self):
        from gea.problems import VehicleRouting, generate_instance
        pop = init_population(VehicleRouting(generate_instance(4, 2, 1)), 3, make_rng(1))
        for genes in pop.genes:
            assert sorted(genes.tolist()) == [1, 2, 3, 4, 5]

    def test_rejects_size_below_two(self):
        with pytest.raises(ValueError, match="size"):
            init_population(OneMax(3), 1, make_rng(0))

    def test_deterministic(self):
        a = init_population(OneMax(8), 12, make_rng(1))
        b = init_population(OneMax(8), 12, make_rng(1))
        assert np.array_equal(a.genes, b.genes)
        assert np.array_equal(a.costs, b.costs)


class TestRoulette:
    def test_three_member_probabilities(self):
        # rank weights 3,2,1 -> probabilities 3/6, 2/6, 1/6; 1e5 draws, 3 sigma
        draws = 100_000
        idx = roulette_indices(3, draws, make_rng(123))
        for i, p in enumerate((3 / 6, 2 / 6, 1 / 6)):
            count = (idx == i).sum()
            sigma = np.sqrt(draws * p * (1 - p))
            assert abs(count - draws * p) <= 3 * sigma

    def test_singleton_population(self, scripted_rng):
        # the lone member takes the whole wheel, whatever the point drawn
        idx = roulette_indices(1, 3, scripted_rng([0.0, 0.5, 0.999999]))
        assert idx.tolist() == [0, 0, 0]

    def test_deterministic(self):
        assert np.array_equal(roulette_indices(4, 10, make_rng(5)),
                              roulette_indices(4, 10, make_rng(5)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roulette_indices(0, 1, make_rng(0))


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
        rng = make_rng(2)
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

    @pytest.mark.parametrize("case", [
        "binary-1", "binary-7", "binary-9", "binary-250", "permutation",
        "differ-by-256", "above-65535", "negative",
    ])
    def test_matches_reference_loop(self, case):
        rng = make_rng(11)
        for trial in range(60):
            if case.startswith("binary"):
                draw = GeneDomain.binary(int(case.split("-")[1])).sample_batch
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

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 300])
    def test_binary_keys_are_packbits_bytes(self, length):
        genes = GeneDomain.binary(length).sample_batch(make_rng(length), 50)
        genes[0], genes[1] = 0, 1
        expected = np.packbits(genes, axis=1)
        keys = row_keys(genes)
        assert keys.shape == (50,) and keys.dtype.itemsize == expected.shape[1]
        assert keys.tobytes() == expected.tobytes()

    def test_key_width(self):
        # one bit per 0/1 gene, one byte per routing locus below 256 symbols
        binary = GeneDomain.binary(300).sample_batch(make_rng(0), 5)
        assert row_keys(binary).dtype.itemsize == 38
        routing = VehicleRouting(generate_instance(200, 10, 1)).domain().sample_batch(make_rng(0), 5)
        assert routing.shape[1] == 209
        assert row_keys(routing).dtype.itemsize == 209
