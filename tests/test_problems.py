import numpy as np
import pytest

from gea.problems import (Knapsack, KnapsackInstance, OneMax,
                          generate_knapsack_instance, knapsack_dp_optimum)
from gea.problems.knapsack import DP_MAX_CELLS


class TestOneMax:
    @pytest.mark.parametrize("genes,cost", [
        ([1, 1, 1, 1], 0.0),
        ([0, 0, 0], 3.0),
        ([1, 0, 1], 1.0),
    ])
    def test_examples(self, genes, cost):
        assert OneMax(len(genes)).evaluate(np.array(genes)) == cost

    def test_rejects_non_binary(self):
        # non-integer genes are rejected, not truncated
        for genes in ([0, 2, 1], [1, 1, 1.7], [0.5, 1.9, 1.0]):
            with pytest.raises(ValueError):
                OneMax(3).evaluate(np.array(genes))

    def test_batch_matches_scalar(self):
        problem = OneMax(7)
        batch = problem.domain().sample_batch(np.random.default_rng(4), 50)
        assert np.array_equal(problem.evaluate_batch(batch),
                              [problem.evaluate(g) for g in batch])


TWO_ITEMS = KnapsackInstance(weights=(2.0, 3.0), values=(3.0, 4.0), capacity=5.0)


class TestKnapsackEvaluate:
    def test_all_items_fit(self):
        assert Knapsack(TWO_ITEMS).evaluate(np.array([1, 1])) == 0.0

    def test_overweight_penalty(self):
        tight = KnapsackInstance((2.0, 3.0), (3.0, 4.0), capacity=3.0)
        assert Knapsack(tight).evaluate(np.array([1, 1])) == 9.0

    def test_empty_selection(self):
        assert Knapsack(TWO_ITEMS).evaluate(np.array([0, 0])) == 7.0

    def test_feasible_dominates_infeasible(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            weights = tuple(float(w) for w in rng.integers(1, 20, n))
            values = tuple(float(v) for v in rng.integers(1, 30, n))
            inst = KnapsackInstance(weights, values, float(rng.integers(5, 60)))
            problem = Knapsack(inst)
            genomes = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.int64)
            costs = problem.evaluate_batch(genomes)
            feasible = genomes @ np.array(weights) <= inst.capacity
            if feasible.any() and (~feasible).any():
                assert costs[feasible].max() < costs[~feasible].min()

    def test_bit_equal_to_two_product_reference(self):
        # reference: one product per vector on the uint8 matrix itself
        rng = np.random.default_rng(29)
        for trial in range(200):
            n = int(rng.integers(1, 301))
            weights = rng.uniform(0.01, 30.0, n)
            values = rng.uniform(0.01, 50.0, n)
            capacity = float(rng.uniform(0.2, 0.8) * weights.sum())
            problem = Knapsack(KnapsackInstance(tuple(weights.tolist()), tuple(values.tolist()),
                                                capacity))
            genomes = rng.integers(0, 2, size=(1 + trial % 90, n), dtype=np.uint8)
            total = float(values.sum())
            overweight = genomes @ weights - capacity
            expected = np.where(overweight > 0, total + overweight, total - genomes @ values)
            costs = problem.evaluate_batch(genomes)
            assert costs.dtype == np.float64
            assert np.array_equal(costs, expected)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            KnapsackInstance((1.0,), (1.0, 2.0), 3.0)
        with pytest.raises(ValueError):
            KnapsackInstance((0.0,), (1.0,), 3.0)
        with pytest.raises(ValueError):
            KnapsackInstance((1.0,), (1.0,), 0.0)
        # NaN passes every `<= 0` check; named by field
        with pytest.raises(ValueError, match="capacity must be finite"):
            KnapsackInstance((3.0, 4.0), (5.0, 6.0), float("nan"))
        with pytest.raises(ValueError, match="capacity must be finite"):
            KnapsackInstance((3.0, 4.0), (5.0, 6.0), float("inf"))
        with pytest.raises(ValueError, match="weights must be finite, got nan at index 1"):
            KnapsackInstance((3.0, float("nan")), (5.0, 6.0), 5.0)
        with pytest.raises(ValueError, match="values must be finite"):
            KnapsackInstance((3.0, 4.0), (float("-inf"), 6.0), 5.0)


def meet_in_the_middle_optimum(inst):
    """Exhaustive optimum over every subset: each half's subsets enumerated,
    then each first-half subset paired with the best second-half subset that
    still fits."""
    def subsets(weights, values):
        w, v = np.zeros(1), np.zeros(1)
        for wi, vi in zip(weights, values):
            w, v = np.concatenate([w, w + wi]), np.concatenate([v, v + vi])
        return w, v

    half = inst.n_items // 2
    w1, v1 = subsets(inst.weights[:half], inst.values[:half])
    w2, v2 = subsets(inst.weights[half:], inst.values[half:])
    order = np.argsort(w2, kind="stable")
    w2, best_v2 = w2[order], np.maximum.accumulate(v2[order])
    fits = w1 <= inst.capacity
    # w2[0] is the empty subset, so every fitting first half has a partner
    partner = np.searchsorted(w2, inst.capacity - w1[fits], side="right") - 1
    return float((v1[fits] + best_v2[partner]).max())


class TestKnapsackDp:
    @pytest.mark.parametrize("weights,values,cap,expected", [
        ((2, 3), (3, 4), 5, 7.0),
        ((2, 3), (3, 4), 3, 4.0),
        ((1, 2, 3), (1, 2, 3), 3, 3.0),
    ])
    def test_examples(self, weights, values, cap, expected):
        inst = KnapsackInstance(tuple(map(float, weights)), tuple(map(float, values)),
                                float(cap))
        assert knapsack_dp_optimum(inst) == expected

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            weights = rng.integers(1, 25, n)
            values = rng.integers(1, 40, n)
            cap = float(rng.integers(1, max(2, int(weights.sum()))))
            inst = KnapsackInstance(tuple(map(float, weights)),
                                    tuple(map(float, values)), cap)
            masks = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
            value = masks @ values
            value[masks @ weights > cap] = 0
            assert knapsack_dp_optimum(inst) == float(value.max())

    def test_non_integer_weights_rejected(self):
        inst = KnapsackInstance((1.5, 2.0), (1.0, 1.0), 3.0)
        with pytest.raises(ValueError, match="integer"):
            knapsack_dp_optimum(inst)

    def test_size_limits(self):
        # one cap on items x (capacity + 1) cells, whatever the item count
        assert knapsack_dp_optimum(KnapsackInstance((1.0,) * 31, (1.0,) * 31, 5.0)) == 5.0
        assert knapsack_dp_optimum(KnapsackInstance((1.0,), (1.0,), 20_000.0)) == 1.0
        wide = KnapsackInstance((1.0,) * 100, (1.0,) * 100, float(DP_MAX_CELLS // 100))
        with pytest.raises(ValueError,
                           match=r"table cells, got 100 items x \(capacity 100000 \+ 1\)"):
            knapsack_dp_optimum(wide)

    @pytest.mark.parametrize("n_items,seed", [(40, 1), (40, 2), (41, 7)])
    def test_matches_meet_in_the_middle_beyond_thirty_items(self, n_items, seed):
        inst = generate_knapsack_instance(n_items, seed)
        assert knapsack_dp_optimum(inst) == meet_in_the_middle_optimum(inst)


class TestKnapsackGenerator:
    def test_deterministic(self):
        assert generate_knapsack_instance(15, 3) == generate_knapsack_instance(15, 3)

    def test_integer_weights_within_dp_limits(self):
        inst = generate_knapsack_instance(15, 7)
        assert all(w == int(w) for w in inst.weights)
        assert inst.capacity <= 10_000
        knapsack_dp_optimum(inst)  # oracle accepts every generated instance

    def test_best_value_roundtrip(self):
        problem = Knapsack(TWO_ITEMS)
        assert problem.best_value(problem.evaluate(np.array([1, 0]))) == 3.0
