import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gea.harness import (BatchResult, Benchmark, compute_stats, confidence_interval,
                         full_benchmark, interval_data, run_batch)
from gea.problems import (Knapsack, OneMax, VehicleRouting, generate_instance,
                          generate_knapsack_instance)
from gea.rng import derive_run_seed
from gea.solver import GeaSolver


class TestComputeStats:
    def test_textbook_values(self):
        s = compute_stats([1.0, 2.0, 3.0])
        assert (s.best, s.worst, s.mean, s.std) == (1.0, 3.0, 2.0, 1.0)

    def test_constant_runs(self):
        s = compute_stats([5.0, 5.0, 5.0, 5.0])
        assert s.best == s.worst == s.mean == 5.0
        assert s.std == 0.0

    def test_single_run_has_zero_std(self):
        assert compute_stats([257.3492]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_stats([])

    def test_order_invariants_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            costs = rng.uniform(0, 100, size=int(rng.integers(1, 12)))
            s = compute_stats(costs)
            assert s.best <= s.mean <= s.worst
            assert s.std >= 0.0
            assert (s.std == 0.0) == bool(np.all(costs == costs[0]))


class TestConfidenceInterval:
    def test_two_point_half_width(self):
        center, half = confidence_interval([0.0, 0.2])
        assert center == pytest.approx(0.1)
        assert half == pytest.approx(0.196, abs=1e-3)

    def test_constant_values(self):
        center, half = confidence_interval([0.1, 0.1, 0.1])
        assert center == pytest.approx(0.1) and half == 0.0

    def test_single_value_guard(self):
        assert confidence_interval([0.3]) == (0.3, 0.0)


def _batch(algorithm, instance, costs, iters=3):
    costs = np.asarray(costs, dtype=float)
    traces = np.tile(costs[:, None], (1, iters))
    return BatchResult(algorithm, instance, costs, traces)


class TestIntervalData:
    def test_groups_by_algorithm(self):
        rows = interval_data([
            _batch("ga", "a", [2.0, 4.0]),
            _batch("ga", "b", [3.0, 3.0]),
            _batch("gea", "a", [2.0, 2.0]),
        ])
        by_name = {row.algorithm: row for row in rows}
        # ga: per-instance std/mean = [sqrt(2)/3, 0]; gea: [0]
        expected = np.std([2.0, 4.0], ddof=1) / 3.0
        assert by_name["ga"].center == pytest.approx(expected / 2)
        assert by_name["gea"].center == 0.0
        assert by_name["gea"].half_width == 0.0

    def test_mismatched_run_counts_rejected(self):
        with pytest.raises(ValueError, match="run count"):
            interval_data([_batch("ga", "a", [1.0, 2.0]),
                           _batch("ga", "b", [1.0, 2.0, 3.0])])

    def test_zero_mean_guard(self):
        rows = interval_data([_batch("ga", "a", [0.0, 0.0])])
        assert rows[0].center == 0.0


class TestRunBatch:
    def test_single_run(self):
        batch = run_batch(OneMax(6), variant="ga", runs=1, base_seed=3,
                          pop_size=10, max_iters=5)
        assert batch.runs == 1
        assert batch.traces.shape == (1, 5)
        assert batch.stats().std == 0.0

    def test_deterministic(self):
        kwargs = dict(variant="gea", runs=3, base_seed=9, pop_size=12, max_iters=10)
        a = run_batch(OneMax(8), **kwargs)
        b = run_batch(OneMax(8), **kwargs)
        assert np.array_equal(a.run_costs, b.run_costs)
        assert np.array_equal(a.traces, b.traces)

    @pytest.mark.parametrize("runs", [0, 1.5, "3", True])
    def test_runs_guard(self, runs):
        with pytest.raises(ValueError, match="runs must be"):
            run_batch(OneMax(4), runs=runs)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            run_batch(OneMax(4), variant="abc")

    @pytest.mark.parametrize("base_seed", [-1, 1.5, "3", True])
    def test_base_seed_must_be_a_non_negative_integer(self, base_seed):
        with pytest.raises(ValueError, match="base_seed must be"):
            run_batch(OneMax(4), runs=1, base_seed=base_seed, pop_size=4, max_iters=1)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_run_seed(0, 1, 2) == derive_run_seed(0, 1, 2)
        seeds = {derive_run_seed(0, v, r) for v in range(5) for r in range(10)}
        assert len(seeds) == 50

    def test_variant_isolation(self):
        # adding a variant never perturbs another variant's runs
        ga_seeds = [derive_run_seed(7, 0, r) for r in range(10)]
        assert ga_seeds == [derive_run_seed(7, 0, r) for r in range(10)]


@pytest.fixture(scope="module")
def bench():
    problems = [VehicleRouting(generate_instance(5, 2, 1, name="a")),
                VehicleRouting(generate_instance(6, 2, 2, name="b"))]
    return full_benchmark(problems, variants=("ga", "gea"), runs=2,
                          base_seed=1, pop_size=16, max_iters=30)


class TestFullBenchmark:
    def test_grid_complete(self, bench):
        assert len(bench.results) == 4
        assert bench.batch("ga", "a").runs == 2
        with pytest.raises(KeyError):
            bench.batch("ga", "missing")

    def test_results_csv_shape(self, bench):
        lines = bench.results_csv().strip().splitlines()
        assert lines[0] == "algorithm,instance,best,worst,mean,std"
        assert len(lines) == 5
        assert lines[1].startswith("ga,a,")

    def test_convergence_csv_counts_and_monotonicity(self, bench):
        lines = bench.convergence_csv().strip().splitlines()
        assert lines[0] == "algorithm,instance,run,iteration,best_cost"
        assert len(lines) == 1 + 4 * 2 * 30
        for result in bench.results:
            assert (np.diff(result.traces, axis=1) <= 1e-12).all()

    def test_intervals_csv(self, bench):
        lines = bench.intervals_csv().strip().splitlines()
        assert lines[0] == "algorithm,center,half_width"
        assert len(lines) == 3

    def test_table_lists_all_cells(self, bench):
        table = bench.table_text()
        for token in ("ga", "gea", "a", "b", "best", "worst", "mean", "std"):
            assert token in table

    def test_byte_identical_rerun(self, bench):
        problems = [VehicleRouting(generate_instance(5, 2, 1, name="a")),
                    VehicleRouting(generate_instance(6, 2, 2, name="b"))]
        again = full_benchmark(problems, variants=("ga", "gea"), runs=2,
                               base_seed=1, pop_size=16, max_iters=30)
        assert again.results_csv() == bench.results_csv()
        assert again.convergence_csv() == bench.convergence_csv()
        assert again.intervals_csv() == bench.intervals_csv()
        assert again.table_text() == bench.table_text()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            full_benchmark([], variants=("ga",))
        with pytest.raises(ValueError):
            full_benchmark([OneMax(4)], variants=())

    def test_duplicate_cells_rejected_by_name(self):
        # two instances sharing a name would share one report cell
        twins = [VehicleRouting(generate_instance(5, 2, seed, name="same")) for seed in (1, 2)]
        with pytest.raises(ValueError, match="duplicate instance names: same"):
            full_benchmark(twins, variants=("ga",), runs=1, max_iters=2)
        with pytest.raises(ValueError, match="duplicate variants: gea"):
            full_benchmark([OneMax(4)], variants=("gea", "ga", "gea"), runs=1, max_iters=2)

    @pytest.fixture
    def fits(self, monkeypatch):
        """The variant of every fit started while the test runs."""
        fits = []
        fit = GeaSolver.fit

        def counted(solver, problem):
            fits.append(solver.variant)
            return fit(solver, problem)

        monkeypatch.setattr(GeaSolver, "fit", counted)
        return fits

    def test_unknown_variant_rejected_before_any_fit(self, fits):
        with pytest.raises(ValueError, match="'bogus'"):
            full_benchmark([OneMax(4)], variants=("ga", "bogus"), runs=2, max_iters=2)
        assert fits == []

    @pytest.mark.parametrize("problems,variants,pattern", [
        ([OneMax(4), generate_instance(5, 2, 1)], ("ga",), "Problem contract.*VrpInstance"),
        ([OneMax(4), SimpleNamespace(domain=OneMax(4).domain,
                                     evaluate_batch=OneMax(4).evaluate_batch)],
         ("ga",), "Problem contract.*str name.*got SimpleNamespace"),
        ([OneMax(4)], "gea", "variants must be a sequence, not a string: got 'gea'"),
        ([OneMax(4)], b"ga", "variants must be a sequence, not a string"),
        ("f1", ("ga",), "problems must be a sequence, not a string: got 'f1'"),
        # a name is a report file's stem and a CSV field
        ([OneMax(4), Knapsack(generate_knapsack_instance(5, 1), name="../escaped")], ("ga",),
         "instance name must be .* got '../escaped'"),
        ([Knapsack(generate_knapsack_instance(5, 1), name="a,b")], ("ga",),
         "instance name must be .* got 'a,b'"),
    ], ids=["instance-not-problem", "nameless-problem", "variants-str", "variants-bytes",
            "problems-str", "name-parent-path", "name-comma"])
    def test_bad_problem_or_string_rejected_before_any_fit(self, fits, problems, variants,
                                                            pattern):
        # a string would iterate as characters: variants="gea" would name 'g'
        with pytest.raises(ValueError, match=pattern):
            full_benchmark(problems, variants=variants, runs=2, max_iters=2)
        assert fits == []

    def test_smoke_suite_is_fast(self):
        import time
        problem = VehicleRouting(generate_instance(8, 3, 1, name="f1"))
        start = time.monotonic()
        full_benchmark([problem], variants=("gea",), runs=2, max_iters=50)
        assert time.monotonic() - start < 5.0


def reference_convergence_csv(bench):
    """One formatted line per (cell, run, iteration), joined at the end."""
    lines = ["algorithm,instance,run,iteration,best_cost"]
    for result in bench.results:
        runs, iters = result.traces.shape
        for run_index in range(runs):
            for i in range(iters):
                cost = float(result.traces[run_index, i])
                lines.append(f"{result.algorithm},{result.instance},{run_index},{i},{cost:.6f}")
    return "\n".join(lines) + "\n"


def synthetic_benchmark(cells, runs, iters, seed=0):
    """A `Benchmark` of non-increasing random traces, `runs[c]` runs in cell c."""
    rng = np.random.default_rng(seed)
    results = []
    for cell in range(cells):
        traces = np.minimum.accumulate(
            rng.uniform(-5.0, 1500.0, size=(runs[cell], iters)), axis=1)
        results.append(BatchResult(f"v{cell % 2}", f"i{cell}", traces[:, -1], traces))
    return Benchmark(("v0", "v1"), tuple(f"i{cell}" for cell in range(cells)), tuple(results))


class TestConvergenceCsv:
    def test_matches_line_reference(self, bench):
        uneven = synthetic_benchmark(4, runs=(1, 3, 2, 5), iters=17, seed=4)
        # a zero-iteration batch renders no rows but keeps its neighbours' rows
        no_iterations = Benchmark(("v0", "v1"), ("i0", "i1", "i2"), (
            BatchResult("v1", "i2", np.zeros(2), np.empty((2, 0))),
            *synthetic_benchmark(2, runs=(3, 1), iters=5, seed=5).results))
        for case in (bench, uneven, no_iterations):
            assert case.convergence_csv() == reference_convergence_csv(case)
        assert no_iterations.convergence_csv().count("\n") == 1 + 3 * 5 + 1 * 5

    def test_peak_is_about_twice_the_text(self):
        # one block per trace plus the joined text is about twice the text;
        # one string per line peaked at about 5.4 times it
        bench = synthetic_benchmark(6, runs=(10,) * 6, iters=1000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            text = bench.convergence_csv()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 1 + 6 * 10 * 1000
        assert peak <= 2.5 * len(text)
