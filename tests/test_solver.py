import tracemalloc

import numpy as np
import pytest

import gea.solver
from gea import engineering
from gea.population import Population, _row_fingerprints, init_population
from gea.problems import OneMax, VehicleRouting, generate_instance
from gea.rng import split_streams
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
        ({"scenario_weights": None}, "scenario_weights"),
        ({"scenario_weights": 0.5}, "scenario_weights"),
        ({"scenario_weights": (0.5, "x", 0.2)}, "scenario_weights"),
        ({"scenario_weights": "0.5,0.5,0.2"}, "scenario_weights"),
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
        # a copy of the read-only population row, free to write
        solver.best_genes_[0] = solver.best_genes_[0]

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
        assert np.array_equal(solver.population_._fingerprints, _row_fingerprints(genes))

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


class TestCounts:
    def test_counts_round_the_exact_product(self, monkeypatch):
        # every fraction k/100 and k/1000 at every pop from 2 to 300, against
        # integer arithmetic on k * pop / d. The settings are accepted exactly
        # when k * pop >= d, and then the counts are half up for crossover
        # and mutation and the ceiling for the elite size and the threshold;
        # otherwise the constructor raises a ValueError naming elite_fraction.
        # Unrounded float products miss these, e.g. 0.07 * 100 =
        # 7.000000000000001. Each k/100 is the same float as 10k/1000, so the
        # dict holds 1001 fractions
        fractions = {k / d: (k, d) for d in (100, 1000) for k in range(d + 1)}
        # the roulette table is most of a _Generation's setup and no count
        monkeypatch.setattr(gea.solver, "rank_weight_cumsum", lambda size: None)
        for fraction, (k, d) in fractions.items():
            for pop in range(2, 301):
                solver = GeaSolver(pop_size=pop, crossover_rate=fraction,
                                   mutation_rate=fraction, elite_fraction=fraction,
                                   threshold_fraction=fraction)
                if k * pop < d:
                    with pytest.raises(ValueError, match="elite_fraction"):
                        _Generation(solver, None)
                    continue
                generation = _Generation(solver, None)
                half_up = (2 * k * pop + d) // (2 * d)
                elite = -(-k * pop // d)
                counts = (generation.n_cross, generation.n_mut,
                          generation.elite_size, generation.threshold)
                assert counts == (half_up, half_up, elite, -(-k * elite // d)), (k, d, pop)

    @pytest.mark.parametrize("params,attribute,count", [
        ({"pop_size": 100, "elite_fraction": 0.07}, "elite_size", 7),
        ({"pop_size": 25, "elite_fraction": 1.0, "threshold_fraction": 0.28}, "threshold", 7),
        ({"pop_size": 25, "crossover_rate": 0.58}, "n_cross", 15),
        ({"pop_size": 100, "mutation_rate": 0.145}, "n_mut", 15),
    ])
    def test_fit_counts(self, params, attribute, count):
        generation = _Generation(GeaSolver(**params), None)
        assert getattr(generation, attribute) == count


class EliteObserver:
    """Wraps `_Generation.step` to see each generation's elite, counts the
    generations whose elite differs from the elite of the last pass, and
    records the elite of every pass the solver makes."""

    def __init__(self, monkeypatch):
        self.reset()
        step, repetition_matrix = _Generation.step, gea.solver.repetition_matrix

        def observed(generation, pop, *args):
            self.generation = generation
            self.elite = pop.genes[: generation.elite_size].copy()
            if generation.weights != (0.0, 0.0, 0.0) and (
                    self.last_pass is None or not np.array_equal(self.elite, self.last_pass)):
                self.changed += 1
                self.last_pass = self.elite
            return step(generation, pop, *args)

        def counted(elite):
            self.passes.append(elite.copy())
            return repetition_matrix(elite)

        monkeypatch.setattr(_Generation, "step", observed)
        monkeypatch.setattr(gea.solver, "repetition_matrix", counted)

    def reset(self):
        self.generation = self.elite = self.last_pass = None
        self.changed = 0
        self.passes = []

    def fresh_pass(self):
        """Dominant genes, mask and candidate recomputed on this generation's elite."""
        dominant, repeat_counts = engineering.dominant_chromosome(
            engineering.repetition_matrix(self.elite), self.elite)
        mask = engineering.build_mask(repeat_counts, self.generation.threshold)
        candidate = engineering.dominant_candidate(self.generation.domain, dominant,
                                                   self.elite[0])
        return dominant, mask, candidate


# every scenario gate fires in every generation
ALWAYS_ENGINEERED = [("gea", (1, 1, 1)), ("gea1", None), ("gea2", None), ("gea3", None)]
GENERATIONS = 60


def fit_every_generation(variant, weights, problem):
    kwargs = {} if weights is None else {"scenario_weights": weights}
    return GeaSolver(variant=variant, pop_size=20, max_iters=GENERATIONS, seed=3,
                     **kwargs).fit(problem)


class TestElitePass:
    @pytest.mark.parametrize("variant,weights", ALWAYS_ENGINEERED + [("ga", None)],
                             ids=["gea", "gea1", "gea2", "gea3", "ga"])
    def test_one_repetition_matrix_per_distinct_elite(self, monkeypatch, variant, weights):
        observer = EliteObserver(monkeypatch)
        for problem in (OneMax(12), VehicleRouting(generate_instance(6, 2, 5))):
            observer.reset()
            fit_every_generation(variant, weights, problem)
            assert len(observer.passes) == observer.changed
            if variant != "ga":
                # both fits converge, so the elite recurs and passes are reused
                assert 0 < len(observer.passes) < GENERATIONS

    def test_any_changed_elite_gene_reruns_the_pass(self, monkeypatch):
        observer = EliteObserver(monkeypatch)
        problem = OneMax(6)
        # no offspring: each step runs only the gate and the elite pass
        solver = GeaSolver(variant="gea2", pop_size=10, crossover_rate=0.0, mutation_rate=0.0)
        generation = _Generation(solver, problem.domain())
        genes = problem.domain().sample_batch(np.random.default_rng(4), 10)
        pop = Population(genes, problem.evaluate_batch(genes))
        last = generation.elite_size - 1

        def changed(row, locus):
            genes = pop.genes.copy()
            genes[row, locus] ^= 1
            return Population(genes, pop.costs)

        first_locus, last_locus = changed(0, 0), changed(last, -1)
        below_elite = changed(last + 1, 0)
        for step_pop in (pop, pop, first_locus, first_locus, last_locus, below_elite, pop):
            generation.step(step_pop, problem, np.random.default_rng(0),
                            np.random.default_rng(1).random(3) < generation.weights)
        assert [elite.tolist() for elite in observer.passes] == [
            p.genes[: last + 1].tolist() for p in (pop, first_locus, last_locus, pop)]

    @pytest.mark.parametrize("variant,weights", ALWAYS_ENGINEERED,
                             ids=["gea", "gea1", "gea2", "gea3"])
    def test_reused_pass_equals_a_fresh_pass(self, monkeypatch, variant, weights):
        observer = EliteObserver(monkeypatch)
        seen = {"mutation": 0, "injection": 0, "candidate": 0}
        directed, injection = gea.solver.directed_mutation_batch, gea.solver.gene_injection_batch

        def checked_directed(domain, genomes, mask, rng):
            assert mask.dtype == bool
            assert np.array_equal(mask, observer.fresh_pass()[1])
            seen["mutation"] += 1
            return directed(domain, genomes, mask, rng)

        def checked_injection(domain, genomes, mask, dc_genes):
            dominant, fresh_mask, _ = observer.fresh_pass()
            assert mask.dtype == bool
            assert np.array_equal(mask, fresh_mask)
            assert np.array_equal(dc_genes, dominant)
            seen["injection"] += 1
            return injection(domain, genomes, mask, dc_genes)

        class CandidateChecked:
            """Checks the candidate row, which follows the crossover
            children and the mutants, in every generation that makes one."""

            def __init__(self, problem):
                self.problem = problem
                self.name = problem.name

            def domain(self):
                return self.problem.domain()

            def evaluate_batch(self, genomes):
                generation = observer.generation
                if generation is not None and generation.weights[0] == 1.0:
                    row = genomes[generation.n_cross + generation.n_mut]
                    assert np.array_equal(row, observer.fresh_pass()[2])
                    seen["candidate"] += 1
                return self.problem.evaluate_batch(genomes)

        monkeypatch.setattr(gea.solver, "directed_mutation_batch", checked_directed)
        monkeypatch.setattr(gea.solver, "gene_injection_batch", checked_injection)
        for problem in (OneMax(12), VehicleRouting(generate_instance(6, 2, 5))):
            observer.reset()
            fit_every_generation(variant, weights, CandidateChecked(problem))
            # the cache was hit, so reused passes were checked
            assert len(observer.passes) < GENERATIONS
        fired = {"mutation": weights is not None or variant == "gea2",
                 "injection": weights is not None or variant == "gea3",
                 "candidate": weights is not None or variant == "gea1"}
        assert seen == {name: 2 * GENERATIONS if fired[name] else 0 for name in seen}


class TestGateSchedule:
    @pytest.mark.parametrize("variant", ["gea", "ga", "gea3"])
    def test_schedule_equals_one_random_3_per_generation(self, monkeypatch, variant):
        seen = []
        step = _Generation.step

        def recorded(generation, pop, problem, rng, gates):
            seen.append(gates.tolist())
            return step(generation, pop, problem, rng, gates)

        monkeypatch.setattr(_Generation, "step", recorded)
        weights = (0.5, 0.3, 0.9)
        GeaSolver(variant=variant, pop_size=10, max_iters=300, scenario_weights=weights,
                  seed=11).fit(OneMax(8))
        weights = gea.solver._VARIANT_WEIGHTS.get(variant, weights)
        _, scheduler_rng = split_streams(11)
        assert seen == [[draw < w for draw, w in zip(scheduler_rng.random(3).tolist(), weights)]
                        for _ in range(300)]

    def test_blocks_draw_what_one_draw_would(self):
        # a schedule longer than two blocks, ending in a partial one
        max_iters = 2 * gea.solver._SCHEDULE_BLOCK + 3
        generation = _Generation(GeaSolver(max_iters=max_iters), None)
        gates = generation.schedule(split_streams(4)[1])
        expected = split_streams(4)[1].random((max_iters, 3)) < generation.weights
        assert np.array_equal(gates, expected)

    def test_schedule_memory_is_linear_in_its_bools(self):
        # 10^6 generations: 3 MB of gates and one 96 KB block of draws at a
        # time. One float64 draw of the whole schedule held 24 MB more
        generation = _Generation(GeaSolver(max_iters=10**6), None)
        rng = split_streams(0)[1]
        tracemalloc.start()
        try:
            gates = generation.schedule(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gates.shape == (10**6, 3)
        assert peak < gates.nbytes + 2**20

    def test_schedule_is_a_bool_row_per_generation(self):
        generation = _Generation(GeaSolver(max_iters=7), None)
        gates = generation.schedule(split_streams(0)[1])
        assert gates.dtype == bool and gates.shape == (7, 3)
        assert _Generation(GeaSolver(max_iters=0), None).schedule(
            split_streams(0)[1]).shape == (0, 3)


class TestStep:
    def test_directed_mutants_of_identical_elite_change_nothing(self):
        # fully agreed elite -> all-ones mask -> directed mutation is identity
        problem = OneMax(6)
        genes = np.tile(np.array([1, 0, 1, 0, 1, 0]), (10, 1))
        pop = Population(genes, problem.evaluate_batch(genes))
        solver = GeaSolver(variant="gea2", pop_size=10, crossover_rate=0.0,
                           mutation_rate=0.5, seed=6)
        generation = _Generation(solver, problem.domain())
        out = generation.step(pop, problem, np.random.default_rng(1),
                              np.random.default_rng(2).random(3) < generation.weights)
        assert out.best_cost == pop.best_cost
        assert np.array_equal(np.unique(out.genes, axis=0),
                              np.unique(genes, axis=0))


class ScenarioRecorder:
    """Steps one fixed population of 20 distinct OneMax(8) rows, ranked by
    index, and records what each generation did. With no crossover, 5
    mutants, an elite of 4 and so 5 injection recipients, a step evaluates
    5 + [scenario 1] + 5 * [scenario 3] rows, and scenario 2 is the step's
    call of directed mutation. The pass over the fixed elite is made once,
    so a step costs tens of microseconds."""

    def __init__(self, monkeypatch, variant, weights=(0.5, 0.5, 0.2)):
        self.problem = OneMax(8)
        self.name = self.problem.name
        self.generation = _Generation(
            GeaSolver(variant=variant, pop_size=20, crossover_rate=0.0, mutation_rate=0.25,
                      scenario_weights=weights, seed=5), self.problem.domain())
        genes = ((np.arange(20)[:, None] >> np.arange(8)) & 1).astype(np.uint8)
        self.pop = Population(genes, np.arange(20.0))
        self.rows, self.directed, self.recipients = [], [], []
        directed, injection = gea.solver.directed_mutation_batch, gea.solver.gene_injection_batch

        def recorded_directed(*args):
            self.directed.append(len(self.rows))
            return directed(*args)

        def recorded_injection(domain, genomes, keep, dc_genes):
            # each row's bits spell its rank
            self.recipients.append(genomes @ (1 << np.arange(8)))
            return injection(domain, genomes, keep, dc_genes)

        monkeypatch.setattr(gea.solver, "directed_mutation_batch", recorded_directed)
        monkeypatch.setattr(gea.solver, "gene_injection_batch", recorded_injection)

    def domain(self):
        return self.problem.domain()

    def evaluate_batch(self, genomes):
        self.rows.append(len(genomes))
        return self.problem.evaluate_batch(genomes)

    def run(self, generations):
        """(generations, 3) bool array: the scenarios each generation fired."""
        rng, scheduler_rng = split_streams(self.generation.seed)
        for gates in scheduler_rng.random((generations, 3)) < self.generation.weights:
            self.generation.step(self.pop, self, rng, gates)
        rows = np.array(self.rows)
        assert set(rows.tolist()) <= {5, 6, 10, 11}
        fired = np.zeros((generations, 3), dtype=bool)
        fired[self.directed, 1] = True
        fired[:, 0], fired[:, 2] = rows % 5 == 1, rows >= 10
        return fired


def within_sigma(counts, n, p, sigmas=4.5):
    """Every count within `sigmas` binomial standard deviations of n * p."""
    p = np.asarray(p, dtype=np.float64)
    return (abs(np.asarray(counts) - n * p) <= sigmas * np.sqrt(n * p * (1 - p))).all()


class TestScenarioDistribution:
    def test_gea_gates_fire_independently_at_their_weights(self, monkeypatch):
        # 4,000 generations put a 5-point shift of any gate's rate at 6 sigma
        # or more; the eight joint outcomes catch gates that share a draw
        fired = ScenarioRecorder(monkeypatch, "gea").run(4000)
        weights = np.array([0.5, 0.5, 0.2])
        assert within_sigma(fired.sum(axis=0), 4000, weights)
        outcomes = fired @ np.array([4, 2, 1])
        cells = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
        p = np.where(cells, weights, 1 - weights).prod(axis=1)
        assert within_sigma(np.bincount(outcomes, minlength=8), 4000, p)

    @pytest.mark.parametrize("variant", ["ga", "gea1", "gea2", "gea3"])
    def test_fixed_variants_fire_their_constant_triple(self, monkeypatch, variant):
        # whatever scenario_weights says: a fixed variant ignores it
        fired = ScenarioRecorder(monkeypatch, variant, weights=(0.5, 0.5, 0.5)).run(200)
        expected = gea.solver._VARIANT_WEIGHTS[variant]
        assert np.array_equal(fired, np.tile(np.array(expected, dtype=bool), (200, 1)))


class TestInjectionRecipients:
    def test_uniform_over_the_non_elite_without_replacement(self, monkeypatch):
        # 2,000 injections of 5 recipients among the 16 non-elite ranks 4..19
        recorder = ScenarioRecorder(monkeypatch, "gea3")
        recorder.run(2000)
        recipients = np.array(recorder.recipients)
        assert recipients.shape == (2000, 5) and (recipients >= 4).all()
        assert (np.diff(np.sort(recipients, axis=1), axis=1) > 0).all()
        # each rank is a recipient in 5 of 16 injections
        offsets = recipients - 4
        assert within_sigma(np.bincount(offsets.ravel(), minlength=16), 2000, 5 / 16)
        # every unordered pair of the 16 ranks is as likely: 5 * 4 / (16 * 15)
        together = np.zeros((16, 16), dtype=np.int64)
        for row in offsets:
            together[np.ix_(row, row)] += 1
        pairs = together[np.triu_indices(16, 1)]
        assert within_sigma(pairs, 2000, 1 / 12)


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
