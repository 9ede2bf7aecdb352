"""Gene-engineering solver with an sklearn-style estimator surface.

Five algorithm variants share one generational loop. Each generation fires
each of three mechanisms independently, with a probability given by a weight
triple, through one scenario gate:

* scenario 1 adds the dominant chromosome as a candidate offspring;
* scenario 2 replaces undirected mutation with mask-directed mutation;
* scenario 3 injects dominant genes into members drawn from the non-elite.

``gea`` uses the ``scenario_weights`` parameter (weights need not sum to one).
The other variants are ablations with a constant triple: ``ga`` (0, 0, 0) is
crossover + undirected mutation only, and ``gea1``, ``gea2`` and ``gea3`` each
always fire one scenario: (1, 0, 0), (0, 1, 0) and (0, 0, 1).

Each generation produces round(crossover_rate * pop) crossover children, two
per rank-roulette parent pair in pair order, and round(mutation_rate * pop)
mutants, applies the mechanisms that fire, then truncates parents + offspring
elitistically back to the population size, so the best cost never regresses.
When any mechanism fires, the elite statistics (dominant chromosome and
pattern mask) are read from the population before the offspring and shared
by all three mechanisms. They are computed in one pass per distinct elite: a
fit keeps the last pass and reuses it while the elite rows are unchanged,
with what the mechanisms derive from it, each made the first time one asks:
the repaired dominant candidate (scenario 1), the free loci of directed
mutation and the keep row of gene injection. The pass draws no random
numbers, so reusing it leaves every fit as it was.

Every variant draws its gates from a dedicated scheduler stream, separate from
the operator stream, all at once when the fit starts: a (max_iters, 3) bool
array holding the draws of one ``random(3)`` per generation. A ``gea`` run
whose weights force a single scenario therefore replays the corresponding
fixed variant draw for draw.
"""

from __future__ import annotations

import math

import numpy as np

from .engineering import (build_mask, dominant_candidate, dominant_chromosome,
                          directed_mutation_batch, free_loci, gene_injection_batch,
                          injection_keep, repetition_matrix)
from .genome import GeneDomain, _check_int, _is_finite, _is_number
from .operators import crossover_batch, mutate_batch
from .population import (Population, _checked_costs, init_population, rank_weight_cumsum,
                         roulette_indices)
from .rng import split_streams

VARIANTS = ("ga", "gea1", "gea2", "gea3", "gea")
VARIANT_IDS = {name: index for index, name in enumerate(VARIANTS)}

_PARAM_NAMES = ("variant", "pop_size", "max_iters", "crossover_rate", "mutation_rate",
                "elite_fraction", "threshold_fraction", "scenario_weights", "seed")

# scenario firing probabilities of the fixed variants; gea takes its own
_VARIANT_WEIGHTS = {"ga": (0.0, 0.0, 0.0), "gea1": (1.0, 0.0, 0.0),
                    "gea2": (0.0, 1.0, 0.0), "gea3": (0.0, 0.0, 1.0)}
# generations per draw of the gate schedule: a 96 KB float64 block
_SCHEDULE_BLOCK = 4096


def _product(fraction: float, count: int) -> float:
    """fraction * count rounded to 9 decimals, so that a count rounds the
    exact product and not its float error (0.07 * 100 is 7.000000000000001)."""
    return round(fraction * count, 9)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


def _problem_domain(problem) -> GeneDomain:
    """The domain of a problem that keeps the `Problem` contract, or a
    ValueError that names the contract and the type it got."""
    domain, evaluate = getattr(problem, "domain", None), getattr(problem, "evaluate_batch", None)
    named = isinstance(getattr(problem, "name", None), str)
    domain = domain() if named and callable(domain) and callable(evaluate) else None
    if not isinstance(domain, GeneDomain):
        raise ValueError(f"problem must keep the Problem contract (a str name, callable domain() "
                         f"returning a GeneDomain, callable evaluate_batch), "
                         f"got {type(problem).__name__}")
    return domain


def _check_fraction(name: str, value, low_open: bool = False) -> float:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # NaN fails every comparison, and so does an int too large for a float,
    # which stays an int
    value = float(value) if _is_finite(value) else value
    if not 0.0 <= value <= 1.0 or (low_open and value == 0.0):
        bracket = "(" if low_open else "["
        raise ValueError(f"{name} must be in {bracket}0.0, 1.0], got {value}")
    return value


def _check_weights(weights, variant: str) -> tuple[float, float, float]:
    # a string iterates as characters, so it is no sequence of numbers here
    try:
        values = None if isinstance(weights, (str, bytes)) else tuple(weights)
    except TypeError:
        values = None
    if values is None or not all(map(_is_number, values)):
        raise ValueError(f"scenario_weights must be a sequence of 3 numbers, got {weights!r}")
    if len(values) != 3:
        raise ValueError(f"scenario_weights must have 3 entries, got {len(values)}")
    if not all(map(_is_finite, values)):
        raise ValueError(f"scenario_weights entries must be finite, got {values}")
    values = tuple(map(float, values))
    if any(w < 0 for w in values):
        raise ValueError(f"scenario_weights entries must be non-negative, got {values}")
    if variant == "gea" and sum(values) <= 0:
        raise ValueError("scenario_weights must contain at least one positive entry")
    if variant == "gea" and any(w > 1 for w in values):
        raise ValueError(f"scenario_weights act as firing probabilities and must each "
                         f"be <= 1, got {values}")
    return values


class _Generation:
    """A fit's checked settings and per-fit caches for the iteration hot path;
    a bad setting raises a ValueError that names it."""

    def __init__(self, solver: "GeaSolver", domain: GeneDomain):
        variant = _check_variant(solver.variant)
        self.size = size = _check_int("pop_size", solver.pop_size, 2)
        self.max_iters = _check_int("max_iters", solver.max_iters, 0)
        elite_fraction = _check_fraction("elite_fraction", solver.elite_fraction, low_open=True)
        if _product(elite_fraction, size) < 1:
            raise ValueError(f"elite_fraction * pop_size must be >= 1, "
                             f"got {elite_fraction * size}")
        weights = _check_weights(solver.scenario_weights, variant)
        crossover_rate = _check_fraction("crossover_rate", solver.crossover_rate)
        mutation_rate = _check_fraction("mutation_rate", solver.mutation_rate)
        threshold_fraction = _check_fraction("threshold_fraction", solver.threshold_fraction)
        self.seed = _check_int("seed", solver.seed, 0)

        self.domain = domain
        self.cumulative = rank_weight_cumsum(size)
        self.n_cross = _round_half_up(_product(crossover_rate, size))
        self.n_mut = _round_half_up(_product(mutation_rate, size))
        # at least 1, by the elite_fraction check above
        self.elite_size = math.ceil(_product(elite_fraction, size))
        self.threshold = math.ceil(_product(threshold_fraction, self.elite_size))
        # each variant's firing probabilities, compared with the draws as float64
        self.weights = _VARIANT_WEIGHTS.get(variant, weights)
        # the last elite pass and the bytes of the elite rows it was computed
        # from. What the mechanisms read of it is derived once, on the first
        # generation after the pass that needs it: the candidate, the free
        # loci of directed mutation and the keep row of gene injection
        self.elite_bytes = self.dominant = self.mask = None
        self.candidate = self.free = self.keep = None

    def schedule(self, scheduler_rng: np.random.Generator) -> np.ndarray:
        """The fit's scenario gates, a (max_iters, 3) bool array: row i holds
        generation i's three independent gates, scenario j firing when its
        draw falls below weight j. The draws are those of a `random(3)` per
        generation, in the same order, made `_SCHEDULE_BLOCK` rows at a time."""
        gates = np.empty((self.max_iters, 3), dtype=bool)
        for start in range(0, self.max_iters, _SCHEDULE_BLOCK):
            block = gates[start:start + _SCHEDULE_BLOCK]
            np.less(scheduler_rng.random(block.shape), self.weights, out=block)
        return gates

    def step(self, pop: Population, problem, rng: np.random.Generator,
             gates: np.ndarray) -> Population:
        # this generation's row of the fit's schedule: the scenarios that fire
        run1, run2, run3 = gates.tolist()
        if run1 or run2 or run3:
            # one elite pass feeds every mechanism; it draws no random numbers,
            # so the last pass stands while the elite rows are unchanged. The
            # elite's shape and dtype are fixed for the fit, so equal bytes
            # are equal rows; comparing bytes costs a tenth of np.array_equal
            elite = pop.genes[: self.elite_size]
            elite_bytes = elite.tobytes()
            if elite_bytes != self.elite_bytes:
                self.elite_bytes = elite_bytes
                self.dominant, repeat_counts = dominant_chromosome(repetition_matrix(elite),
                                                                   elite)
                self.mask = build_mask(repeat_counts, self.threshold)
                self.candidate = self.free = self.keep = None

        parts: list[np.ndarray] = []
        if self.n_cross > 0:
            n_pairs = (self.n_cross + 1) // 2
            parent_idx = roulette_indices(self.cumulative, 2 * n_pairs, rng)
            pairs = pop.genes[parent_idx].reshape(n_pairs, 2, self.domain.length)
            parts.append(crossover_batch(self.domain, pairs, rng)[: self.n_cross])

        if self.n_mut > 0:
            source_idx = roulette_indices(self.cumulative, self.n_mut, rng)
            sources = pop.genes[source_idx]
            if run2:
                if self.free is None:
                    self.free = free_loci(self.domain, self.mask)
                parts.append(directed_mutation_batch(self.domain, sources, self.free, rng))
            else:
                parts.append(mutate_batch(self.domain, sources, rng))

        if run1:
            # its template, pop.genes[0], is elite row 0, so it stands with the pass
            if self.candidate is None:
                self.candidate = dominant_candidate(self.domain, self.dominant,
                                                    pop.genes[0])[None, :]
            parts.append(self.candidate)
        if run3:
            pool = self.size - self.elite_size
            n_inject = min(self.n_mut, pool)
            if n_inject > 0:
                offsets = rng.choice(pool, size=n_inject, replace=False)
                recipients = pop.genes[self.elite_size + offsets]
                if self.keep is None:
                    self.keep = injection_keep(self.domain, self.mask, self.dominant)
                parts.append(gene_injection_batch(self.domain, recipients,
                                                  self.keep, self.dominant))

        if not parts:
            return pop
        offspring = parts[0] if len(parts) == 1 else np.concatenate(parts)
        costs = _checked_costs(problem.evaluate_batch(offspring), offspring.shape[0], problem)
        return pop.select_survivors(offspring, costs)


class GeaSolver:
    """Evolutionary minimizer over discrete genomes.

    Parameters follow the benchmark defaults: population 100, 1000 iterations,
    crossover volume 0.8, mutation volume 0.1, elite fraction 0.2, mask
    threshold fraction 0.5, scenario weights (0.5, 0.5, 0.2). They are stored
    as given and checked when ``fit`` starts; a bad one raises a ValueError
    that names it.

    After ``fit(problem)`` the solver exposes ``best_genes_``, ``best_cost_``,
    ``trace_`` (per-iteration best cost, non-increasing) and ``population_``.
    """

    def __init__(self, variant: str = "gea", pop_size: int = 100, max_iters: int = 1000,
                 crossover_rate: float = 0.8, mutation_rate: float = 0.1,
                 elite_fraction: float = 0.2, threshold_fraction: float = 0.5,
                 scenario_weights: tuple[float, float, float] = (0.5, 0.5, 0.2),
                 seed: int = 0):
        self.variant = variant
        self.pop_size = pop_size
        self.max_iters = max_iters
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.elite_fraction = elite_fraction
        self.threshold_fraction = threshold_fraction
        self.scenario_weights = scenario_weights
        self.seed = seed

    # -- sklearn estimator protocol -----------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params) -> "GeaSolver":
        for name, value in params.items():
            if name not in _PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r} for GeaSolver")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"GeaSolver({args})"

    # -- fitting -------------------------------------------------------------
    def fit(self, problem) -> "GeaSolver":
        generation = _Generation(self, _problem_domain(problem))
        rng, scheduler_rng = split_streams(generation.seed)
        pop = init_population(problem, generation.size, rng)

        gates = generation.schedule(scheduler_rng)
        trace = np.empty(generation.max_iters, dtype=np.float64)
        for i in range(generation.max_iters):
            pop = generation.step(pop, problem, rng, gates[i])
            trace[i] = pop.best_cost

        self.population_ = pop
        self.best_genes_ = pop.genes[0].copy()
        self.best_cost_ = pop.best_cost
        self.trace_ = trace
        self.n_iters_ = generation.max_iters
        return self
