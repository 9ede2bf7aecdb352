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

Each generation produces round(crossover_rate * pop) crossover children from
rank-roulette parent pairs and round(mutation_rate * pop) mutants, applies the
mechanisms that fire, then truncates parents + offspring elitistically back to
the population size, so the best cost never regresses. When any mechanism
fires, the elite statistics (dominant chromosome and pattern mask) are computed
once per generation, from the population before the offspring, and shared by
all three mechanisms.

Every variant draws its gates from a dedicated scheduler stream, separate from
the operator stream; a ``gea`` run whose weights force a single scenario
therefore replays the corresponding fixed variant draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engineering import (build_mask, dominant_candidate, dominant_chromosome,
                          directed_mutation_batch, gene_injection_batch,
                          repetition_matrix)
from .genome import GeneDomain
from .operators import crossover_batch, mutate_batch
from .population import (Population, _checked_costs, init_population, rank_weight_cumsum,
                         roulette_indices)
from .rng import split_streams
from .validation import check_fraction, check_int, check_weights

VARIANTS = ("ga", "gea1", "gea2", "gea3", "gea")
VARIANT_IDS = {name: index for index, name in enumerate(VARIANTS)}

_PARAM_NAMES = ("variant", "pop_size", "max_iters", "crossover_rate", "mutation_rate",
                "elite_fraction", "threshold_fraction", "scenario_weights", "seed")

# scenario firing probabilities of the fixed variants; gea takes its own
_VARIANT_WEIGHTS = {"ga": (0.0, 0.0, 0.0), "gea1": (1.0, 0.0, 0.0),
                    "gea2": (0.0, 1.0, 0.0), "gea3": (0.0, 0.0, 1.0)}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class _Params:
    variant: str
    pop_size: int
    max_iters: int
    crossover_rate: float
    mutation_rate: float
    elite_fraction: float
    threshold_fraction: float
    scenario_weights: tuple[float, float, float]
    seed: int


class _Generation:
    """Per-fit caches for the iteration hot path."""

    def __init__(self, params: _Params, domain: GeneDomain):
        self.domain = domain
        self.size = size = params.pop_size
        self.cumulative = rank_weight_cumsum(size)
        self.n_cross = _round_half_up(params.crossover_rate * size)
        self.n_mut = _round_half_up(params.mutation_rate * size)
        self.elite_size = max(1, math.ceil(params.elite_fraction * size))
        self.threshold = math.ceil(params.threshold_fraction * self.elite_size)
        # Python floats, compared with the draws as Python floats
        self.weights = _VARIANT_WEIGHTS.get(params.variant, params.scenario_weights)

    def step(self, pop: Population, problem, rng: np.random.Generator,
             scheduler_rng: np.random.Generator) -> Population:
        # independent per-scenario gates; weight w_i = firing probability
        run1, run2, run3 = (draw < w for draw, w in
                            zip(scheduler_rng.random(3).tolist(), self.weights))
        if run1 or run2 or run3:
            # one elite pass feeds every mechanism; it draws no random numbers
            dc = dominant_chromosome(repetition_matrix(pop.genes[: self.elite_size]))
            mask = build_mask(dc, self.threshold)

        parts: list[np.ndarray] = []
        if self.n_cross > 0:
            n_pairs = (self.n_cross + 1) // 2
            parent_idx = roulette_indices(self.size, 2 * n_pairs, rng, self.cumulative)
            first, second = crossover_batch(self.domain, pop.genes[parent_idx[0::2]],
                                            pop.genes[parent_idx[1::2]], rng)
            children = np.empty((2 * n_pairs, self.domain.length), dtype=first.dtype)
            children[0::2], children[1::2] = first, second
            parts.append(children[: self.n_cross])

        if self.n_mut > 0:
            source_idx = roulette_indices(self.size, self.n_mut, rng, self.cumulative)
            sources = pop.genes[source_idx]
            if run2:
                parts.append(directed_mutation_batch(self.domain, sources, mask.bits, rng))
            else:
                parts.append(mutate_batch(self.domain, sources, rng))

        if run1:
            parts.append(dominant_candidate(self.domain, dc, pop.genes[0])[None, :])
        if run3:
            pool = self.size - self.elite_size
            n_inject = min(self.n_mut, pool)
            if n_inject > 0:
                offsets = rng.choice(pool, size=n_inject, replace=False)
                recipients = pop.genes[self.elite_size + offsets]
                parts.append(gene_injection_batch(self.domain, recipients,
                                                  mask.bits, dc.genes))

        if not parts:
            return pop
        offspring = parts[0] if len(parts) == 1 else np.concatenate(parts)
        costs = _checked_costs(problem.evaluate_batch(offspring), offspring.shape[0], problem)
        return pop.select_survivors(offspring, costs)


class GeaSolver:
    """Evolutionary minimizer over discrete genomes.

    Parameters follow the benchmark defaults: population 100, 1000 iterations,
    crossover volume 0.8, mutation volume 0.1, elite fraction 0.2, mask
    threshold fraction 0.5, scenario weights (0.5, 0.5, 0.2).

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
    def _checked_params(self) -> _Params:
        variant = self.variant
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        pop_size = check_int("pop_size", self.pop_size, minimum=2)
        max_iters = check_int("max_iters", self.max_iters, minimum=0)
        elite_fraction = check_fraction("elite_fraction", self.elite_fraction, low_open=True)
        if elite_fraction * pop_size < 1:
            raise ValueError(
                f"elite_fraction * pop_size must be >= 1, got {elite_fraction * pop_size}"
            )
        weights = check_weights("scenario_weights", self.scenario_weights,
                                require_positive=(variant == "gea"))
        if variant == "gea" and any(w > 1 for w in weights):
            raise ValueError(
                f"scenario_weights act as firing probabilities and must each be <= 1, "
                f"got {weights}"
            )
        return _Params(
            variant=variant,
            pop_size=pop_size,
            max_iters=max_iters,
            crossover_rate=check_fraction("crossover_rate", self.crossover_rate),
            mutation_rate=check_fraction("mutation_rate", self.mutation_rate),
            elite_fraction=elite_fraction,
            threshold_fraction=check_fraction("threshold_fraction", self.threshold_fraction),
            scenario_weights=weights,
            seed=check_int("seed", self.seed, minimum=0),
        )

    def fit(self, problem) -> "GeaSolver":
        params = self._checked_params()
        rng, scheduler_rng = split_streams(params.seed)
        pop = init_population(problem, params.pop_size, rng)
        generation = _Generation(params, problem.domain())

        trace = np.empty(params.max_iters, dtype=np.float64)
        for i in range(params.max_iters):
            pop = generation.step(pop, problem, rng, scheduler_rng)
            trace[i] = pop.best_cost

        self.population_ = pop
        self.best_genes_ = pop.genes[0].copy()
        self.best_cost_ = pop.best_cost
        self.trace_ = trace
        self.n_iters_ = params.max_iters
        return self
