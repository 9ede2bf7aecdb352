"""0/1 knapsack with a penalized minimization objective and an exact DP oracle.

Feasible genomes cost (total value - selected value), so 0 means everything
fits; overweight genomes cost (total value + excess weight), which is strictly
worse than any feasible genome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..genome import GeneDomain
from ..rng import make_rng
from .base import Problem

# items x (capacity + 1): the work of the DP, and a bound on its capacity row
DP_MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class KnapsackInstance:
    weights: tuple[float, ...]
    values: tuple[float, ...]
    capacity: float

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.values):
            raise ValueError("weights and values must have equal length")
        if not self.weights:
            raise ValueError("instance needs at least one item")
        for label, numbers in (("weights", self.weights), ("values", self.values)):
            bad = [f"{x} at index {i}" for i, x in enumerate(numbers) if not math.isfinite(x)]
            if bad:
                raise ValueError(f"{label} must be finite, got {', '.join(bad)}")
        if not math.isfinite(self.capacity):
            raise ValueError(f"capacity must be finite, got {self.capacity}")
        if min(self.weights) <= 0 or min(self.values) <= 0:
            raise ValueError("weights and values must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")

    @property
    def n_items(self) -> int:
        return len(self.weights)


class Knapsack(Problem):
    def __init__(self, instance: KnapsackInstance, name: str | None = None):
        self.instance = instance
        self.name = name or f"knapsack-{instance.n_items}"
        self._domain = GeneDomain.binary(instance.n_items)
        self._weights = np.array(instance.weights, dtype=np.float64)
        self._values = np.array(instance.values, dtype=np.float64)
        self._total_value = float(self._values.sum())

    def domain(self) -> GeneDomain:
        return self._domain

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Penalized costs of a (m, n_items) 0/1 matrix.

        The genes are cast to float64 once and both products are float64
        matvecs on that copy: `genomes @ weights` on uint8 genes makes the
        same cast inside each product, so costs are unchanged.
        """
        selected = genomes.astype(np.float64)
        weight = selected @ self._weights
        value = selected @ self._values
        overweight = weight - self.instance.capacity
        return np.where(overweight > 0,
                        self._total_value + overweight,
                        self._total_value - value)

    def best_value(self, cost: float) -> float:
        """Selected value corresponding to a feasible cost."""
        return self._total_value - cost


def knapsack_dp_optimum(instance: KnapsackInstance) -> float:
    """Exact maximum value by dynamic programming over integer capacities.

    O(items x capacity) time over one capacity row; refused beyond
    `DP_MAX_CELLS` table cells.
    """
    weights = instance.weights
    for w in weights:
        if w != int(w):
            raise ValueError(f"dp oracle needs integer weights, got {w}")
    capacity = int(math.floor(instance.capacity))
    cells = instance.n_items * (capacity + 1)
    if cells > DP_MAX_CELLS:
        raise ValueError(f"dp oracle limited to {DP_MAX_CELLS} table cells, got "
                         f"{instance.n_items} items x (capacity {capacity} + 1) = {cells}")

    best = np.zeros(capacity + 1, dtype=np.float64)
    for w, v in zip(weights, instance.values):
        w = int(w)
        if w > capacity:
            continue
        # RHS materializes before the write, so each item is used at most once
        np.maximum(best[w:], best[:-w] + v, out=best[w:])
    return float(best[capacity])


def generate_knapsack_instance(n_items: int, seed: int) -> KnapsackInstance:
    """Seeded instance with integer weights/values; capacity ~55% of total weight."""
    if n_items < 1:
        raise ValueError("n_items must be positive")
    rng = make_rng(seed)
    weights = rng.integers(1, 31, size=n_items)
    values = rng.integers(1, 51, size=n_items)
    capacity = int(math.ceil(0.55 * float(weights.sum())))
    return KnapsackInstance(tuple(float(w) for w in weights),
                            tuple(float(v) for v in values),
                            float(capacity))
