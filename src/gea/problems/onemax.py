"""OneMax: minimize the number of zero genes. Optimum 0 at the all-ones genome."""

from __future__ import annotations

import numpy as np

from ..genome import GeneDomain
from .base import Problem


class OneMax(Problem):
    def __init__(self, length: int):
        self._domain = GeneDomain.binary(length)
        self.length = length
        self.name = f"onemax-{length}"

    def domain(self) -> GeneDomain:
        return self._domain

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        return (self.length - genomes.sum(axis=1)).astype(np.float64)
