"""Problem contract: a gene domain plus a pure, vectorized minimization objective."""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

import numpy as np

from ..genome import GeneDomain, Genome


class Problem(ABC):
    """Minimization problem over a discrete genome domain.

    `evaluate_batch` is the objective: the cost of every row of an (m, L)
    gene matrix of valid genomes. It must be pure, deterministic and total
    over the domain. A fit checks every batch it gets back: one finite cost
    per row, or a ValueError that names the problem and the row.
    `evaluate` is the same objective on one validated genome.
    """

    name: str = "problem"

    @abstractmethod
    def domain(self) -> GeneDomain:
        ...

    @abstractmethod
    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        ...

    def evaluate(self, genes: Genome) -> float:
        """Cost of one genome; ValueError when it is not in the domain."""
        genes = self.domain().validate(genes)
        return float(self.evaluate_batch(genes[None, :])[0])


def _check_instance(instance, kind: type):
    """`instance` when it is a `kind`; otherwise a ValueError that names it."""
    if not isinstance(instance, kind):
        raise ValueError(f"instance must be a {kind.__name__}, got {type(instance).__name__}")
    return instance


def _check_name(name) -> str:
    """`name` when it can name an instance: it is a report file's stem and a
    field of the CSV reports and of an instance file's NAME record, so it is
    non-empty, holds no whitespace, ',', '"', '/' or '\\', and is not '.' or
    '..'. Otherwise a ValueError that names it."""
    if not isinstance(name, str) or name in ("", ".", "..") or re.search(r'[\s,"/\\]', name):
        raise ValueError(f"instance name must be non-empty, with no whitespace, ',', "
                         f"'\"', '/' or '\\', and not '.' or '..': got {name!r}")
    return name
