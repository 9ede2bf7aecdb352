"""Genome domains: fixed-length vectors of discrete gene symbols.

Two encodings are supported. Binary genomes hold independent 0/1 genes.
Permutation genomes encode routing-style solutions: symbols 1..n_items must
each appear exactly once, and any extra symbols n_items+1..length act as
route separators that are permuted along with the items.

A genome is a row of an (n, L) gene matrix, the only genome representation.
Every matrix of a domain is stored in its `GeneDomain.dtype`, the narrowest
unsigned type that holds every symbol: one byte per locus for binary genomes
and for up to 255 permutation symbols, two bytes up to 65,535.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

Genome = np.ndarray


def _is_number(value, kinds=(int, float, np.integer, np.floating)) -> bool:
    """True for a scalar of `kinds`; a bool, a NumPy bool or a numeric string is none."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a number that converts to a finite float: no NaN, infinity or too large int."""
    return _is_number(value) and -sys.float_info.max <= value <= sys.float_info.max


def _check_int(name: str, value, minimum: int) -> int:
    """`value` as an int; a ValueError naming `name` if it is no integer or below `minimum`."""
    if not _is_number(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class DomainKind(Enum):
    BINARY = "binary"
    PERMUTATION = "permutation"


@dataclass(frozen=True)
class GeneDomain:
    kind: DomainKind
    length: int
    n_items: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DomainKind):
            raise ValueError(f"kind must be a DomainKind, got {self.kind!r}")
        _check_int("n_items", self.n_items, 0)
        _check_int("length", self.length, 1)
        if self.kind is DomainKind.PERMUTATION:
            if not 1 <= self.n_items <= self.length:
                raise ValueError(
                    f"permutation domain needs 1 <= n_items <= length, "
                    f"got n_items={self.n_items}, length={self.length}"
                )

    @classmethod
    def binary(cls, length: int) -> "GeneDomain":
        return cls(DomainKind.BINARY, length)

    @classmethod
    def permutation(cls, n_items: int, separators: int = 0) -> "GeneDomain":
        return cls(DomainKind.PERMUTATION, n_items + separators, n_items)

    @property
    def alphabet(self) -> np.ndarray:
        if self.kind is DomainKind.BINARY:
            return np.array([0, 1])
        return np.arange(1, self.length + 1)

    @property
    def n_symbols(self) -> int:
        """Dense index bound: symbols fit in range(n_symbols)."""
        return 2 if self.kind is DomainKind.BINARY else self.length + 1

    @property
    def dtype(self) -> np.dtype:
        """Storage type of every gene matrix in this domain."""
        return np.min_scalar_type(self.n_symbols - 1)

    def contains(self, genes: np.ndarray) -> bool:
        genes = np.asarray(genes)
        if genes.shape != (self.length,):
            return False
        if self.kind is DomainKind.BINARY:
            return bool(np.isin(genes, (0, 1)).all())
        return bool(np.array_equal(np.sort(genes), self.alphabet))

    def validate(self, genes) -> Genome:
        """Return the genome in `dtype`; raise ValueError on any domain
        violation, a non-integer gene included."""
        arr = np.asarray(genes)
        if arr.shape != (self.length,):
            raise ValueError(f"genome shape {arr.shape} does not match length {self.length}")
        if not self.contains(arr):
            raise ValueError(f"genome {arr.tolist()} is not a member of {self.kind.value} domain")
        return arr.astype(self.dtype)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform genomes: fair independent bits, or unbiased per-row shuffles."""
        if self.kind is DomainKind.BINARY:
            # drawn as int64: a uint8 draw would consume a different stream
            bits = rng.integers(0, 2, size=(size, self.length), dtype=np.int64)
            return bits.astype(self.dtype)
        base = np.tile(np.arange(1, self.length + 1, dtype=self.dtype), (size, 1))
        rng.permuted(base, axis=1, out=base)
        return base
