"""Baseline variation operators: crossover and undirected mutation.

Binary genomes use single-point crossover and single bit flips; permutation
genomes use order crossover (OX) and position swaps, both of which preserve
the every-symbol-exactly-once invariant.

Each operator has a pure core taking explicit cut points / loci (used by the
deterministic examples in the tests) and a random wrapper that draws them.
The batch forms run one vectorized pass over a whole offspring cohort and are
the only implementation; scalar wrappers delegate to them.
"""

from __future__ import annotations

import numpy as np

from .genome import DomainKind, GeneDomain, Genome


# ---------------------------------------------------------------------------
# pure cores

def single_point_crossover(p1: Genome, p2: Genome, cut: int) -> tuple[Genome, Genome]:
    """Swap suffixes at `cut` (1..L-1)."""
    c1, c2 = _single_point_batch(p1[None, :], p2[None, :], np.array([cut]))
    return c1[0], c2[0]


def order_crossover(p1: Genome, p2: Genome, lo: int, hi: int) -> tuple[Genome, Genome]:
    """OX: child keeps p1[lo..hi] in place, remaining loci take the other
    parent's absent symbols in their relative order (left to right)."""
    c1 = _ox_batch(p1[None, :], p2[None, :], np.array([lo]), np.array([hi]))
    c2 = _ox_batch(p2[None, :], p1[None, :], np.array([lo]), np.array([hi]))
    return c1[0], c2[0]


def flip_mutation(g: Genome, locus: int) -> Genome:
    out = np.array(g, dtype=np.int64)
    out[locus] ^= 1
    return out


def swap_mutation(g: Genome, i: int, j: int) -> Genome:
    out = np.array(g, dtype=np.int64)
    out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# random wrappers

def crossover(domain: GeneDomain, p1: Genome, p2: Genome,
              rng: np.random.Generator) -> tuple[Genome, Genome]:
    c1, c2 = crossover_batch(domain, np.asarray(p1)[None, :], np.asarray(p2)[None, :], rng)
    return c1[0], c2[0]


def mutate(domain: GeneDomain, g: Genome, rng: np.random.Generator) -> Genome:
    return mutate_batch(domain, np.asarray(g)[None, :], rng)[0]


def crossover_batch(domain: GeneDomain, parents1: np.ndarray, parents2: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cross row-aligned parent cohorts; returns both children per pair."""
    if parents1.shape != parents2.shape:
        raise ValueError("parent cohorts must share one shape")
    m, length = parents1.shape
    if length != domain.length:
        raise ValueError(f"genome length {length} does not match domain length {domain.length}")
    if length < 2:
        return parents1.copy(), parents2.copy()
    if domain.kind is DomainKind.BINARY:
        cuts = rng.integers(1, length, size=m)
        return _single_point_batch(parents1, parents2, cuts)
    a = rng.integers(0, length, size=m)
    b = rng.integers(0, length, size=m)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # both children in one vectorized pass: rows m.. are the swapped-parent pairs
    children = _ox_batch(np.concatenate([parents1, parents2]),
                         np.concatenate([parents2, parents1]),
                         np.tile(lo, 2), np.tile(hi, 2))
    return children[:m], children[m:]


def mutate_batch(domain: GeneDomain, genomes: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One uniformly drawn bit flip (binary) or distinct-position swap (permutation) per row."""
    m, length = genomes.shape
    out = genomes.copy()
    if m == 0:
        return out
    rows = np.arange(m)
    if domain.kind is DomainKind.BINARY:
        loci = rng.integers(0, length, size=m)
        out[rows, loci] ^= 1
        return out
    if length < 2:
        return out
    i = rng.integers(0, length, size=m)
    j = rng.integers(0, length - 1, size=m)
    j = j + (j >= i)
    out[rows, i], out[rows, j] = genomes[rows, j], genomes[rows, i]
    return out


# ---------------------------------------------------------------------------
# vectorized kernels

def _single_point_batch(p1: np.ndarray, p2: np.ndarray,
                        cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    take_other = np.arange(p1.shape[1])[None, :] >= cuts[:, None]
    return np.where(take_other, p2, p1), np.where(take_other, p1, p2)


def _ox_batch(seg_parent: np.ndarray, fill_parent: np.ndarray,
              lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One OX child per row: segment from seg_parent, fill order from fill_parent."""
    m, length = seg_parent.shape
    pos = np.arange(length)
    in_segment = (pos >= lo[:, None]) & (pos <= hi[:, None])

    # locate fill_parent's symbols inside seg_parent (symbols are 1..L)
    rows = np.arange(m)[:, None]
    symbol_pos = np.empty((m, length + 1), dtype=np.int64)
    symbol_pos[rows, seg_parent] = pos
    fill_pos = symbol_pos[rows, fill_parent]
    fill_in_segment = (fill_pos >= lo[:, None]) & (fill_pos <= hi[:, None])

    # each row has as many loci outside the segment as symbols absent from
    # it, so the row-major boolean compactions line up row by row
    child = np.empty_like(seg_parent)
    child[in_segment] = seg_parent[in_segment]
    child[~in_segment] = fill_parent[~fill_in_segment]
    return child
