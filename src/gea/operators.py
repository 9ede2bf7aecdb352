"""Baseline variation operators: crossover and undirected mutation.

Binary genomes use single-point crossover and single bit flips; permutation
genomes use order crossover (OX) and position swaps, both of which preserve
the every-symbol-exactly-once invariant.

The operators take whole cohorts, one genome per row, and make one vectorized
pass per call; there is no per-genome form. `crossover_batch` draws the cut
points for the crossover kernels. `mutate_loci` is the one mutation kernel:
`mutate_batch` lets it draw from every locus, and directed mutation (in
`engineering`) only from the loci its pattern mask leaves open.
"""

from __future__ import annotations

import numpy as np

from .genome import DomainKind, GeneDomain


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
                         np.concatenate([lo, lo]), np.concatenate([hi, hi]))
    return children[:m], children[m:]


def mutate_batch(domain: GeneDomain, genomes: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One uniformly drawn bit flip (binary) or distinct-position swap (permutation) per row."""
    return mutate_loci(domain, genomes, np.arange(genomes.shape[1]), rng)


def mutate_loci(domain: GeneDomain, genomes: np.ndarray, free: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Flip one bit or swap two distinct positions per row, drawn from the
    `free` loci only; rows come back unchanged when too few loci are free."""
    m = genomes.shape[0]
    out = genomes.copy()
    binary = domain.kind is DomainKind.BINARY
    if m == 0 or free.size < (1 if binary else 2):
        return out
    rows = np.arange(m)
    i = rng.integers(0, free.size, size=m)
    if binary:
        out[rows, free[i]] ^= 1
        return out
    j = rng.integers(0, free.size - 1, size=m)
    j = j + (j >= i)
    fi, fj = free[i], free[j]
    out[rows, fi], out[rows, fj] = genomes[rows, fj], genomes[rows, fi]
    return out


# ---------------------------------------------------------------------------
# vectorized kernels

def _single_point_batch(p1: np.ndarray, p2: np.ndarray,
                        cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both single-point children per row: loci from the row's cut on come
    from the other parent.

    The mask compares positions in the narrowest unsigned type that holds
    the genome length, so it is the same bool mask as an int64 compare. The
    children are p1 ^ swap and p2 ^ swap with swap = (p1 ^ p2) * mask: where
    the mask is set that exchanges the two genes exactly, elsewhere it keeps
    them, for any integer genes and in the parents' dtype.
    """
    length = p1.shape[1]
    pos_type = np.min_scalar_type(length)
    take_other = np.arange(length, dtype=pos_type) >= cuts.astype(pos_type)[:, None]
    swap = (p1 ^ p2) * take_other
    return p1 ^ swap, p2 ^ swap


def _ox_batch(seg_parent: np.ndarray, fill_parent: np.ndarray,
              lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One OX child per row: segment from seg_parent, fill order from fill_parent.

    Loci are compared as positions in the narrowest unsigned type that holds
    the genome length, which gives the same segment mask as an int64 compare.
    Whether a symbol lies in its row's segment is kept in one flat bool table
    of m * (L+1) entries, row r's symbols 1..L at offset r * (L+1): the
    segment's symbols are set with one 1-D index, and fill_parent's symbols
    are looked up with one `take`. The child starts as a copy of seg_parent,
    and its loci outside the segment take fill_parent's other symbols, in
    fill_parent's order. Both sides of that compaction are flat row-major
    positions (`flatnonzero` of each mask) on the raveled matrices, the same
    order a 2-D boolean index walks, so the child is unchanged.
    """
    m, length = seg_parent.shape
    pos_type = np.min_scalar_type(length)
    pos = np.arange(length, dtype=pos_type)
    in_segment = (pos >= lo.astype(pos_type)[:, None]) & (pos <= hi.astype(pos_type)[:, None])

    offsets = np.arange(0, m * (length + 1), length + 1)[:, None]
    marked = np.zeros(m * (length + 1), dtype=bool)
    marked[(seg_parent + offsets)[in_segment]] = True
    fill_in_segment = marked.take(fill_parent + offsets)

    # each row has as many loci outside the segment as symbols absent from
    # it, so the row-major compaction lines up row by row
    child = seg_parent.copy()
    child.ravel()[np.flatnonzero(~in_segment)] = \
        fill_parent.ravel().take(np.flatnonzero(~fill_in_segment))
    return child
