"""Baseline variation operators: crossover and undirected mutation.

Binary genomes use single-point crossover and single bit flips; permutation
genomes use order crossover (OX) and position swaps, both of which preserve
the every-symbol-exactly-once invariant.

The operators take whole cohorts and make one vectorized pass per call; there
is no per-genome form. `crossover_batch` takes m parent pairs as one (m, 2, L)
array, draws the cut points, and returns the (2m, L) children in pair order.
`mutate_loci` is the one mutation kernel, one genome per row: `mutate_batch`
lets it draw from every locus, and directed mutation (in `engineering`) only
from the loci its pattern mask leaves open.
"""

from __future__ import annotations

import numpy as np

from .genome import DomainKind, GeneDomain


def crossover_batch(domain: GeneDomain, pairs: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Cross each of m parent pairs, given as an (m, 2, L) array; returns the
    (2m, L) children, pair i's two children at rows 2i and 2i+1."""
    if pairs.shape[1:] != (2, domain.length):
        raise ValueError(f"parent pairs of shape {pairs.shape} do not match (m, 2, L) "
                         f"for domain length L = {domain.length}")
    m, _, length = pairs.shape
    if length < 2:
        return pairs.reshape(2 * m, length).copy()
    if domain.kind is DomainKind.BINARY:
        cuts = rng.integers(1, length, size=m)
        return _single_point_batch(pairs, cuts).reshape(2 * m, length)
    # one (2, m) draw gives the same ends, and leaves the generator in the
    # same state, as two draws of m
    a, b = rng.integers(0, length, size=(2, m))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # both children in one vectorized pass: row 2i takes its segment from
    # pair i's first parent, row 2i+1 from its second
    return _ox_batch(pairs.reshape(2 * m, length), pairs[:, ::-1].reshape(2 * m, length),
                     lo.repeat(2), hi.repeat(2))


def mutate_batch(domain: GeneDomain, genomes: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One uniformly drawn bit flip (binary) or distinct-position swap (permutation) per row."""
    return mutate_loci(domain, genomes, np.arange(genomes.shape[1]), rng)


def mutate_loci(domain: GeneDomain, genomes: np.ndarray, free: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Flip one bit or swap two distinct positions per row, drawn from the
    `free` loci only; rows come back unchanged when too few loci are free."""
    m, length = genomes.shape
    out = genomes.copy()
    binary = domain.kind is DomainKind.BINARY
    if m == 0 or free.size < (1 if binary else 2):
        return out
    # loci as flat positions row * L + locus of the raveled copy
    flat = out.ravel()
    rows = np.arange(0, m * length, length)
    i = rng.integers(0, free.size, size=m)
    if binary:
        flat[rows + free[i]] ^= 1
        return out
    j = rng.integers(0, free.size - 1, size=m)
    j = j + (j >= i)
    fi, fj = rows + free[i], rows + free[j]
    flat[fi], flat[fj] = flat.take(fj), flat.take(fi)
    return out


# ---------------------------------------------------------------------------
# vectorized kernels

def _single_point_batch(pairs: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Both single-point children of each (m, 2, L) pair, in pair order:
    loci from the pair's cut on come from the other parent.

    The mask compares positions in the narrowest unsigned type that holds
    the genome length, so it is the same bool mask as an int64 compare. The
    children are the parents ^ swap with swap = (p1 ^ p2) * mask: where the
    mask is set that exchanges the two genes exactly, elsewhere it keeps
    them, for any integer genes and in the parents' dtype.
    """
    length = pairs.shape[2]
    pos_type = np.min_scalar_type(length)
    take_other = np.arange(length, dtype=pos_type) >= cuts.astype(pos_type)[:, None]
    swap = (pairs[:, 0] ^ pairs[:, 1]) * take_other
    return pairs ^ swap[:, None]


def _ox_batch(seg_parent: np.ndarray, fill_parent: np.ndarray,
              lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One OX child per row: segment from seg_parent, fill order from fill_parent.

    Loci are compared as positions in the narrowest unsigned type that holds
    the genome length, in one compare: pos - lo <= hi - lo, as positions
    before lo wrap past every segment length. Whether a symbol lies in its
    row's segment is kept in one flat bool table of m * (L+1) entries, row
    r's symbols 1..L at offset r * (L+1), set with one 1-D index and read for
    fill_parent with one `take`. The child starts as seg_parent, and one flat
    `np.compress` of fill_parent fills its other loci in fill_parent's order.
    """
    m, length = seg_parent.shape
    pos_type = np.min_scalar_type(length)
    lo = lo.astype(pos_type)[:, None]
    in_segment = np.arange(length, dtype=pos_type) - lo <= hi.astype(pos_type)[:, None] - lo

    offsets = np.arange(0, m * (length + 1), length + 1)[:, None]
    marked = np.zeros(m * (length + 1), dtype=bool)
    marked[(seg_parent + offsets)[in_segment]] = True
    fill_in_segment = marked.take(fill_parent + offsets)

    # each row has as many loci outside the segment as symbols absent from
    # it, so the row-major compaction lines up row by row
    child = seg_parent.copy()
    child[~in_segment] = np.compress(~fill_in_segment.ravel(), fill_parent.ravel())
    return child
