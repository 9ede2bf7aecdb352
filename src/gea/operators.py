"""Baseline variation operators: crossover and undirected mutation.

Binary genomes use single-point crossover and single bit flips; permutation
genomes use order crossover (OX) and position swaps, both of which preserve
the every-symbol-exactly-once invariant.

The operators take whole cohorts, one vectorized pass per call. `recombine`
is the one recombination kernel, with one path per genome kind: crossover
keeps each parent's genes before the cut or in the OX segment and fills the
rest from its partner, and gene injection (in `engineering`) keeps the
dominant chromosome's masked loci and fills the rest from each recipient.
`mutate_loci` is the one mutation kernel: `mutate_batch` lets it draw from
every locus, and directed mutation (in `engineering`) only from the loci its
pattern mask leaves open.
"""

from __future__ import annotations

import functools

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
    # loci as positions in the narrowest unsigned type that holds the length
    pos = _arange(length, 1, True)
    if domain.kind is DomainKind.BINARY:  # single point: the loci before the cut
        keep = pos < rng.integers(1, length, size=m).astype(pos.dtype)[:, None]
    else:
        # OX: the segment lo..hi as pos - lo <= hi - lo, where loci before lo
        # wrap past it. One (2, m) draw gives the ends and generator state of
        # two draws of m
        a, b = rng.integers(0, length, size=(2, m)).astype(pos.dtype)
        lo = np.minimum(a, b)[:, None]
        keep = pos - lo <= np.maximum(a, b)[:, None] - lo
    # row 2i keeps pair i's first parent there and is filled from its second,
    # row 2i+1 the other way round
    return recombine(domain, pairs.reshape(2 * m, length), keep.repeat(2, axis=0),
                     pairs[:, ::-1].reshape(2 * m, length))


def mutate_batch(domain: GeneDomain, genomes: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One uniformly drawn bit flip (binary) or distinct-position swap (permutation) per row."""
    return mutate_loci(domain, genomes, _arange(genomes.shape[1]), rng)


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
    rows = _arange(m * length, length)
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
# the recombination kernel

def recombine(domain: GeneDomain, base: np.ndarray, keep: np.ndarray,
              fill: np.ndarray) -> np.ndarray:
    """Children holding `base`'s genes where the bool `keep` is set and
    `fill`'s elsewhere, one per row of the (n, L) `fill`; `base` and `keep`
    are (n, L) or one row shared by every child.

    Binary genes are fill ^ (base ^ fill) * keep. Permutations take the OX
    fill: a child's open loci hold, in `fill`'s order, the symbols of `fill`
    that its kept loci (which must be distinct) lack. `base` and `keep` are
    broadcast into full arrays, and the symbols each child still wants are
    marked in one flat n * (L+1) bool table, row r's symbols 0..L at offset
    r * (L+1). One `take` reads it for `fill`, and one flat `compress` of
    `fill` fills the open loci. Permutation children take `base`'s dtype.
    """
    if domain.kind is DomainKind.BINARY:
        return fill ^ (base ^ fill) * keep
    n, length = fill.shape
    # a shared row is broadcast by assignment into a full array, which is
    # cheaper than `np.broadcast_to`
    child, kept = np.empty(fill.shape, base.dtype), np.empty(fill.shape, bool)
    child[...], kept[...] = base, keep
    offsets = _arange(n * (length + 1), length + 1, True)[:, None]
    wanted = np.ones(n * (length + 1), dtype=bool)
    wanted[(child + offsets)[kept]] = False
    # each row has as many open loci as symbols its kept loci lack, so the
    # row-major compaction lines up row by row
    child[~kept] = fill.ravel().compress(wanted.take(fill + offsets).ravel())
    return child


@functools.lru_cache(maxsize=64)
def _arange(stop: int, step: int = 1, narrow: bool = False) -> np.ndarray:
    """Read-only `np.arange(0, stop, step)`, made once per genome shape: in
    the narrowest unsigned type that holds `stop` if `narrow`, else in intp."""
    table = np.arange(0, stop, step, dtype=np.min_scalar_type(stop) if narrow else np.intp)
    table.flags.writeable = False
    return table
