"""Gene-engineering operators layered on the baseline GA.

One elite pass of plain functions over arrays, with no result classes:
`repetition_matrix` gives the (M, L) per-entry repeat counts,
`dominant_chromosome` the most repeated symbol per locus (first occurrence
winning ties) with its count, and `build_mask` a bool mask, True where that
count exceeds the threshold (a fixed locus). Three mechanisms consume the
pass. Each reads the mask in one derived form, which is fixed until the
elite changes, so a fit derives it once per pass; a nonzero entry fixes its
locus:

* directed mutation: mutation confined to `free_loci`, the loci the mask
  leaves open;
* gene injection: `operators.recombine` of each poor member with the
  dominant chromosome, which keeps the dominant symbols at the loci of
  `injection_keep` (the masked loci; on permutations, only each symbol's
  first) and the member's genes elsewhere;
* the dominant candidate (scenario 1): gene injection with every locus
  masked, so the dominant genes as they are when binary.
"""

from __future__ import annotations

import numpy as np

from .genome import DomainKind, GeneDomain, Genome
from .operators import mutate_loci, recombine


def repetition_matrix(elite: np.ndarray) -> np.ndarray:
    """Per-entry repeat counts over the elite rows.

    Entry (row, locus) is the number of elite rows that hold
    `elite[row, locus]` at that locus. The counts are read from one dense
    (locus, symbol) table, raveled: entry (row, locus) counts at
    `locus * n_symbols + symbol`.
    """
    if elite.ndim != 2 or elite.shape[0] == 0:
        raise ValueError("elite must be a non-empty (M, L) genome matrix")
    n_symbols = int(elite.max()) + 1
    cells = np.arange(elite.shape[1]) * n_symbols + elite
    return np.bincount(cells.ravel()).take(cells)


def dominant_chromosome(entry_counts: np.ndarray,
                        elite: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dominant genes, repeat counts): the most repeated symbol per locus,
    the earliest-seen symbol winning count ties, and its count.

    The first elite row reaching a locus's maximum count holds a max-count
    symbol, and no other max-count symbol appears in an earlier row. The
    dominant gene is read with one flat `take` at `first_row * L + locus` of
    the raveled elite.
    """
    length = elite.shape[1]
    repeat_counts = entry_counts.max(axis=0)
    first_row = (entry_counts == repeat_counts).argmax(axis=0)
    return elite.ravel().take(first_row * length + np.arange(length)), repeat_counts


def build_mask(repeat_counts: np.ndarray, threshold: int) -> np.ndarray:
    """Bool mask of the loci whose dominant count strictly exceeds the
    threshold. A zero threshold disables masking entirely (all False)."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return (repeat_counts > threshold) & (threshold > 0)


# ---------------------------------------------------------------------------
# the pass read by the mechanisms, derived once per pass

def free_loci(domain: GeneDomain, mask: np.ndarray) -> np.ndarray:
    """The ascending loci the mask leaves open, which directed mutation
    draws from; a nonzero mask entry fixes its locus."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (domain.length,):
        raise ValueError("mask length must equal genome length")
    return (~mask).nonzero()[0]


def injection_keep(domain: GeneDomain, mask: np.ndarray, dc_genes: np.ndarray) -> np.ndarray:
    """Bool row of the loci whose dominant gene gene injection keeps: the
    masked loci (a nonzero entry), and on permutations, which hold each
    symbol once, only the first masked locus of each dominant symbol."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (domain.length,) or dc_genes.shape != (domain.length,):
        raise ValueError("mask and dominant chromosome must match the genome length")
    if domain.kind is DomainKind.BINARY:
        return mask
    masked = mask.nonzero()[0]
    keep = np.zeros_like(mask)
    keep[masked[np.unique(dc_genes[masked], return_index=True)[1]]] = True
    return keep


# ---------------------------------------------------------------------------
# directed mutation (scenario 2)

def directed_mutation_batch(domain: GeneDomain, genomes: np.ndarray, free: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Mutate only the `free` loci (`free_loci` of the mask), a strictly
    increasing row; rows come back unchanged when too few are free."""
    length = genomes.shape[1]
    # a repeated locus can swap with itself; one past the end wraps to the next row
    if free.ndim != 1 or free.dtype.kind not in "iu" or (free.size and (
            free[0] < 0 or free[-1] >= length or not (free[1:] > free[:-1]).all())):
        raise ValueError(f"free loci must be a strictly increasing row of loci in 0..{length - 1}")
    return mutate_loci(domain, genomes, free, rng)


# ---------------------------------------------------------------------------
# gene injection (scenario 3)

def gene_injection_batch(domain: GeneDomain, genomes: np.ndarray, keep: np.ndarray,
                         dc_genes: np.ndarray) -> np.ndarray:
    """Each recipient recombined with the dominant chromosome: dominant
    symbols at the `keep` loci (`injection_keep` of the mask), the
    recipient's genes elsewhere."""
    if keep.dtype != bool or keep.shape != genomes.shape[1:] or dc_genes.shape != keep.shape:
        raise ValueError("keep row (bool) and dominant chromosome must match the genome length")
    return recombine(domain, dc_genes, keep, genomes)


# ---------------------------------------------------------------------------
# dominant-chromosome candidate (scenario 1)

def dominant_candidate(domain: GeneDomain, dc_genes: np.ndarray,
                       template: Genome) -> Genome:
    """Dominant genes as a full genome, a fresh array: gene injection into
    `template` with every locus masked, which on permutations keeps each
    dominant symbol's first locus and fills the rest in `template`'s order."""
    keep = injection_keep(domain, np.ones(dc_genes.shape, dtype=bool), dc_genes)
    return gene_injection_batch(domain, template[None, :], keep, dc_genes)[0]
