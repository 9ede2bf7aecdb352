"""Gene-engineering operators layered on the baseline GA.

Three mechanisms, each driven by per-locus repetition statistics over the
elite slice of the population:

* dominant-gene extraction: the most repeated symbol per locus, first
  occurrence winning ties (replacement only on strictly greater counts);
* directed mutation: mutation confined to loci the pattern mask leaves
  unmasked (uninformative loci);
* gene injection: overwriting a poor member's masked loci with the dominant
  symbols, with a permutation repair when that would duplicate symbols.

The dominant chromosome offered as a candidate (scenario 1) is repaired the
same way: it is gene injection with every locus masked, so one permutation
repair serves both mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genome import DomainKind, GeneDomain, Genome
from .operators import mutate_loci


@dataclass(frozen=True)
class RepetitionMatrix:
    """Per-locus symbol occurrence counts over the elite rows.

    counts[locus, symbol] is dense; symbols beyond the observed range count 0.
    The elite rows are kept: their order carries the tie-break order.
    """

    counts: np.ndarray
    elite: np.ndarray

    @property
    def elite_size(self) -> int:
        return self.elite.shape[0]


@dataclass(frozen=True)
class DominantChromosome:
    genes: np.ndarray
    repeat_counts: np.ndarray


@dataclass(frozen=True)
class PatternMask:
    bits: np.ndarray  # 1 = desired/fixed locus, 0 = open to change
    threshold: int


def repetition_matrix(elite: np.ndarray) -> RepetitionMatrix:
    """Count symbol occurrences per locus over the elite rows."""
    if elite.ndim != 2 or elite.shape[0] == 0:
        raise ValueError("elite must be a non-empty (M, L) genome matrix")
    length = elite.shape[1]
    n_symbols = int(elite.max()) + 1
    cells = (np.arange(length) * n_symbols + elite).ravel()
    counts = np.bincount(cells, minlength=length * n_symbols).reshape(length, n_symbols)
    return RepetitionMatrix(counts, elite)


def dominant_chromosome(rm: RepetitionMatrix) -> DominantChromosome:
    """Most repeated symbol per locus; earliest-seen symbol wins count ties.

    The first elite row reaching a locus's maximum count holds a max-count
    symbol, and no other max-count symbol appears in an earlier row.
    Both reads are flat `take`s: entry (row, locus) counts at
    `locus * n_symbols + symbol` of the raveled count matrix, and the
    dominant gene at `first_row * L + locus` of the raveled elite. These are
    the cells the 2-D indexes `counts[loci, elite]` and `elite[first_row,
    loci]` read, so counts and genes are unchanged.
    """
    length = rm.elite.shape[1]
    loci = np.arange(length)
    entry_counts = rm.counts.ravel().take(loci * rm.counts.shape[1] + rm.elite)
    repeat_counts = entry_counts.max(axis=0)
    first_row = (entry_counts == repeat_counts).argmax(axis=0)
    return DominantChromosome(rm.elite.ravel().take(first_row * length + loci), repeat_counts)


def build_mask(dc: DominantChromosome, threshold: int) -> PatternMask:
    """Mark loci whose dominant count strictly exceeds the threshold.

    A zero threshold disables masking entirely (all-zero mask).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if threshold == 0:
        bits = np.zeros_like(dc.repeat_counts)
    else:
        bits = (dc.repeat_counts > threshold).astype(np.int64)
    return PatternMask(bits, threshold)


# ---------------------------------------------------------------------------
# directed mutation (scenario 2)

def directed_mutation_batch(domain: GeneDomain, genomes: np.ndarray, mask_bits: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Mutate only unmasked loci; rows come back unchanged when too few exist."""
    mask_bits = np.asarray(mask_bits)
    if mask_bits.shape != genomes.shape[1:]:
        raise ValueError("mask length must equal genome length")
    return mutate_loci(domain, genomes, np.flatnonzero(mask_bits == 0), rng)


# ---------------------------------------------------------------------------
# gene injection (scenario 3)

def gene_injection_batch(domain: GeneDomain, genomes: np.ndarray, mask_bits: np.ndarray,
                         dc_genes: np.ndarray) -> np.ndarray:
    """Overwrite masked loci with dominant symbols across a recipient cohort."""
    mask_on = np.asarray(mask_bits) == 1
    if mask_on.shape != genomes.shape[1:] or dc_genes.shape != genomes.shape[1:]:
        raise ValueError("mask and dominant chromosome must match the genome length")
    if domain.kind is DomainKind.BINARY:
        return np.where(mask_on[None, :], dc_genes[None, :], genomes)

    fixed_pos, fixed_vals = _distinct_injection(mask_on, dc_genes)
    if fixed_pos.size == 0:
        return genomes.copy()
    is_fixed_symbol = np.zeros(domain.n_symbols, dtype=bool)
    is_fixed_symbol[fixed_vals] = True
    open_locus = np.ones(genomes.shape[1], dtype=bool)
    open_locus[fixed_pos] = False

    # every row holds each fixed symbol once, so its other symbols, kept in
    # row order, exactly fill the open loci
    out = np.empty_like(genomes)
    out[:, fixed_pos] = fixed_vals
    out[:, open_locus] = genomes[~is_fixed_symbol[genomes]].reshape(genomes.shape[0], -1)
    return out


def _distinct_injection(mask_on: np.ndarray, dc_genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masked loci to inject, keeping only the first occurrence of each symbol."""
    positions = np.flatnonzero(mask_on)
    values = dc_genes[positions]
    _, first = np.unique(values, return_index=True)
    first.sort()
    return positions[first], values[first]


# ---------------------------------------------------------------------------
# dominant-chromosome candidate (scenario 1)

def dominant_candidate(domain: GeneDomain, dc: DominantChromosome,
                       template: Genome) -> Genome:
    """Dominant genes as a full genome; when the raw dominant vector is not a
    valid permutation, the gene-injection repair completes it from `template`."""
    if domain.kind is DomainKind.BINARY or np.unique(dc.genes).size == dc.genes.size:
        return dc.genes.copy()
    return gene_injection_batch(domain, template[None, :], np.ones_like(dc.genes),
                                dc.genes)[0]
