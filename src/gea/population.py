"""Cost-sorted populations and selection primitives."""

from __future__ import annotations

import functools

import numpy as np


class Population:
    """Fixed-size pool of evaluated genomes, kept sorted by ascending cost.

    A (size, L) bool or integer gene matrix, kept in the dtype it is given
    (the domain's `GeneDomain.dtype` in a fit), plus a cost vector; row i is
    the i-th best genome. Costs are checked to be one finite number per row
    and stably sorted; survivors enter through the private `_kept`, sorted
    and checked. Each row's 64-bit fingerprint is computed once, when it
    enters, and kept beside it for survivor dedup, so the gene matrix, a copy
    the population owns, is read-only; so are the costs, whose order
    `best_cost` and survivor selection rely on.
    """

    __slots__ = ("genes", "costs", "_fingerprints")

    def __init__(self, genes: np.ndarray, costs: np.ndarray):
        genes = np.asarray(genes)
        if genes.ndim != 2:
            raise ValueError(f"genes must be a (size, L) matrix, got shape {genes.shape}")
        if genes.shape[0] == 0:
            raise ValueError("population cannot be empty")
        # fingerprints hash bytes and the exact fallback compares values: on
        # integers they agree, on floats not (0.0 and -0.0)
        if genes.dtype.kind not in "biu":
            raise ValueError(f"Population genes must be bool or integer, got dtype {genes.dtype}")
        costs = _checked_costs(costs, genes.shape[0])
        order = costs.argsort(kind="stable")
        self.genes, self.costs = genes[order], costs[order]
        self.genes.flags.writeable = self.costs.flags.writeable = False
        self._fingerprints = _row_fingerprints(self.genes)

    @classmethod
    def _kept(cls, genes: np.ndarray, costs: np.ndarray, fingerprints: np.ndarray) -> "Population":
        """Rows already sorted and checked, with their fingerprints carried over."""
        pop = cls.__new__(cls)
        pop.genes, pop.costs, pop._fingerprints = genes, costs, fingerprints
        genes.flags.writeable = costs.flags.writeable = False
        return pop

    def __len__(self) -> int:
        return self.genes.shape[0]

    @property
    def best_cost(self) -> float:
        return float(self.costs[0])

    def select_survivors(self, offspring_genes: np.ndarray,
                         offspring_costs: np.ndarray) -> "Population":
        """Elitist truncation of parents + offspring back to the population size.

        The stable sort with parents listed first realizes the tie-break:
        incumbents beat equal-cost offspring, earlier insertions beat later.
        Duplicate genomes are suppressed while distinct ones are available,
        so selection pressure cannot collapse the pool into copies of one
        solution; duplicates fill the remainder only in tiny domains.
        Distinctness is exact genome equality (`_first_in_cost_order`); only
        the offspring are fingerprinted, since parents keep theirs. Offspring
        come as an (m, L) matrix in the population's dtype, since
        fingerprints hash row bytes, and m costs, taken as finite (a fit
        checks them as the problem returns them).
        """
        offspring_costs = np.asarray(offspring_costs, dtype=np.float64)
        shape, loci = offspring_genes.shape, self.genes.shape[1]
        if offspring_genes.dtype != self.genes.dtype:
            raise ValueError(f"Population of dtype {self.genes.dtype}: offspring_genes "
                             f"of dtype {offspring_genes.dtype}")
        if shape[1:] != (loci,) or offspring_costs.shape != shape[:1]:
            raise ValueError(f"Population of {loci} loci: offspring genes of shape {shape} "
                             f"and costs of shape {offspring_costs.shape} do not match")
        if shape[0] == 0:
            return self
        size = len(self)
        genes = np.concatenate([self.genes, offspring_genes])
        costs = np.concatenate([self.costs, offspring_costs])
        order = costs.argsort(kind="stable")
        prints = np.concatenate([self._fingerprints, _row_fingerprints(offspring_genes)])

        # ranks index the cost order; only the kept rows are ever gathered
        is_first = _first_in_cost_order(genes, order, prints)
        first_ranks = is_first.nonzero()[0]
        if first_ranks.size >= size:
            keep = first_ranks[:size]
        else:
            duplicates = (~is_first).nonzero()[0][: size - first_ranks.size]
            keep = np.sort(np.concatenate([first_ranks, duplicates]))
        rows = order[keep]
        return Population._kept(genes.take(rows, axis=0), costs[rows], prints[rows])


def _first_in_cost_order(genes: np.ndarray, order: np.ndarray,
                         prints: np.ndarray) -> np.ndarray:
    """Bool mask over the ranks of `order`: True where the row at that rank
    is the first of its genome in cost order.

    A stable argsort of the fingerprints in rank order puts equal rows next
    to each other, lowest rank first. Checking the genes of every neighbour
    pair with equal fingerprints for equal bytes makes the grouping exact;
    a collision (one pair differs) takes `_exact_first_in_cost_order`.
    """
    ranked = prints[order]
    by_print = ranked.argsort(kind="stable")
    sorted_prints = ranked[by_print]
    repeat = sorted_prints[1:] == sorted_prints[:-1]
    is_first = np.ones(order.size, dtype=bool)
    if repeat.any():
        rows = order[by_print]
        if (genes.take(rows[:-1][repeat], axis=0).tobytes()
                != genes.take(rows[1:][repeat], axis=0).tobytes()):
            return _exact_first_in_cost_order(genes, order)
        is_first[by_print[1:][repeat]] = False
    return is_first


def _exact_first_in_cost_order(genes: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`_first_in_cost_order` by `np.unique` on the rows in cost order, each
    read as one void scalar of its bytes (exact on bool and integer genes).
    It sorts stably when asked for indices: each genome's index is its first rank."""
    rows = genes.take(order, axis=0)
    is_first = np.zeros(order.size, dtype=bool)
    is_first[np.unique(rows.view((np.void, rows.strides[0])).ravel(), return_index=True)[1]] = True
    return is_first


def _row_fingerprints(genes: np.ndarray) -> np.ndarray:
    """One uint64 fingerprint per row of bytes; equal rows get equal ones.

    Each row's bytes, zero-padded to whole 4-byte words, are read as uint32
    words and summed with one fixed odd 64-bit multiplier per word, modulo
    2**64: one integer matmul. Rows that differ in one word never collide,
    since an odd multiplier of a nonzero difference below 2**32 is never
    0 modulo 2**64. (With 64-bit words, two rows differing only in the top
    byte of two words collide whenever the two multipliers agree in their
    low 8 bits.) Distinct rows can still collide, so callers check equal
    fingerprints against the genes.
    """
    data = np.ascontiguousarray(genes).view(np.uint8)
    rows, width = data.shape
    words = -(-width // 4)
    if width % 4:
        padded = np.zeros((rows, 4 * words), dtype=np.uint8)
        padded[:, :width] = data
        data = padded
    return data.view(np.uint32) @ _fingerprint_multipliers(words)


@functools.lru_cache(maxsize=16)
def _fingerprint_multipliers(words: int) -> np.ndarray:
    """The fixed odd uint64 multipliers for rows of `words` 4-byte words."""
    table = np.random.default_rng(words).integers(0, 2**64, size=words, dtype=np.uint64)
    table |= np.uint64(1)
    table.flags.writeable = False
    return table


def _checked_costs(costs, rows: int, problem=None) -> np.ndarray:
    """`costs` as float64, when they are one finite cost for each of `rows`
    genomes; otherwise a ValueError that names the problem that returned them
    (or the population, given no problem) and the offending row."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape == (rows,) and np.isfinite(costs).all():
        return costs
    source = ("Population" if problem is None
              else f"problem {problem.name!r} ({type(problem).__name__}) evaluate_batch")
    if costs.shape != (rows,):
        detail = ""
        if costs.ndim == 1:
            detail = (f": row {costs.size} has no cost" if costs.size < rows
                      else f": costs from row {rows} on match no genome")
        raise ValueError(f"{source}: costs of shape {costs.shape} for {rows} genomes{detail}")
    row = int(np.argmin(np.isfinite(costs)))
    raise ValueError(f"{source}: non-finite cost {costs[row]} for row {row}; "
                     f"all costs must be finite")


def init_population(problem, size: int, rng: np.random.Generator) -> Population:
    """Uniform random population, evaluated and sorted."""
    if size < 2:
        raise ValueError(f"population size must be >= 2, got {size}")
    genes = problem.domain().sample_batch(rng, size)
    return Population(genes, _checked_costs(problem.evaluate_batch(genes), size, problem))


def rank_weight_cumsum(size: int) -> np.ndarray:
    """Cumulative rank weights (best rank weighs `size`, worst weighs 1)."""
    return np.cumsum(np.arange(size, 0, -1, dtype=np.float64))


def roulette_indices(cumulative: np.ndarray, draws: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Rank-based roulette wheel over a sorted population, given its
    `rank_weight_cumsum` table: each draw picks index i with probability
    (size - i) / sum of weights, where size is the table's length."""
    if cumulative.size < 1:
        raise ValueError("cannot select from an empty population")
    points = rng.random(draws)
    points *= cumulative[-1]
    return cumulative.searchsorted(points, side="right")
