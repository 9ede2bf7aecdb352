"""Cost-sorted populations and selection primitives."""

from __future__ import annotations

import numpy as np


class Population:
    """Fixed-size pool of evaluated genomes, kept sorted by ascending cost.

    A (size, L) gene matrix, kept in the dtype it is given (the domain's
    `GeneDomain.dtype` in a fit), plus a cost vector; row i is the i-th best
    genome. Costs are checked to be one finite number per row and sorted,
    unless `presorted` says they already are: checked float64, ascending.
    """

    __slots__ = ("genes", "costs")

    def __init__(self, genes: np.ndarray, costs: np.ndarray, presorted: bool = False):
        genes = np.asarray(genes)
        if genes.ndim != 2:
            raise ValueError(f"genes must be a (size, L) matrix, got shape {genes.shape}")
        if genes.shape[0] == 0:
            raise ValueError("population cannot be empty")
        if not presorted:
            costs = _checked_costs(costs, genes.shape[0])
            order = np.argsort(costs, kind="stable")
            genes, costs = genes[order], costs[order]
        self.genes = genes
        self.costs = costs

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
        Distinctness is exact genome equality, checked on the compact
        per-row key of `row_keys`. Offspring costs are taken as checked
        (a fit checks them as the problem returns them).
        """
        if offspring_genes.shape[0] == 0:
            return self
        genes = np.concatenate([self.genes, offspring_genes])
        costs = np.concatenate([self.costs, np.asarray(offspring_costs, dtype=np.float64)])
        order = np.argsort(costs, kind="stable")

        # ranks index the cost order; only the kept rows are ever gathered
        size = len(self)
        first_ranks = np.unique(row_keys(genes)[order], return_index=True)[1]
        if first_ranks.size >= size:
            keep = np.sort(first_ranks)[:size]
        else:
            is_first = np.zeros(order.size, dtype=bool)
            is_first[first_ranks] = True
            duplicates = np.flatnonzero(~is_first)[: size - first_ranks.size]
            keep = np.sort(np.concatenate([np.flatnonzero(is_first), duplicates]))
        rows = order[keep]
        return Population(genes[rows], costs[rows], presorted=True)


def row_keys(genes: np.ndarray) -> np.ndarray:
    """One opaque byte key per row; two keys are equal iff their rows are.

    The key is the bytes the row is stored in (one per locus for a uint8
    matrix), or its packed bits when a uint8 matrix holds only 0 and 1.
    Sorting short keys is what makes `np.unique` cheaper than on raw rows.
    Bits are packed from a copy zero-padded to whole bytes per row, raveled
    once: the same key bytes as `np.packbits(genes, axis=1)`, which pads
    each row's last byte with zeros too, from one flat pass.
    """
    if genes.dtype == np.uint8 and genes.max() <= 1:
        rows, length = genes.shape
        padded = np.zeros((rows, -(-length // 8) * 8), dtype=np.uint8)
        padded[:, :length] = genes
        genes = np.packbits(padded.ravel()).reshape(rows, -1)
    genes = np.ascontiguousarray(genes)
    return genes.view(np.dtype((np.void, genes.dtype.itemsize * genes.shape[1]))).ravel()


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
    costs = _checked_costs(problem.evaluate_batch(genes), size, problem)
    order = np.argsort(costs, kind="stable")
    return Population(genes[order], costs[order], presorted=True)


def rank_weight_cumsum(size: int) -> np.ndarray:
    """Cumulative rank weights (best rank weighs `size`, worst weighs 1)."""
    return np.cumsum(np.arange(size, 0, -1, dtype=np.float64))


def roulette_indices(size: int, draws: int, rng: np.random.Generator,
                     cumulative: np.ndarray | None = None) -> np.ndarray:
    """Rank-based roulette wheel over a sorted population of `size`:
    each draw picks index i with probability (size - i) / sum of weights."""
    if size < 1:
        raise ValueError("cannot select from an empty population")
    if cumulative is None:
        cumulative = rank_weight_cumsum(size)
    points = rng.random(draws) * cumulative[-1]
    return np.searchsorted(cumulative, points, side="right")

