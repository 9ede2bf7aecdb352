"""Fixed-fleet Euclidean vehicle routing on a giant-tour genome.

A solution is one permutation of the customer symbols 1..n plus K-1 separator
symbols n+1..n+K-1. Separators split the sequence into K consecutive (possibly
empty) segments; vehicle k drives depot -> segment k -> depot. The objective
is total Euclidean distance; empty segments cost nothing. The fleet is
uncapacitated, so feasibility never constrains the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..genome import GeneDomain, Genome, _check_int
from .base import Problem

BRUTE_FORCE_MAX_CUSTOMERS = 8

# (name, customers, vehicles, seed) of the standard benchmark suite
SUITE_DIMENSIONS = (
    ("f1", 8, 3, 1),
    ("f2", 10, 3, 2),
    ("f3", 14, 4, 3),
    ("f4", 20, 4, 4),
    ("f5", 25, 5, 5),
    ("f6", 30, 5, 6),
)


@dataclass(frozen=True)
class VrpInstance:
    name: str
    n_vehicles: int
    depot: tuple[float, float]
    customers: tuple[tuple[float, float], ...]
    distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.customers:
            raise ValueError("instance needs at least one customer")
        _check_int("n_vehicles", self.n_vehicles, 1)
        if self.n_vehicles > len(self.customers):
            raise ValueError(
                f"need 1 <= vehicles <= customers, got K={self.n_vehicles}, "
                f"n={len(self.customers)}"
            )
        points = np.array([self.depot, *self.customers], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if bad.size:
            named = [f"depot {self.depot}" if i == 0 else f"customer {i} {self.customers[i - 1]}"
                     for i in bad]
            raise ValueError(f"coordinates must be finite, got {', '.join(named)}")
        delta = points[:, None, :] - points[None, :, :]
        object.__setattr__(self, "distances", np.hypot(delta[..., 0], delta[..., 1]))

    @property
    def n_customers(self) -> int:
        return len(self.customers)


class VehicleRouting(Problem):
    def __init__(self, instance: VrpInstance):
        self.instance = instance
        self.name = instance.name
        self._domain = GeneDomain.permutation(instance.n_customers,
                                              instance.n_vehicles - 1)
        # symbol -> distance-matrix node: customers map to themselves,
        # separators to the depot (0), so route boundaries cost depot legs
        node_of = np.zeros(self._domain.length + 1, dtype=np.int64)
        node_of[1: instance.n_customers + 1] = np.arange(1, instance.n_customers + 1)
        self._node_of = node_of

    def domain(self) -> GeneDomain:
        return self._domain

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Total route length of each row.

        Each row becomes a depot-framed node path of L+2 nodes, and its L+1
        legs are read from the raveled distance matrix with one `take` of the
        flat indices from * n + to. The (m, L+1) leg matrix and its row sums
        are the same as a 2-D distances[from, to] index would give, so costs
        are bit-equal to it.
        """
        m, length = genomes.shape
        distances = self.instance.distances
        path = np.zeros((m, length + 2), dtype=np.int64)
        path[:, 1:-1] = self._node_of.take(genomes)
        legs = path[:, :-1] * distances.shape[0] + path[:, 1:]
        return distances.ravel().take(legs).sum(axis=1)


def vrp_decode(instance: VrpInstance, genes: Genome) -> list[list[int]]:
    """Split the genome into the K per-vehicle customer sequences."""
    domain = GeneDomain.permutation(instance.n_customers, instance.n_vehicles - 1)
    genes = domain.validate(genes)
    routes: list[list[int]] = [[]]
    for symbol in genes:
        if symbol > instance.n_customers:
            routes.append([])
        else:
            routes[-1].append(int(symbol))
    return routes


def generate_instance(n_customers: int, n_vehicles: int, seed: int,
                      name: str | None = None) -> VrpInstance:
    """Seeded instance: depot at (50, 50), customers uniform on [0, 100]^2."""
    _check_int("n_customers", n_customers, 1)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 100.0, size=(n_customers, 2))
    return VrpInstance(
        name=name or f"vrp{n_customers}x{n_vehicles}s{seed}",
        n_vehicles=n_vehicles,
        depot=(50.0, 50.0),
        customers=tuple((float(x), float(y)) for x, y in coords),
    )


def standard_suite() -> list[VrpInstance]:
    return [generate_instance(n, k, seed, name=name)
            for name, n, k, seed in SUITE_DIMENSIONS]


# ---------------------------------------------------------------------------
# exact oracle

def vrp_brute_force(instance: VrpInstance) -> tuple[float, Genome]:
    """Global optimum by exhaustive enumeration; limited to small instances.

    Enumerates every customer ordering and every multiset of separator gaps
    (separator interchange and empty-segment placement collapse to identical
    route systems). Route costs are summed directly from the coordinates,
    independent of the decode/evaluate path.
    """
    n = instance.n_customers
    if n > BRUTE_FORCE_MAX_CUSTOMERS:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_MAX_CUSTOMERS} customers, got {n}"
        )
    points = [instance.depot, *instance.customers]
    dist = [[math.hypot(ax - bx, ay - by) for bx, by in points] for ax, ay in points]

    k = instance.n_vehicles
    best_cost = math.inf
    best_order: tuple[int, ...] = ()
    best_gaps: tuple[int, ...] = ()
    for order in itertools.permutations(range(1, n + 1)):
        for gaps in itertools.combinations_with_replacement(range(n + 1), k - 1):
            bounds = (0, *gaps, n)
            cost = 0.0
            for start, stop in zip(bounds[:-1], bounds[1:]):
                if start == stop:
                    continue
                prev = 0
                for c in order[start:stop]:
                    cost += dist[prev][c]
                    prev = c
                cost += dist[prev][0]
            if cost < best_cost:
                best_cost = cost
                best_order, best_gaps = order, gaps
    genes = _genome_from_split(n, best_order, best_gaps)
    return best_cost, GeneDomain.permutation(n, k - 1).validate(genes)


def _genome_from_split(n: int, order: tuple[int, ...], gaps: tuple[int, ...]) -> list[int]:
    genes: list[int] = []
    position = 0
    for sep_index, gap in enumerate(gaps):
        genes.extend(order[position:gap])
        genes.append(n + 1 + sep_index)
        position = gap
    genes.extend(order[position:])
    return genes


# ---------------------------------------------------------------------------
# instance files

def format_instance(instance: VrpInstance) -> str:
    lines = [f"NAME {instance.name}",
             f"VEHICLES {instance.n_vehicles}",
             f"DEPOT {instance.depot[0]!r} {instance.depot[1]!r}"]
    for i, (x, y) in enumerate(instance.customers, start=1):
        lines.append(f"CUSTOMER {i} {x!r} {y!r}")
    return "\n".join(lines) + "\n"


def write_instance(instance: VrpInstance, path: str | Path) -> None:
    Path(path).write_text(format_instance(instance), encoding="utf-8")


def parse_instance(text: str) -> VrpInstance:
    name: str | None = None
    vehicles: int | None = None
    depot: tuple[float, float] | None = None
    customers: dict[int, tuple[float, float]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        try:
            if tag == "NAME" and len(fields) == 2:
                name = fields[1]
            elif tag == "VEHICLES" and len(fields) == 2:
                vehicles = int(fields[1])
            elif tag == "DEPOT" and len(fields) == 3:
                depot = (float(fields[1]), float(fields[2]))
            elif tag == "CUSTOMER" and len(fields) == 4:
                cid = int(fields[1])
                if cid in customers:
                    raise ValueError(f"duplicate customer id {cid}")
                customers[cid] = (float(fields[2]), float(fields[3]))
            else:
                raise ValueError(f"malformed record {line!r}")
        except ValueError as err:
            raise ValueError(f"line {line_no}: {err}") from None

    for label, value in (("NAME", name), ("VEHICLES", vehicles), ("DEPOT", depot)):
        if value is None:
            raise ValueError(f"missing {label} record")
    if not customers:
        raise ValueError("missing CUSTOMER records")
    ids = sorted(customers)
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError(f"customer ids must be 1..n consecutive, got {ids}")
    return VrpInstance(name=name, n_vehicles=vehicles, depot=depot,
                       customers=tuple(customers[i] for i in ids))


def load_instance(path: str | Path) -> VrpInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))
