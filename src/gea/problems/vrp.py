"""Fixed-fleet Euclidean vehicle routing on a giant-tour genome.

A solution is one permutation of the customer symbols 1..n plus K-1 separator
symbols n+1..n+K-1. Separators split the sequence into K consecutive (possibly
empty) segments; vehicle k drives depot -> segment k -> depot. The objective
is total Euclidean distance; empty segments cost nothing. The fleet is
uncapacitated, so feasibility never constrains the search.

Because of that, and because legs obey the triangle inequality, some optimum
is a single depot tour with the other K-1 routes empty: joining one route's
end to the next route's start never costs more than returning to the depot
between them. The exact oracle `vrp_dp_optimum` is therefore a travelling
salesman DP. The solver still searches every separator placement, as the
paper encodes the problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..genome import GeneDomain, Genome, _check_int
from .base import Problem, _check_instance, _check_name

# the Held-Karp table is 2^n x n float64: 3.9 MB at 15 customers
DP_MAX_CUSTOMERS = 15

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

    def __post_init__(self) -> None:
        _check_name(self.name)
        if not self.customers:
            raise ValueError("instance needs at least one customer")
        _check_int("n_vehicles", self.n_vehicles, 1)
        points = np.vstack([_coordinates("depot", self.depot, 1, "two numbers"),
                            _coordinates("customers", self.customers, 2, "(x, y) pairs")])
        if self.n_vehicles > len(self.customers):
            raise ValueError(
                f"need 1 <= vehicles <= customers, got K={self.n_vehicles}, "
                f"n={len(self.customers)}"
            )
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if bad.size:
            named = [f"depot {self.depot}" if i == 0 else f"customer {i} {self.customers[i - 1]}"
                     for i in bad]
            raise ValueError(f"coordinates must be finite, got {', '.join(named)}")

    @property
    def n_customers(self) -> int:
        return len(self.customers)


def _coordinates(label: str, value, ndim: int, expected: str) -> np.ndarray:
    """`value` as a float64 array of `ndim` dimensions whose last has length 2,
    or a ValueError that names `label` and the `expected` form. Numbers only:
    a float64 conversion would also read the string '1'."""
    try:
        array = np.array(value)
    except (TypeError, ValueError):
        array = None
    if (array is None or array.dtype.kind not in "iuf" or array.ndim != ndim
            or array.shape[-1] != 2):
        raise ValueError(f"{label} must be {expected}, got {value!r:.80}")
    return array.astype(np.float64)


class VehicleRouting(Problem):
    def __init__(self, instance: VrpInstance):
        self.instance = _check_instance(instance, VrpInstance)
        self.name = instance.name
        self._domain = GeneDomain.permutation(instance.n_customers,
                                              instance.n_vehicles - 1)
        # legs between genome symbols: 0 is the depot that frames each row,
        # 1..n the customers, and the separators n+1..L copies of the depot
        points = np.array([instance.depot, *instance.customers,
                           *[instance.depot] * (instance.n_vehicles - 1)], dtype=np.float64)
        delta = points[:, None, :] - points[None, :, :]
        self._legs = np.hypot(delta[..., 0], delta[..., 1])
        self._index_type = np.min_scalar_type(self._legs.size - 1)

    def domain(self) -> GeneDomain:
        return self._domain

    def evaluate_batch(self, genomes: np.ndarray) -> np.ndarray:
        """Total route length of each row.

        Each row, framed by symbol 0, is a path of L+2 symbols whose L+1 legs
        are read from the leg table with one `take` of the flat indices
        from * (L+1) + to, in the narrowest unsigned type holding (L+1)^2 - 1.
        The legs and row sums equal those of a 2-D node-distance index, so
        costs are bit-equal to it. A symbol outside 1..L is a ValueError,
        checked in the genes' own dtype, before the cast could wrap it.
        """
        m, length = genomes.shape
        if m and (np.minimum.reduce(genomes, axis=None) < 1
                  or np.maximum.reduce(genomes, axis=None) > length):
            row, locus = np.argwhere((genomes < 1) | (genomes > length))[0]
            raise ValueError(f"row {row} holds symbol {genomes[row, locus]}, "
                             f"outside 1..{length}")
        path = np.zeros((m, length + 2), dtype=self._index_type)
        path[:, 1:-1] = genomes
        return np.add.reduce(self._legs.take(path[:, :-1] * (length + 1) + path[:, 1:]), axis=1)


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

def vrp_dp_optimum(instance: VrpInstance) -> tuple[float, Genome]:
    """Global optimum by Held-Karp dynamic programming; limited to small instances.

    Some optimum is one depot tour: the fleet is uncapacitated and legs are
    Euclidean, so by the triangle inequality joining a route's last customer b
    to the next route's first customer c, d(b, c) <= d(b, 0) + d(0, c), never
    costs more. `best[S, j]` is the shortest path from the depot through the
    customer set S that ends at customer j, filled in order of |S|. Distances
    are taken from the coordinates, independent of the evaluate path. Returns
    the cost and a genome: the tour's customers, then the K-1 separators.
    O(2^n n^2) time over a 2^n x n table, refused beyond `DP_MAX_CUSTOMERS`.
    """
    instance = _check_instance(instance, VrpInstance)
    n = instance.n_customers
    if n > DP_MAX_CUSTOMERS:
        raise ValueError(f"dp oracle limited to {DP_MAX_CUSTOMERS} customers, got {n}")
    points = [instance.depot, *instance.customers]
    dist = np.array([[math.hypot(ax - bx, ay - by) for bx, by in points] for ax, ay in points])
    legs = dist[1:, 1:]

    subsets = np.arange(1 << n)
    member = (subsets[:, None] >> np.arange(n)) & 1
    best = np.full((1 << n, n), np.inf)
    best[1 << np.arange(n), np.arange(n)] = dist[0, 1:]
    for size in range(2, n + 1):
        sized = subsets[member.sum(axis=1) == size]
        for j in range(n):
            ending = sized[member[sized, j] == 1]
            best[ending, j] = (best[ending ^ (1 << j)] + legs[:, j]).min(axis=1)

    # walk back from the full set: the tour reversed, last customer first
    subset, j = (1 << n) - 1, int(np.argmin(best[-1] + dist[1:, 0]))
    cost = float(best[-1, j] + dist[j + 1, 0])
    tour = [j + 1]
    while subset != 1 << j:
        subset ^= 1 << j
        j = int(np.argmin(best[subset] + legs[:, j]))
        tour.append(j + 1)
    genes = tour[::-1] + list(range(n + 1, n + instance.n_vehicles))
    return cost, GeneDomain.permutation(n, instance.n_vehicles - 1).validate(genes)


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
