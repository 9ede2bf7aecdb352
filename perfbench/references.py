"""Costs computed from the raw instance data, independently of the solver.

The benchmark checks the solver's answers against these functions and scores
solution quality against the reference costs, so nothing here calls into
`gea` beyond reading the instance records the problems were built from.
"""

from __future__ import annotations

import math

import numpy as np

# largest routing instance whose optimum is computed exactly
EXACT_MAX_CUSTOMERS = 8


def routing_cost(depot, customers, genes) -> float:
    """Total length of the routes a giant-tour genome encodes.

    Symbols 1..n are customers; larger symbols are separators that end one
    depot-anchored route and start the next.
    """
    n = len(customers)
    total = 0.0
    here = depot
    for symbol in genes:
        symbol = int(symbol)
        there = depot if symbol > n else customers[symbol - 1]
        total += math.dist(here, there)
        here = there
    return total + math.dist(here, depot)


def knapsack_cost(weights, values, capacity, genes) -> float:
    """Penalised minimisation cost: value left out, or total value plus excess weight."""
    total_value = sum(values)
    weight = sum(w for w, g in zip(weights, genes) if g)
    if weight > capacity:
        return total_value + (weight - capacity)
    return total_value - sum(v for v, g in zip(values, genes) if g)


def sweep_cost(depot, customers, n_vehicles: int) -> float:
    """Sweep construction: customers sorted by angle around the depot, cut into
    `n_vehicles` consecutive groups whose sizes differ by at most one, each
    group driven in angle order from and back to the depot."""
    dx, dy = depot
    order = sorted(range(len(customers)),
                   key=lambda i: math.atan2(customers[i][1] - dy, customers[i][0] - dx))
    n = len(order)
    total = 0.0
    for group in range(n_vehicles):
        here = depot
        for i in order[group * n // n_vehicles:(group + 1) * n // n_vehicles]:
            total += math.dist(here, customers[i])
            here = customers[i]
        total += math.dist(here, depot)
    return total


def exact_routing_cost(depot, customers, n_vehicles: int) -> float:
    """Optimum of the uncapacitated fixed-fleet problem by exhaustive subset DP.

    Held-Karp gives the shortest depot tour through every customer subset;
    a second pass splits the full set into at most `n_vehicles` such tours
    (empty routes are allowed and cost nothing).
    """
    n = len(customers)
    if n > EXACT_MAX_CUSTOMERS:
        raise ValueError(f"exact routing reference limited to {EXACT_MAX_CUSTOMERS} customers")
    points = [depot, *customers]
    d = [[math.dist(a, b) for b in points] for a in points]
    full = 1 << n
    # path[mask][j]: shortest walk from the depot through all of mask, ending at customer j
    path = [[math.inf] * n for _ in range(full)]
    for j in range(n):
        path[1 << j][j] = d[0][j + 1]
    for mask in range(1, full):
        for j in range(n):
            here = path[mask][j]
            if here == math.inf:
                continue
            for k in range(n):
                if mask >> k & 1:
                    continue
                step = here + d[j + 1][k + 1]
                if step < path[mask | 1 << k][k]:
                    path[mask | 1 << k][k] = step
    tour = [0.0] + [min(path[mask][j] + d[j + 1][0] for j in range(n) if mask >> j & 1)
                    for mask in range(1, full)]

    best = tour[:]  # best[mask]: cheapest cover of mask by the routes allowed so far
    for _ in range(n_vehicles - 1):
        widened = best[:]
        for mask in range(1, full):
            lowest = mask & -mask
            sub = mask
            while sub:
                if sub & lowest:  # the route holding the lowest customer
                    cost = tour[sub] + best[mask ^ sub]
                    if cost < widened[mask]:
                        widened[mask] = cost
                sub = (sub - 1) & mask
        best = widened
    return best[full - 1]


def knapsack_optimum(weights, values, capacity) -> float:
    """Exact best selected value by dynamic programming over integer capacities."""
    cap = int(math.floor(capacity))
    best = np.zeros(cap + 1, dtype=np.int64)
    for w, v in zip(weights, values):
        if w != int(w) or v != int(v):
            raise ValueError("knapsack reference needs integer weights and values")
        w, v = int(w), int(v)
        if w > cap:
            continue
        previous = best.copy()
        best[w:] = np.maximum(previous[w:], previous[:-w] + v)
    return float(best[cap])


def reference_cost(problem) -> tuple[float, bool]:
    """(reference cost, whether it is the exact optimum) for a routing or knapsack problem."""
    inst = problem.instance
    if hasattr(inst, "capacity"):
        return sum(inst.values) - knapsack_optimum(inst.weights, inst.values, inst.capacity), True
    if inst.n_customers <= EXACT_MAX_CUSTOMERS:
        return exact_routing_cost(inst.depot, inst.customers, inst.n_vehicles), True
    return sweep_cost(inst.depot, inst.customers, inst.n_vehicles), False


def recomputed_cost(problem, genes) -> float:
    inst = problem.instance
    if hasattr(inst, "capacity"):
        return knapsack_cost(inst.weights, inst.values, inst.capacity, genes)
    return routing_cost(inst.depot, inst.customers, genes)
