"""Paired in-process fit timing of two checkouts of gea.

    python tools/fit_pairs.py BASE_ROOT CHANGE_ROOT --grid routing-large --pairs 10

Loads each checkout's `gea` under its own module name and runs one grid of
fits with each, alternating which side goes first. Every fit's `trace_` and
`population_` must be equal on both sides. Prints each pair's round times,
the median ratio base/change (above 1: the change is faster) and the pairs
the change won. A ratio is one process's fit time, with no harness or
reports, so it complements parent/change runs of `perfbench/run.py`.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PROTOCOL = {"pop_size": 100, "crossover_rate": 0.8, "mutation_rate": 0.1,
            "scenario_weights": (0.5, 0.5, 0.2)}
# grid name -> (problems of a gea module, variants, runs, generations); the
# first three take the shapes of the benchmark workloads of the same names
GRIDS = {
    "routing-protocol": (lambda g: [g.VehicleRouting(i) for i in g.standard_suite()],
                         ("ga", "gea1", "gea2", "gea3", "gea"), 2, 250),
    "routing-large": (lambda g: [g.VehicleRouting(g.generate_instance(n, n // 20, 1))
                                 for n in (150, 175, 200)], ("ga", "gea"), 2, 100),
    "knapsack-long": (lambda g: [g.Knapsack(g.generate_knapsack_instance(n, 2))
                                 for n in (250, 300)], ("ga", "gea"), 3, 150),
    "small": (lambda g: [g.VehicleRouting(g.standard_suite()[0]),
                         g.Knapsack(g.generate_knapsack_instance(20, 1))], ("ga", "gea"), 1, 30),
}


def load(root: str, alias: str):
    """The `gea` package under `root/src`, imported as the module `alias`."""
    package = Path(root, "src", "gea")
    spec = importlib.util.spec_from_file_location(alias, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def round_of_fits(gea, grid: str) -> tuple[float, list]:
    """Seconds for one round of the grid's fits, and each fit's trace and genes."""
    build, variants, runs, iters = GRIDS[grid]
    problems, fits = build(gea), []
    start = time.perf_counter()
    for problem in problems:
        for variant in variants:
            for seed in range(runs):
                solver = gea.GeaSolver(variant=variant, max_iters=iters, seed=seed, **PROTOCOL)
                fits.append(solver.fit(problem))
    return time.perf_counter() - start, [(fit.trace_, fit.population_.genes) for fit in fits]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--grid", choices=sorted(GRIDS), default="small")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"base": load(args.base, "gea_base"), "change": load(args.change, "gea_change")}
    ratios = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        rounds = {side: round_of_fits(sides[side], args.grid) for side in order}
        for base_fit, change_fit in zip(rounds["base"][1], rounds["change"][1]):
            if not all(map(np.array_equal, base_fit, change_fit)):
                sys.exit(f"pair {pair}: a fit's trace or population differs between checkouts")
        ratios.append(rounds["base"][0] / rounds["change"][0])
        print(f"pair {pair}: base {rounds['base'][0]:.3f} s, change {rounds['change'][0]:.3f} s")
    wins = sum(ratio > 1 for ratio in ratios)
    print(f"{args.grid}: median ratio base/change {statistics.median(ratios):.3f}, "
          f"change faster in {wins} of {len(ratios)} pairs")


if __name__ == "__main__":
    main()
