"""Bit-identity of whole fits: one SHA-256 per fit over everything a fit returns.

`fit_digests.json` holds the digest of every fit in the grid below. A change
that must not alter fits (a faster kernel, a refactor) has to pass this test
with the committed digests unchanged. A change that alters fits on purpose
regenerates them with

    PYTHONPATH=src python tests/test_fit_digest.py

and says why they changed. NumPy's random streams may differ between NumPy
versions; the file records the version the digests were made with, and a
failure names both versions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from gea import VARIANTS, GeaSolver
from gea.problems import (Knapsack, OneMax, VehicleRouting, generate_instance,
                          generate_knapsack_instance, standard_suite)

DIGESTS = Path(__file__).with_name("fit_digests.json")
GENERATIONS = 120
SEED = 3
SETTINGS = {
    "default": {},
    "tuned": dict(scenario_weights=(0.3, 0.9, 0.6), pop_size=30, elite_fraction=0.3,
                  threshold_fraction=0.7, mutation_rate=0.3),
}


def grid_problems():
    suite = {inst.name: inst for inst in standard_suite()}
    return [
        (VehicleRouting(suite["f1"]), SETTINGS),
        (VehicleRouting(suite["f4"]), SETTINGS),
        (VehicleRouting(suite["f6"]), SETTINGS),
        (VehicleRouting(generate_instance(150, 8, 1)), SETTINGS),
        (Knapsack(generate_knapsack_instance(15, 1)), SETTINGS),
        (Knapsack(generate_knapsack_instance(250, 1)), SETTINGS),
        (OneMax(40), SETTINGS),
        # 261 symbols: two-byte genes
        (VehicleRouting(generate_instance(260, 5, 1)), {"default": SETTINGS["default"]}),
    ]


def fit_digest(solver: GeaSolver) -> str:
    h = hashlib.sha256()
    for array in (solver.trace_.astype("<f8"), solver.best_genes_.astype("<i8"),
                  solver.population_.genes.astype("<i8"),
                  solver.population_.costs.astype("<f8")):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def grid_digests() -> dict[str, str]:
    digests = {}
    for problem, settings in grid_problems():
        for setting, params in settings.items():
            for variant in VARIANTS:
                solver = GeaSolver(variant=variant, max_iters=GENERATIONS, seed=SEED, **params)
                digests[f"{problem.name}/{setting}/{variant}"] = fit_digest(solver.fit(problem))
    return digests


def test_fits_match_committed_digests():
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = grid_digests()
    assert digests.keys() == committed["fits"].keys()
    changed = [key for key, digest in digests.items() if digest != committed["fits"][key]]
    assert not changed, (f"{len(changed)} of {len(digests)} fits changed: {changed} "
                         f"(digests made with NumPy {committed['numpy']}, "
                         f"running NumPy {np.__version__})")


if __name__ == "__main__":
    record = {"numpy": np.__version__, "generations": GENERATIONS, "seed": SEED,
              "fits": grid_digests()}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record['fits'])} digests to {DIGESTS}")
