"""Deterministic random-stream plumbing for reproducible multi-run experiments.

Every run owns two independent PCG64 streams spawned from its seed: one for
the evolutionary operators and one for the per-iteration scenario scheduler.
Keeping the scheduler draw out of the operator stream is what makes a
single-scenario schedule replay the exact operator randomness of the
corresponding fixed-scenario variant.
"""

from __future__ import annotations

import numpy as np


def split_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Spawn the operator and scheduler streams of one run from its seed."""
    operators, scheduler = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(operators), np.random.default_rng(scheduler)


def derive_run_seed(base_seed: int, variant_id: int, run_index: int) -> int:
    """Mix (base seed, variant, run) into one 64-bit run seed.

    The spawn-key mixing guarantees that adding a variant or extending the run
    count never perturbs the streams of existing (variant, run) cells.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=(variant_id, run_index))
    return int(ss.generate_state(1, np.uint64)[0])
