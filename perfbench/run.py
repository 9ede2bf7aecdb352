"""Solver benchmark for the `gea` package: fit latency, generation throughput
and solution quality, with a traced per-layer mode.

    python3 perfbench/run.py --workload routing-protocol --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from `src/`. The run
repeats whole rounds of the workload's fits for about `--seconds`, checks every
answer against the benchmark's own references, and prints one JSON object as
its last line: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`. Exit status: 0 when every check passes,
1 when one fails, 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_FITS = 40        # fits a run makes at least ...
TAIL_ABOVE = 10      # ... so that its tail percentile has this many fits above it
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics `BENCHMARK.json` declares for this mode, in its order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cap_threads() -> None:
    """Cap numeric-library threads at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


@dataclass
class Round:
    seconds: float
    records: list
    reports: dict | None  # None when the round raised
    error: str = ""


def run_rounds(workload, problems, seed: int, log, seconds: float,
               min_rounds: int) -> list[Round]:
    """Whole rounds until the next one would end nearer past `seconds` than short of it."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        first = len(log.records)
        t0 = time.perf_counter()
        error = ""
        try:
            reports = workload.run_round(problems, seed)
        except Exception as err:  # noqa: BLE001 - a failed round is counted, the run goes on
            traceback.print_exc()
            reports, error = None, f"{type(err).__name__}: {err}"
        t1 = time.perf_counter()
        rounds.append(Round(t1 - t0, log.records[first:], reports, error))
        elapsed = t1 - start
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing gea and building the problems."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(records, references: dict[str, float], min_fits: int) -> dict[str, float]:
    durations = sorted(r.end - r.start for r in records)
    n = len(durations)
    # nearest rank with n * TAIL_ABOVE / min_fits fits above it (TAIL_ABOVE at n == min_fits)
    tail_index = n - 1 - (-(-n * TAIL_ABOVE // min_fits))
    costs: dict[str, list[float]] = {}
    for rec in records:
        costs.setdefault(rec.problem.name, []).append(rec.cost)
    return {
        "fit_p50_s": statistics.median(durations),
        "fit_tail_s": durations[tail_index],
        "generations_per_s": sum(r.n_iters for r in records)
        / (max(r.end for r in records) - min(r.start for r in records)),
        "cost_ratio": statistics.fmean(statistics.fmean(c) / references[name]
                                       for name, c in costs.items()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gea" / "__init__.py").is_file():
        print(f"error: no gea package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    cap_threads()
    sys.path.insert(0, str(SRC))
    # imported here: numpy must load after the thread caps are set
    import checks
    import references
    import tracing
    import workloads

    if Path(workloads.gea.__file__).resolve().parent != SRC / "gea":
        print(f"error: gea was imported from {workloads.gea.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    failures = checks.self_test()
    problems = workload.build(args.seed)
    refs = {p.name: references.reference_cost(p) for p in problems}
    exact = {name: cost for name, (cost, is_exact) in refs.items() if is_exact}
    setup_s = None if args.trace else measure_setup(workload.name, args.seed)

    per_round = workload.fits_per_round(len(problems))
    min_rounds = -(-MIN_FITS // per_round)
    log = workloads.FitLog()
    log.install()
    try:
        if args.trace:
            untraced = run_rounds(workload, problems, args.seed, log, 0.0, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rounds(workload, problems, args.seed, log,
                                    args.seconds - untraced[0].seconds, 1)
            finally:
                tracer.uninstall()
            rounds = untraced + traced
        else:
            rounds = run_rounds(workload, problems, args.seed, log, args.seconds, min_rounds)
    finally:
        log.uninstall()

    # a round that raised leaves its fits unverified: its reports are missing
    failed = per_round * sum(r.reports is None for r in rounds)
    failures += [f"round {i} raised {r.error}" for i, r in enumerate(rounds)
                 if r.reports is None]
    try:
        for r in rounds:
            if r.reports is None:
                for rec in r.records:
                    checks.check_fit(rec, exact.get(rec.problem.name))
            else:
                checks.verify_round(workload, r.records, r.reports, exact)
        if log.records:
            checks.check_repeatable(log.records)
    except checks.CheckFailed as err:
        failures.append(str(err))

    if args.trace:
        metrics = tracer.per_layer(len(traced))
        # the baseline is the one untraced round made first in this process
        traced_round = statistics.fmean(r.seconds for r in traced)
        metrics["trace.overhead_ratio"] = traced_round / untraced[0].seconds - 1.0
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{workload.name}-seed{args.seed}.npz")
        print(tracer.table(), file=sys.stderr)
    elif log.records:
        metrics = end_to_end(log.records, {n: c for n, (c, _) in refs.items()},
                             min_rounds * per_round)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        metrics = {}
    if metrics and set(metrics) != set(units):
        failures.append(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                        "measured and declared in BENCHMARK.json")
    metrics = {name: metrics[name] for name in units if name in metrics}

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<48} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": per_round * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
