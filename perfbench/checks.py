"""Output checks, computed by the benchmark's own code from the raw inputs.

Each `check_*` function raises `CheckFailed` on a wrong answer. `verify_round`
applies all of them to the fits and reports of one round; `self_test` feeds
them corrupted results and confirms that every corruption is caught.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import replace

import numpy as np

import gea
from references import exact_routing_cost, knapsack_optimum, recomputed_cost
from workloads import PROTOCOL, FitRecord

RELATIVE_TOLERANCE = 1e-9
# reports print costs with four decimals
REPORT_TOLERANCE = 0.5e-4 + 1e-9


class CheckFailed(AssertionError):
    pass


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(1.0, abs(b))


def check_genome(problem, genes) -> None:
    inst = problem.instance
    genes = [int(g) for g in genes]
    if hasattr(inst, "capacity"):
        if len(genes) != inst.n_items or any(g not in (0, 1) for g in genes):
            raise CheckFailed(f"{problem.name}: genome is not a 0/1 vector of {inst.n_items}")
        return
    length = inst.n_customers + inst.n_vehicles - 1
    if sorted(genes) != list(range(1, length + 1)):
        raise CheckFailed(f"{problem.name}: genome symbols are not exactly 1..{length}")


def check_cost(problem, genes, cost: float) -> None:
    expected = recomputed_cost(problem, genes)
    if not _close(cost, expected):
        raise CheckFailed(f"{problem.name}: best_cost_ {cost!r} != recomputed {expected!r}")


def check_trace(trace, max_iters: int, cost: float) -> None:
    trace = np.asarray(trace)
    if trace.shape != (max_iters,):
        raise CheckFailed(f"trace has shape {trace.shape}, expected ({max_iters},)")
    if max_iters and (np.any(np.diff(trace) > 0) or trace[-1] != cost):
        raise CheckFailed("trace increases or does not end at best_cost_")


def check_not_below(problem, cost: float, optimum: float) -> None:
    if cost < optimum - RELATIVE_TOLERANCE * max(1.0, abs(optimum)):
        raise CheckFailed(f"{problem.name}: cost {cost!r} beats the exact optimum {optimum!r}")


def check_fit(rec: FitRecord, exact: float | None) -> None:
    check_genome(rec.problem, rec.genes)
    check_cost(rec.problem, rec.genes, rec.cost)
    check_trace(rec.trace, rec.max_iters, rec.cost)
    if rec.n_iters != rec.max_iters:
        raise CheckFailed(f"n_iters_ {rec.n_iters} != max_iters {rec.max_iters}")
    if exact is not None:
        check_not_below(rec.problem, rec.cost, exact)


def check_results_csv(text: str, records: list[FitRecord]) -> None:
    """Each row equals best/worst/mean/std recomputed from that cell's run costs."""
    cells: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        cells.setdefault((rec.variant, rec.problem.name), []).append(rec.cost)
    rows = list(csv.DictReader(io.StringIO(text)))
    if sorted((r["algorithm"], r["instance"]) for r in rows) != sorted(cells):
        raise CheckFailed("results.csv rows do not match the cells that ran")
    for row in rows:
        costs = cells[(row["algorithm"], row["instance"])]
        expected = {"best": min(costs), "worst": max(costs), "mean": statistics.fmean(costs),
                    "std": statistics.stdev(costs) if len(costs) > 1 else 0.0}
        for key, value in expected.items():
            if abs(float(row[key]) - value) > REPORT_TOLERANCE * max(1.0, abs(value)):
                raise CheckFailed(f"results.csv {row['algorithm']}/{row['instance']} "
                                  f"{key}={row[key]}, recomputed {value:.6f}")


def check_convergence_csv(text: str, n_cells: int, runs: int, iters: int) -> None:
    rows = text.count("\n") - 1  # header
    if rows != n_cells * runs * iters:
        raise CheckFailed(f"convergence.csv has {rows} rows, expected "
                          f"{n_cells} cells x {runs} runs x {iters} iterations")


def verify_round(workload, records: list[FitRecord], reports: dict[str, str],
                 exact: dict[str, float]) -> None:
    for rec in records:
        check_fit(rec, exact.get(rec.problem.name))
    check_results_csv(reports["results.csv"], records)
    if "convergence.csv" in reports:
        n_cells = len({(r.variant, r.problem.name) for r in records})
        check_convergence_csv(reports["convergence.csv"], n_cells, workload.runs,
                              workload.max_iters)


def check_repeatable(records: list[FitRecord]) -> None:
    """Fits of one cell and seed agree across rounds, and a fresh re-fit agrees too."""
    first: dict[tuple, FitRecord] = {}
    for rec in records:
        key = (rec.variant, rec.problem.name, rec.seed)
        seen = first.setdefault(key, rec)
        if seen.cost != rec.cost or not np.array_equal(seen.genes, rec.genes):
            raise CheckFailed(f"{key}: two fits with one seed disagree")
    rec = records[0]
    refit = gea.GeaSolver(variant=rec.variant, seed=rec.seed, max_iters=rec.max_iters,
                          **PROTOCOL).fit(rec.problem)
    if refit.best_cost_ != rec.cost or not np.array_equal(refit.best_genes_, rec.genes):
        raise CheckFailed(f"re-fit of {rec.variant}/{rec.problem.name} seed {rec.seed} "
                          f"gave {refit.best_cost_!r}, first fit {rec.cost!r}")


# ---------------------------------------------------------------------------
# self-test

def _tiny_record(problem, variant: str, seed: int, max_iters: int = 20) -> FitRecord:
    solver = gea.GeaSolver(variant=variant, seed=seed, max_iters=max_iters,
                           **PROTOCOL).fit(problem)
    return FitRecord(variant, problem, seed, max_iters, 0.0, 0.0, solver.best_genes_,
                     solver.best_cost_, solver.trace_, solver.n_iters_)


def _results_csv(records: list[FitRecord]) -> str:
    lines = ["algorithm,instance,best,worst,mean,std"]
    for rec in records:
        lines.append(f"{rec.variant},{rec.problem.name},{rec.cost:.4f},{rec.cost:.4f},"
                     f"{rec.cost:.4f},0.0000")
    return "\n".join(lines) + "\n"


def self_test() -> list[str]:
    """Run every check on a correct result and on corrupted copies of it.

    Returns the list of mistakes: a correct result rejected, or a corrupted
    one accepted. Empty means the checks work.
    """
    rng = np.random.default_rng(7)
    routing = gea.VehicleRouting(gea.VrpInstance(
        name="selftest-vrp", n_vehicles=2, depot=(50.0, 50.0),
        customers=tuple(map(tuple, rng.uniform(0, 100, size=(6, 2)).tolist()))))
    knapsack = gea.Knapsack(gea.KnapsackInstance(
        tuple(map(float, rng.integers(1, 31, 12))), tuple(map(float, rng.integers(1, 51, 12))),
        100.0), name="selftest-ks")
    inst = routing.instance
    exact = {routing.name: exact_routing_cost(inst.depot, inst.customers, inst.n_vehicles),
             knapsack.name: sum(knapsack.instance.values) - knapsack_optimum(
                 knapsack.instance.weights, knapsack.instance.values,
                 knapsack.instance.capacity)}
    try:
        good = [_tiny_record(routing, "gea", 3), _tiny_record(knapsack, "ga", 4)]
    except Exception as err:  # noqa: BLE001 - a solver crash is reported, not raised
        return [f"self-test fit raised {type(err).__name__}: {err}"]

    mistakes = []
    for rec in good:
        try:
            check_fit(rec, exact[rec.problem.name])
        except CheckFailed as err:
            mistakes.append(f"correct fit rejected: {err}")
    try:
        check_results_csv(_results_csv(good), good)
        check_convergence_csv("h\n" + "r\n" * 60, 2, 3, 10)
    except CheckFailed as err:
        mistakes.append(f"correct report rejected: {err}")

    vrp, ks = good
    duplicated = vrp.genes.copy()
    duplicated[1] = duplicated[0]
    not_binary = ks.genes.copy()
    not_binary[0] = 2
    rising = vrp.trace.copy()
    rising[-1] += 1.0
    wrong_mean = _results_csv(good).replace(f"{vrp.cost:.4f},0.0000",
                                            f"{vrp.cost + 1:.4f},0.0000")
    corrupted = {
        "cost off by one": lambda: check_fit(replace(vrp, cost=vrp.cost + 1.0), None),
        "duplicated symbol": lambda: check_fit(replace(vrp, genes=duplicated), None),
        "non-binary gene": lambda: check_fit(replace(ks, genes=not_binary), None),
        "rising trace": lambda: check_fit(replace(vrp, trace=rising), None),
        "short trace": lambda: check_fit(replace(vrp, trace=vrp.trace[:-1]), None),
        "cost below the optimum": lambda: check_not_below(
            routing, exact[routing.name] - 1.0, exact[routing.name]),
        "wrong mean in results.csv": lambda: check_results_csv(wrong_mean, good),
        "missing convergence row": lambda: check_convergence_csv(
            "h\n" + "r\n" * 59, 2, 3, 10),
    }
    for label, run_check in corrupted.items():
        try:
            run_check()
        except CheckFailed:
            continue
        mistakes.append(f"corrupted result accepted: {label}")
    return mistakes
