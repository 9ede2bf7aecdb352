"""Per-layer tracing from outside the package.

`install` wraps the public functions of each `gea` layer where their caller
binds them (`gea.solver.crossover_batch`, not `gea.operators.crossover_batch`)
and records one span per call: name, start, end and parent span. Spans stay in
memory; `save` writes them out when the run ends. Counters for rows, repeats
and admissions are taken in hooks whose own time is kept out of every span's
inclusive and self time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import gea.charts
import gea.harness
import gea.population
import gea.problems
import gea.solver

REPORT_RENDERERS = ("results_csv", "convergence_csv", "intervals_csv", "table_text")


def _row_keys(genes: np.ndarray) -> list[bytes]:
    """One hashable key per genome row."""
    data = np.ascontiguousarray(genes).tobytes()
    width = genes.shape[1] * genes.itemsize
    return [data[i:i + width] for i in range(0, len(data), width)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # [span index, name id, start, child seconds, hook seconds within the span]
        self._stack: list[list] = []
        self.hook_s = 0.0
        self.counters: Counter = Counter()
        # what the current fit / generation is working on
        self.variant: str | None = None
        self.population = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _enter(self, nid: int) -> None:
        index = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        self._stack.append([index, nid, start, 0.0, 0.0])

    def _leave(self) -> None:
        end = perf_counter()
        index, nid, start, child, hooks = self._stack.pop()
        self.span_end[index] = end
        duration = end - start - hooks
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
            self._stack[-1][4] += hooks

    def _charge(self, seconds: float) -> None:
        """Book hook time so that no span counts it as its work, inclusive or own."""
        self.hook_s += seconds
        if self._stack:
            self._stack[-1][4] += seconds

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                t = perf_counter()
                before(args)
                self._charge(perf_counter() - t)
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if after is not None:
                t = perf_counter()
                after(args, result)
                self._charge(perf_counter() - t)
            return result

        return traced

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, before, after))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        solver, population = gea.solver, gea.population
        count = self.counters

        def fit_before(args):
            self.variant = args[0].variant

        def step_before(args):
            count["generations"] += 1
            if self.variant != "ga":
                count["engineering_generations"] += 1
            self.population = args[1]

        def step_after(args, result):
            self.population = None

        def crossover_after(args, result):
            count["crossover_rows"] += 2 * args[1].shape[0]

        def survivors_after(args, result):
            parents, offspring = args[0], args[1]
            count["survivor_rows"] += len(parents) + offspring.shape[0]
            count["offspring_made"] += offspring.shape[0]
            admitted = Counter(_row_keys(result.genes)) - Counter(_row_keys(parents.genes))
            count["offspring_admitted"] += sum(admitted.values())

        def evaluate_after(args, result):
            keys = _row_keys(args[1])
            seen = set() if self.population is None else set(_row_keys(self.population.genes))
            count["evaluated"] += len(keys)
            for key in keys:
                if key in seen:
                    count["evaluated_repeats"] += 1
                else:
                    seen.add(key)

        def report_after(args, result):
            count["report_bytes"] += len(result.encode())

        self._patch(solver.GeaSolver, "fit", "solver.fit", before=fit_before)
        self._patch(solver._Generation, "step", "solver.step", before=step_before,
                    after=step_after)
        self._patch(solver, "crossover_batch", "operators.crossover_batch",
                    after=crossover_after)
        self._patch(solver, "mutate_batch", "operators.mutate_batch")
        self._patch(solver, "init_population", "population.init_population")
        self._patch(solver, "roulette_indices", "population.roulette_indices")
        self._patch(population.Population, "select_survivors",
                    "population.select_survivors", after=survivors_after)
        for fn in ("repetition_matrix", "dominant_chromosome", "build_mask",
                   "directed_mutation_batch", "gene_injection_batch", "dominant_candidate"):
            self._patch(solver, fn, f"engineering.{fn}")
        for cls in (gea.problems.VehicleRouting, gea.problems.Knapsack):
            self._patch(cls, "evaluate_batch", "problems.evaluate_batch", after=evaluate_after)
        self._patch(gea.harness, "run_batch", "harness.run_batch")
        for renderer in REPORT_RENDERERS:
            self._patch(gea.harness.Benchmark, renderer, f"harness.report.{renderer}",
                        after=report_after)
        self._patch(gea.charts, "convergence_chart", "harness.report.convergence_chart",
                    after=report_after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each a figure per traced round."""
        count = self.counters

        def calls(name):
            return self.stat(name)[0] / rounds

        def seconds(name):
            return self.stat(name)[1] / rounds

        def ratio(numerator, denominator):
            return count[numerator] / count[denominator] if count[denominator] else 0.0

        report_names = [n for n in self.names if n.startswith("harness.report.")]
        return {
            "solver.generations": count["generations"] / rounds,
            "solver.fit.s": seconds("solver.fit"),
            "solver.self_s": (self.stat("solver.fit")[2] + self.stat("solver.step")[2]) / rounds,
            "operators.crossover_batch.calls": calls("operators.crossover_batch"),
            "operators.crossover_batch.rows": count["crossover_rows"] / rounds,
            "operators.crossover_batch.s": seconds("operators.crossover_batch"),
            "operators.mutate_batch.calls": calls("operators.mutate_batch"),
            "operators.mutate_batch.s": seconds("operators.mutate_batch"),
            "population.select_survivors.calls": calls("population.select_survivors"),
            "population.select_survivors.rows": count["survivor_rows"] / rounds,
            "population.select_survivors.s": seconds("population.select_survivors"),
            "population.roulette_indices.s": seconds("population.roulette_indices"),
            "population.init_population.s": seconds("population.init_population"),
            "population.offspring_admitted_ratio": ratio("offspring_admitted", "offspring_made"),
            "engineering.repetition_matrix.calls": calls("engineering.repetition_matrix"),
            "engineering.repetition_matrix.s": seconds("engineering.repetition_matrix"),
            "engineering.repetition_matrix.per_generation":
                self.stat("engineering.repetition_matrix")[0] / count["engineering_generations"]
                if count["engineering_generations"] else 0.0,
            "engineering.dominant_chromosome.s": seconds("engineering.dominant_chromosome"),
            "engineering.build_mask.s": seconds("engineering.build_mask"),
            "engineering.directed_mutation_batch.calls":
                calls("engineering.directed_mutation_batch"),
            "engineering.directed_mutation_batch.s": seconds("engineering.directed_mutation_batch"),
            "engineering.gene_injection_batch.calls": calls("engineering.gene_injection_batch"),
            "engineering.gene_injection_batch.s": seconds("engineering.gene_injection_batch"),
            "engineering.dominant_candidate.calls": calls("engineering.dominant_candidate"),
            "engineering.dominant_candidate.s": seconds("engineering.dominant_candidate"),
            "problems.evaluate_batch.calls": calls("problems.evaluate_batch"),
            "problems.evaluate_batch.genomes": count["evaluated"] / rounds,
            "problems.evaluate_batch.s": seconds("problems.evaluate_batch"),
            "problems.evaluate_batch.repeat_ratio": ratio("evaluated_repeats", "evaluated"),
            "harness.run_batch.overhead_s": self.stat("harness.run_batch")[2] / rounds,
            "harness.report.s": sum(seconds(n) for n in report_names),
            "harness.report.bytes": count["report_bytes"] / rounds,
        }

    def table(self) -> str:
        """Calls, inclusive and self seconds per span name, for the log."""
        lines = [f"{'span':<42}{'calls':>10}{'total_s':>12}{'self_s':>12}"]
        for name in sorted(self.names):
            calls, total, own = self.stat(name)
            lines.append(f"{name:<42}{calls:>10}{total:>12.4f}{own:>12.4f}")
        lines.append(f"{'(tracer hooks)':<42}{'':>10}{self.hook_s:>12.4f}")
        return "\n".join(lines)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
