"""The benchmark's outside tracer against the package: every name it patches
must exist where the tracer looks for it, be called in a fit, and be put back."""

import importlib.util
from pathlib import Path

import gea.engineering
import gea.solver
from gea.problems import VehicleRouting, generate_instance
from gea.solver import GeaSolver

ENGINEERING = ("repetition_matrix", "dominant_chromosome", "build_mask",
               "directed_mutation_batch", "gene_injection_batch", "dominant_candidate")


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_sees_every_engineering_span_and_uninstalls():
    # the solver calls the engineering functions through its own module names
    for name in ENGINEERING:
        assert getattr(gea.solver, name) is getattr(gea.engineering, name)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        problem = VehicleRouting(generate_instance(6, 2, 5))
        GeaSolver(scenario_weights=(1, 1, 1), pop_size=20, max_iters=30, seed=2).fit(problem)
        for name in ENGINEERING:
            assert tracer.stat(f"engineering.{name}")[0] > 0, name
    finally:
        tracer.uninstall()
    assert {attr for _, attr, _ in patched} >= set(ENGINEERING)
    for owner, attr, original in patched:
        assert bound(owner, attr) is original, attr
    for name in ENGINEERING:
        assert getattr(gea.solver, name) is getattr(gea.engineering, name)


def test_tracer_counts_two_crossover_rows_per_parent_pair():
    # crossover_rate 0.75 at pop 20 asks for 15 children: 8 pairs, whose 16
    # children the step makes before it keeps 15
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        problem = VehicleRouting(generate_instance(6, 2, 5))
        GeaSolver(pop_size=20, max_iters=30, crossover_rate=0.75, seed=2).fit(problem)
    finally:
        tracer.uninstall()
    assert tracer.counters["generations"] == tracer.stat("operators.crossover_batch")[0] == 30
    assert tracer.counters["crossover_rows"] == 30 * 2 * 8
