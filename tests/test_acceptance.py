"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines live; the full
benchmark grid (criteria 3, 4, 8) runs once and is shared.
"""

import filecmp
import time
from collections import Counter

import numpy as np
import pytest

from gea import (Knapsack, VehicleRouting, compute_stats, confidence_interval,
                 full_benchmark, generate_instance, generate_knapsack_instance,
                 knapsack_dp_optimum, run_batch, standard_suite, vrp_dp_optimum)
from gea.cli import main
from gea.engineering import (build_mask, dominant_chromosome, directed_mutation_batch,
                             free_loci, gene_injection_batch, injection_keep,
                             repetition_matrix)
from gea.genome import GeneDomain
from gea.solver import VARIANTS

# criterion 1 instance set: (customers, vehicles) cycle, seeds 201..210
ORACLE_CASES = [(5, 1), (5, 2), (6, 1), (6, 2), (7, 1),
                (7, 2), (5, 1), (6, 2), (7, 1), (5, 2)]


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number}: {name:<44} {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def full_bench():
    problems = [VehicleRouting(instance) for instance in standard_suite()]
    start = time.monotonic()
    bench = full_benchmark(problems, variants=VARIANTS, runs=10, base_seed=0)
    elapsed = time.monotonic() - start
    return bench, elapsed


def test_criterion_1_vrp_oracle_optimality():
    start = time.monotonic()
    matches = 0
    for index, (n, k) in enumerate(ORACLE_CASES):
        instance = generate_instance(n, k, 201 + index)
        optimum, _ = vrp_dp_optimum(instance)
        batch = run_batch(VehicleRouting(instance), variant="gea", runs=10, base_seed=0)
        if abs(batch.run_costs.min() - optimum) <= 1e-9 * max(1.0, abs(optimum)):
            matches += 1
    elapsed = time.monotonic() - start
    ok = matches >= 8 and elapsed < 60.0
    _report(1, "vrp oracle optimality (10 small instances)", ok,
            f"{matches}/10 optimal, {elapsed:.1f}s")
    assert matches >= 8
    assert elapsed < 60.0


def test_criterion_2_knapsack_oracle_optimality():
    matches = 0
    for seed in range(1, 21):
        instance = generate_knapsack_instance(15, seed)
        problem = Knapsack(instance)
        optimum = knapsack_dp_optimum(instance)
        batch = run_batch(problem, variant="gea", runs=10, base_seed=0)
        if abs(problem.best_value(batch.run_costs.min()) - optimum) <= 1e-9:
            matches += 1
    ok = matches >= 18
    _report(2, "knapsack dp optimality (20 instances)", ok, f"{matches}/20 optimal")
    assert matches >= 18


def test_criterion_3_directional_superiority(full_bench):
    bench, _ = full_bench
    wins = 0
    for instance in bench.instances:
        gea_mean = bench.batch("gea", instance).stats().mean
        ga_mean = bench.batch("ga", instance).stats().mean
        wins += gea_mean <= ga_mean
    ok = wins >= 4
    _report(3, "gea mean <= ga mean on the suite", ok, f"{wins}/6 instances")
    assert wins >= 4


def test_criterion_4_spread_collapse_on_smallest_instance(full_bench):
    bench, _ = full_bench
    stats = bench.batch("gea", "f1").stats()
    ratio = stats.std / stats.mean
    ok = ratio <= 1e-6
    _report(4, "gea spread collapse on f1 (std/mean)", ok, f"ratio={ratio:.2e}")
    assert ratio <= 1e-6


def test_criterion_5_operator_invariant_suite():
    violations = 0
    rng = np.random.default_rng(20_240)

    # mask correctness: exhaustive per-column over all M <= 4 heights, plus
    # every full elite matrix wherever 2^(M*L) <= 2^16 (mask is locus-wise)
    for m in range(1, 5):
        for length in range(1, 7):
            for t in range(0, m + 2):
                for code in range(2 ** m):
                    column = (code >> np.arange(m)) & 1
                    elite = column[:, None].repeat(length, axis=1)
                    repeat_counts = dominant_chromosome(repetition_matrix(elite), elite)[1]
                    mask = build_mask(repeat_counts, t)
                    expected = (repeat_counts > t) & (t != 0)
                    violations += int(mask.dtype != bool or not np.array_equal(mask, expected))
            if m * length <= 16:
                for code in range(2 ** (m * length)):
                    elite = ((code >> np.arange(m * length)) & 1).reshape(m, length)
                    repeat_counts = dominant_chromosome(repetition_matrix(elite), elite)[1]
                    for t in (0, 1, m // 2, m):
                        mask = build_mask(repeat_counts, t)
                        expected = (repeat_counts > t) & (t != 0)
                        violations += int(mask.dtype != bool
                                          or not np.array_equal(mask, expected))

    # directed mutation never touches masked loci: 1e4 cases per domain
    for domain in (GeneDomain.binary(10), GeneDomain.permutation(8, separators=2)):
        for _ in range(100):
            bits = rng.integers(0, 2, size=domain.length)
            genomes = domain.sample_batch(rng, 100)
            out = directed_mutation_batch(domain, genomes, free_loci(domain, bits), rng)
            fixed = bits == 1
            violations += int(not np.array_equal(out[:, fixed], genomes[:, fixed]))

    # injection postcondition and permutation validity: 1e4 cases
    bin_dom = GeneDomain.binary(10)
    perm_dom = GeneDomain.permutation(8, separators=2)
    for _ in range(100):
        bits = rng.integers(0, 2, size=10)
        dc_genes = rng.integers(0, 2, size=10)
        genomes = bin_dom.sample_batch(rng, 100)
        out = gene_injection_batch(bin_dom, genomes, injection_keep(bin_dom, bits, dc_genes),
                                   dc_genes)
        expected = np.where(bits[None, :] == 1, dc_genes[None, :], genomes)
        violations += int(not np.array_equal(out, expected))

        pbits = rng.integers(0, 2, size=perm_dom.length)
        pdc = perm_dom.sample_batch(rng, 1)[0]
        perms = perm_dom.sample_batch(rng, 100)
        pout = gene_injection_batch(perm_dom, perms, injection_keep(perm_dom, pbits, pdc), pdc)
        violations += int(not np.array_equal(
            np.sort(pout, axis=1), np.tile(perm_dom.alphabet, (100, 1))))
        masked = pbits == 1
        violations += int(not np.array_equal(
            pout[:, masked], np.tile(pdc[masked], (100, 1))))

    # dominant chromosome vs independent majority oracle: 1e3 cases
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        length = int(rng.integers(1, 9))
        elite = rng.integers(0, 2, size=(m, length))
        dc_genes, repeat_counts = dominant_chromosome(repetition_matrix(elite), elite)
        for locus in range(length):
            column = elite[:, locus].tolist()
            counts = Counter(column)
            best_symbol, best_count = None, -1
            for symbol in column:
                if counts[symbol] > best_count:
                    best_symbol, best_count = symbol, counts[symbol]
            violations += int(dc_genes[locus] != best_symbol
                              or repeat_counts[locus] != best_count)

    ok = violations == 0
    _report(5, "operator invariant suite", ok, f"{violations} violations")
    assert violations == 0


def test_criterion_6_bench_determinism(tmp_path):
    args = ["bench", "--variants", "ga,gea", "--instances", "f1,f2",
            "--runs", "2", "--iters", "40", "--pop", "20", "--seed", "5"]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    names = sorted(p.name for p in out1.iterdir())
    identical = names == sorted(p.name for p in out2.iterdir())
    for name in names:
        identical &= filecmp.cmp(out1 / name, out2 / name, shallow=False)
    _report(6, "bench reruns byte-identical", identical, f"{len(names)} files")
    assert identical


def test_criterion_7_statistics():
    stats = compute_stats([1.0, 2.0, 3.0])
    exact = (stats.best, stats.worst, stats.mean, stats.std) == (1.0, 3.0, 2.0, 1.0)
    center, half = confidence_interval([0.0, 0.2])
    interval_ok = abs(half - 0.196) <= 1e-3 and abs(center - 0.1) <= 1e-12
    ok = exact and interval_ok
    _report(7, "statistics exactness", ok, f"stats={exact} interval_half={half:.5f}")
    assert exact
    assert interval_ok


def test_criterion_8_protocol_scale(full_bench):
    bench, elapsed = full_bench
    cells = len(bench.results)
    ok = elapsed < 600.0 and cells == 30
    _report(8, "full protocol under ten minutes", ok,
            f"{cells} cells in {elapsed:.1f}s")
    assert cells == 30
    assert elapsed < 600.0
