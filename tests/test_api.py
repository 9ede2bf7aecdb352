import numpy as np
import pytest

import gea
from gea import (DomainKind, GeaSolver, GeneDomain, Knapsack, KnapsackInstance, OneMax,
                 VehicleRouting, VrpInstance, generate_instance, generate_knapsack_instance,
                 knapsack_dp_optimum, run_batch, standard_suite, vrp_dp_optimum)

# the public surface; widening it is a deliberate change to this list
PUBLIC_NAMES = [
    "BatchResult", "Benchmark", "DomainKind", "GeaSolver", "GeneDomain", "IntervalRow",
    "Knapsack", "KnapsackInstance", "OneMax", "Population", "Problem", "StatsRow",
    "VARIANTS", "VehicleRouting", "VrpInstance", "__version__", "compute_stats",
    "confidence_interval", "derive_run_seed", "full_benchmark", "generate_instance",
    "generate_knapsack_instance", "interval_data", "knapsack_dp_optimum", "load_instance",
    "run_batch", "standard_suite", "vrp_dp_optimum", "write_instance",
]


def test_every_exported_name_imports():
    namespace = {}
    exec("from gea import *", namespace)  # raises on a stale name in __all__
    assert set(gea.__all__) <= namespace.keys()


def test_public_names_are_pinned():
    assert sorted(gea.__all__) == PUBLIC_NAMES


class NoEvaluate:
    name = "stub"

    def domain(self):
        return GeneDomain.binary(3)


class DomainNotGeneDomain(NoEvaluate):
    def domain(self):
        return "binary"

    def evaluate_batch(self, genomes):
        return np.zeros(len(genomes))


class Nameless:
    def domain(self):
        return GeneDomain.binary(3)

    def evaluate_batch(self, genomes):
        raise AssertionError("a fit started on a problem with no name")


def fit(**settings):
    return GeaSolver(max_iters=1, **settings).fit(OneMax(4))


def vrp(n_vehicles=1, depot=(0.0, 0.0), customers=((1.0, 1.0), (2.0, 2.0))):
    return VrpInstance("x", n_vehicles, depot, customers)


# (call with one bad value, pattern its ValueError must match). The rows of
# full_benchmark are in test_harness.py, which also checks that no fit starts;
# offspring of another dtype are in test_population.py
MISUSE = {
    "fit-instance-not-problem": (lambda: GeaSolver(max_iters=1).fit(standard_suite()[0]),
                                 "Problem contract.*got VrpInstance"),
    "fit-no-evaluate_batch": (lambda: GeaSolver(max_iters=1).fit(NoEvaluate()),
                              "Problem contract.*got NoEvaluate"),
    "fit-domain-not-GeneDomain": (lambda: GeaSolver(max_iters=1).fit(DomainNotGeneDomain()),
                                  "Problem contract.*got DomainNotGeneDomain"),
    "run_batch-instance-not-problem": (lambda: run_batch(standard_suite()[0], max_iters=1),
                                       "Problem contract.*got VrpInstance"),
    "run_batch-problem-nameless": (lambda: run_batch(Nameless(), runs=2, max_iters=50),
                                   "Problem contract.*str name.*got Nameless"),
    "fit-threshold_fraction-bool": (lambda: fit(threshold_fraction=False),
                                    "threshold_fraction must be a number, got False"),
    "fit-mutation_rate-bool": (lambda: fit(mutation_rate=True),
                               "mutation_rate must be a number, got True"),
    "fit-crossover_rate-str": (lambda: fit(crossover_rate="0.8"),
                               "crossover_rate must be a number, got '0.8'"),
    "fit-elite_fraction-bytes": (lambda: fit(elite_fraction=b"0.5"),
                                 "elite_fraction must be a number, got b'0.5'"),
    "fit-crossover_rate-huge-int": (lambda: fit(crossover_rate=10**400),
                                    r"crossover_rate must be in \[0\.0, 1\.0\], got 10{400}$"),
    "fit-elite_fraction-huge-int": (lambda: fit(elite_fraction=10**400),
                                    r"elite_fraction must be in \(0\.0, 1\.0\], got 10{400}$"),
    "fit-threshold_fraction-huge-negative-int": (
        lambda: fit(threshold_fraction=-10**400),
        r"threshold_fraction must be in \[0\.0, 1\.0\], got -10{400}$"),
    "fit-scenario_weights-huge-int": (lambda: fit(scenario_weights=(10**400, 0, 0)),
                                      r"scenario_weights entries must be finite, got \(10{400}, "),
    "fit-scenario_weights-bool": (lambda: fit(scenario_weights=(True, False, False)),
                                  r"scenario_weights must be a sequence of 3 numbers, "
                                  r"got \(True, False, False\)"),
    "fit-scenario_weights-strs": (lambda: fit(scenario_weights=("0.5", "0.5", "0.2")),
                                  "scenario_weights must be a sequence of 3 numbers"),
    "GeneDomain-kind-str": (lambda: GeneDomain("binary", 3), "kind must be a DomainKind"),
    "GeneDomain-length-float": (lambda: GeneDomain.binary(2.5), "length must be an integer"),
    "GeneDomain-length-str": (lambda: GeneDomain.binary("3"), "length must be an integer"),
    "GeneDomain-n_items-float": (lambda: GeneDomain.permutation(2.5),
                                 "n_items must be an integer"),
    "GeneDomain-n_items-bool": (lambda: GeneDomain(DomainKind.PERMUTATION, 2, True),
                                "n_items must be an integer"),
    "OneMax-length-float": (lambda: OneMax(2.5), "length must be an integer"),
    "OneMax-length-zero": (lambda: OneMax(0), "length must be >= 1"),
    "VrpInstance-n_vehicles-float": (lambda: vrp(2.5), "n_vehicles must be an integer"),
    "VrpInstance-n_vehicles-bool": (lambda: vrp(True), "n_vehicles must be an integer"),
    "VrpInstance-n_vehicles-zero": (lambda: vrp(0), "n_vehicles must be >= 1"),
    "VrpInstance-depot-three-numbers": (lambda: vrp(depot=(0.0, 0.0, 0.0)),
                                        r"depot must be two numbers, got \(0\.0, 0\.0, 0\.0\)"),
    "VrpInstance-customers-str": (lambda: vrp(customers="abc"),
                                  r"customers must be \(x, y\) pairs, got 'abc'"),
    "VrpInstance-customers-not-pairs": (lambda: vrp(customers=((1.0, 1.0), (2.0, 2.0, 2.0))),
                                        r"customers must be \(x, y\) pairs"),
    "VrpInstance-customers-strings": (lambda: vrp(customers=(("1", "2"),)),
                                      r"customers must be \(x, y\) pairs, got \(\('1', '2'\),\)"),
    "KnapsackInstance-weights-str": (lambda: KnapsackInstance("12", "34", 5.0),
                                     "weights must be finite, got '1' at index 0"),
    "KnapsackInstance-weights-bool": (lambda: KnapsackInstance((True, 2.0), (3.0, 4.0), 5.0),
                                      "weights must be finite, got True at index 0"),
    "KnapsackInstance-weights-huge-int": (lambda: KnapsackInstance((10**400,), (1.0,), 5.0),
                                          "weights must be finite, got 10{400} at index 0"),
    "KnapsackInstance-values-numpy-bool": (
        lambda: KnapsackInstance((1.0, 2.0), (3.0, np.True_), 5.0),
        r"values must be finite, got (np\.)?True_? at index 1"),
    "KnapsackInstance-values-None": (lambda: KnapsackInstance((1.0, 2.0), (3.0, None), 5.0),
                                     "values must be finite, got None at index 1"),
    "KnapsackInstance-capacity-str": (lambda: KnapsackInstance((1.0,), (1.0,), "5"),
                                      "capacity must be finite, got '5'"),
    "KnapsackInstance-capacity-bool": (lambda: KnapsackInstance((1.0,), (1.0,), True),
                                       "capacity must be finite, got True"),
    "Knapsack-instance-str": (lambda: Knapsack("x"),
                              "instance must be a KnapsackInstance, got str"),
    "knapsack_dp_optimum-instance-str": (lambda: knapsack_dp_optimum("x"),
                                         "instance must be a KnapsackInstance, got str"),
    "VehicleRouting-instance-str": (lambda: VehicleRouting("f1"),
                                    "instance must be a VrpInstance, got str"),
    "vrp_dp_optimum-instance-str": (lambda: vrp_dp_optimum("f1"),
                                    "instance must be a VrpInstance, got str"),
    "generate_instance-n_customers-float": (lambda: generate_instance(5.5, 2, 1),
                                            "n_customers must be an integer"),
    "generate_instance-n_vehicles-float": (lambda: generate_instance(5, 2.5, 1),
                                           "n_vehicles must be an integer"),
    "generate_instance-seed-negative": (lambda: generate_instance(5, 2, -1),
                                        "seed must be >= 0"),
    "generate_knapsack_instance-n_items-float": (lambda: generate_knapsack_instance(2.5, 1),
                                                 "n_items must be an integer"),
    "generate_knapsack_instance-seed-float": (lambda: generate_knapsack_instance(5, 1.5),
                                              "seed must be an integer"),
}


@pytest.mark.parametrize("call,pattern", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_raises_a_value_error_that_names_it(call, pattern):
    with pytest.raises(ValueError, match=pattern):
        call()
