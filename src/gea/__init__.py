"""Gene-engineering optimization toolkit.

An elitist genetic algorithm extended with dominant-gene extraction, directed
mutation and gene injection, plus exact small-instance oracles and a
reproducible benchmark harness.
"""

from .genome import DomainKind, GeneDomain
from .harness import (BatchResult, Benchmark, IntervalRow, StatsRow, compute_stats,
                      confidence_interval, full_benchmark, interval_data, run_batch)
from .population import Population
from .problems import (Knapsack, KnapsackInstance, OneMax, Problem, VehicleRouting,
                       VrpInstance, generate_instance, generate_knapsack_instance,
                       knapsack_dp_optimum, load_instance, standard_suite,
                       vrp_dp_optimum, write_instance)
from .rng import derive_run_seed
from .solver import VARIANTS, GeaSolver

__version__ = "0.1.0"

__all__ = [
    "DomainKind", "GeneDomain", "Population",
    "GeaSolver", "VARIANTS",
    "Problem", "OneMax", "Knapsack", "KnapsackInstance", "VehicleRouting",
    "VrpInstance", "generate_instance", "generate_knapsack_instance",
    "knapsack_dp_optimum", "load_instance", "standard_suite", "vrp_dp_optimum",
    "write_instance",
    "StatsRow", "IntervalRow", "BatchResult", "Benchmark", "compute_stats",
    "confidence_interval", "interval_data", "run_batch", "full_benchmark",
    "derive_run_seed",
    "__version__",
]
