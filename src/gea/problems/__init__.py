from .base import Problem
from .knapsack import (Knapsack, KnapsackInstance, generate_knapsack_instance,
                       knapsack_dp_optimum)
from .onemax import OneMax
from .vrp import (SUITE_DIMENSIONS, VehicleRouting, VrpInstance, format_instance,
                  generate_instance, load_instance, parse_instance, standard_suite,
                  vrp_dp_optimum, write_instance)

__all__ = [
    "Problem", "OneMax",
    "Knapsack", "KnapsackInstance", "generate_knapsack_instance", "knapsack_dp_optimum",
    "VehicleRouting", "VrpInstance", "SUITE_DIMENSIONS", "format_instance",
    "generate_instance", "load_instance", "parse_instance", "standard_suite",
    "vrp_dp_optimum", "write_instance",
]
