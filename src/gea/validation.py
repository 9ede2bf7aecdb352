"""Input validation helpers shared by the estimator and harness APIs."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def check_int(name: str, value, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_fraction(name: str, value, low: float = 0.0, high: float = 1.0,
                   low_open: bool = False) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    # written so that NaN, which fails every comparison, is rejected too
    if not low <= value <= high or (low_open and value == low):
        bracket = "(" if low_open else "["
        raise ValueError(f"{name} must be in {bracket}{low}, {high}], got {value}")
    return value


def check_weights(name: str, weights: Sequence[float], size: int = 3,
                  require_positive: bool = False) -> tuple[float, ...]:
    # a string iterates as characters, so it is no sequence of numbers here
    try:
        if isinstance(weights, (str, bytes)):
            raise TypeError
        values = tuple(float(w) for w in weights)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a sequence of {size} numbers, "
                         f"got {weights!r}") from None
    if len(values) != size:
        raise ValueError(f"{name} must have {size} entries, got {len(values)}")
    if not all(math.isfinite(w) for w in values):
        raise ValueError(f"{name} entries must be finite, got {values}")
    if any(w < 0 for w in values):
        raise ValueError(f"{name} entries must be non-negative, got {values}")
    if require_positive and sum(values) <= 0:
        raise ValueError(f"{name} must contain at least one positive entry")
    return values
