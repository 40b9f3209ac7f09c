"""Closed-form random-coding objectives, kept as oracles for the one
tilted-source evaluator in leakexp.exponents.

Each objective is written straight from the channel's transition
probabilities, takes an array of tilts like the library's evaluator, and is
maximized over theta in [0, 1] with the library's golden-section search, so
only the evaluator differs from the library path.
"""
import math

import numpy as np

from leakexp.exponents import _golden_max

LN2 = math.log(2.0)


def _max_over_unit_tilt(objective) -> float:
    return float(_golden_max(objective, np.zeros(1), np.ones(1))[1][0])


def er_bec(rate: float, eps: float) -> float:
    """max over theta of -ln((1-eps) + eps*2^-theta) - theta*rate."""

    def objective(t: np.ndarray) -> np.ndarray:
        value = -np.log((1.0 - eps) + eps * np.exp(-t * LN2)) - t * rate
        return np.where(t == 0.0, 0.0, value)

    return _max_over_unit_tilt(objective)


def er_bsc(rate: float, eps: float) -> float:
    """max over theta of -ln((1-eps)^(1+theta) + eps^(1+theta)) - theta*rate."""

    def objective(t: np.ndarray) -> np.ndarray:
        value = -np.log((1.0 - eps) ** (1.0 + t) + eps ** (1.0 + t)) - t * rate
        return np.where(t == 0.0, 0.0, value)

    return _max_over_unit_tilt(objective)
