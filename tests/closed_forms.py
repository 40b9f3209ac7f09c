"""Closed-form random-coding objectives, kept as oracles for the one
tilted-source evaluator in leakexp.exponents.

Each objective is written straight from the channel's transition
probabilities and maximized over theta in [0, 1] with the library's
golden-section search, so only the evaluator differs from the library path.
"""
import math

from leakexp.exponents import _golden_max

LN2 = math.log(2.0)


def er_bec(rate: float, eps: float) -> float:
    """max over theta of -ln((1-eps) + eps*2^-theta) - theta*rate."""

    def objective(t: float) -> float:
        if t == 0.0:
            return 0.0
        return -math.log((1.0 - eps) + eps * math.exp(-t * LN2)) - t * rate

    return _golden_max(objective, 0.0, 1.0)[1]


def er_bsc(rate: float, eps: float) -> float:
    """max over theta of -ln((1-eps)^(1+theta) + eps^(1+theta)) - theta*rate."""

    def objective(t: float) -> float:
        if t == 0.0:
            return 0.0
        return -math.log((1.0 - eps) ** (1.0 + t) + eps ** (1.0 + t)) - t * rate

    return _golden_max(objective, 0.0, 1.0)[1]
