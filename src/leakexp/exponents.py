"""Error-exponent curves for secrecy rates over binary side channels.

Every exponent here is a concave maximization over a tilt theta, solved where
its slope vanishes by one root-finder run on all rates of a curve at once.

Random-coding exponents maximize over theta in [0, 1]. For either channel
family they use one evaluator of the tilted source, -log1p(sum m*expm1(theta*l))
over its (mass, ln P(x|z)) terms, which keeps its relative precision as
theta -> 0. The slope is minus the tilted mean of l less the rate,
H(X|Z) - R at theta = 0, and decreases with theta.
Expurgation-style exponents maximize over theta >= 1. Their slope is
ln 2 - R - h(p) with p = t/(1+t) and t = delta^(1/theta), so they are solved on
x = 1/2 - p from ln 2 - h(1/2 - x) = R, and the value is -p*ln(delta); that p
is also the minimizer of their constrained form, returned as p_star.

The root-finder takes Newton steps inside a sign bracket, bisecting where a
step would leave it. Each rate stops once its slope is at its rounding floor,
2^-51 of the terms it subtracts (the rate and the tilted mean, or the rate
and ln 2 - h(p)), or its step is below 1e-14; a slope of one sign returns
that end exactly.
Values are raw (possibly negative); clamping to zero is an emission-time
option on `curve`, never applied inside operations. `curve` returns the
rates, values and tilts of its batched solve as the columns of a CurveTable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterator

import numpy as np

from .channels import ChannelSpec
from .errors import DegenerateParameterError, SizeLimitError

__all__ = [
    "OptResult",
    "CurveTable",
    "random_coding_exponent",
    "expurgation_exponent_bec",
    "bsc_delta",
    "critical_rate",
    "expurgation_rate",
    "curve",
    "CURVE_FAMILY",
    "CURVE_KINDS",
]

LN2 = math.log(2.0)

_STEP_TOL = 1e-14
# A bound on the steps of any one root; the preset curves need at most 8.
_MAX_STEPS = 100
# The most rates per curve: er-bsc at 10^6 takes about 1.2-1.8 s and 76 MB.
_MAX_CURVE_STEPS = 10**6
_CSV_ROWS = 4096  # rates per batched solve in curve, rows per % call in to_csv
_Terms = tuple[tuple[float, float], ...]  # (mass, ln P(x|z)) of a tilted source

# Each curve kind and the channel family ('bec' or 'bsc') it takes; None marks
# a kind that takes either.
CURVE_FAMILY = {
    "er-general": None,
    "er-bec": "bec",
    "er-bsc": "bsc",
    "ex-bec": "bec",
    "ex-bsc-reduction": "bsc",
}
CURVE_KINDS = tuple(CURVE_FAMILY)


@dataclass(frozen=True)
class OptResult:
    """Optimizer outcome: the value plus where it was attained.

    `theta_star` is the tilt (math.inf marks a limit that is approached, not
    attained, flagged by form 'closed-limit'); `p_star`, set by the expurgation
    exponents only, is the flip probability t/(1+t), t = delta^(1/theta_star),
    that minimizes their constrained form. An interior `theta_star` is a root
    of the objective's slope f' with |f'(theta_star)| at its rounding floor.
    The expurgation tilt has a conditioning limit: a float rate resolves
    ln 2 - R only to about 1e-16, so for delta below about 1e-16 it is set by
    rounding at rates that close to ln 2 (bsc:0.499999999999 at R = LN2
    gives 1 where 1.28 is exact; the value is right to 3e-17).
    """

    value: float
    theta_star: float | None
    p_star: float | None
    form: str


@dataclass(frozen=True, eq=False)
class CurveTable:
    """Sampled exponent curve as read-only float64 columns: the rates, strictly
    increasing, their finite values and their tilts (inf at the rate-0 limit).
    Tables compare by identity, as `==` over arrays has no truth value."""

    r_nats: np.ndarray
    value_nats: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self) -> None:
        for name in ("r_nats", "value_nats", "theta_star"):
            col = np.array(getattr(self, name), dtype=np.float64)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def to_csv(self) -> Iterator[str]:
        """The CSV text as its header line, then one string per block of
        _CSV_ROWS rows: the columns, rates and values also in bits, each number
        as f"{x:.12g}" writes it. One % call formats a block, so no piece of a
        long curve is large; join the pieces for the whole text."""
        yield "R_nats,value_nats,R_bits,value_bits,theta_star\n"
        for lo in range(0, len(self.r_nats), _CSV_ROWS):
            r, v = self.r_nats[lo:lo + _CSV_ROWS], self.value_nats[lo:lo + _CSV_ROWS]
            block = np.column_stack((r, v, r / LN2, v / LN2, self.theta_star[lo:lo + _CSV_ROWS]))
            yield "%.12g,%.12g,%.12g,%.12g,%.12g\n" * len(block) % tuple(block.ravel().tolist())


def _decreasing_root(
    slope: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Roots of m decreasing functions at once, problem i on [lo[i], hi[i]]
    started at x[i]; `slope` maps m points to the m values, derivatives and
    sizes (the summed magnitudes of the terms the value subtracts).

    A problem whose value is <= 0 at lo returns lo, one whose value is >= 0
    at hi returns hi. The others take Newton steps inside a bracket with a
    positive value at its left end and a negative one at its right; a step
    that would leave the bracket bisects it instead. Each problem stops after
    a step from a point whose |value| is within 2^-51 of its size, its
    rounding floor, or a step below _STEP_TOL: the same steps and float
    arithmetic as a solve of it alone.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        g_lo, g_hi = slope(lo)[0], slope(hi)[0]
        x = np.where(g_lo <= 0.0, lo, np.where(g_hi >= 0.0, hi, x))
        active = (g_lo > 0.0) & (g_hi < 0.0)
        for _ in range(_MAX_STEPS):
            if not active.any():
                break
            g, dg, size = slope(x)
            lo, hi = np.where(g > 0.0, x, lo), np.where(g < 0.0, x, hi)
            nx = x - g / dg
            nx = np.where((lo <= nx) & (nx <= hi), nx, 0.5 * (lo + hi))
            step = abs(nx - x)
            x = np.where(active, nx, x)
            active &= (step > _STEP_TOL) & (abs(g) > 2.0**-51 * size)
    return x


def _tilt_terms(channel: ChannelSpec) -> _Terms:
    """(mass, ln P(x|z)) for the cells P(x, z) of a uniform bit x seen as z
    through `channel` with 0 < P(x|z) < 1, cells with equal log-ratios merged
    into one term. Cells with P(x|z) = 1 add nothing to the tilt and are left
    out."""
    keep, other = (1.0 - channel.eps) / 2.0, channel.eps / 2.0
    if channel.family == "bec":
        rows = ((keep, 0.0, other), (0.0, keep, other))  # z = 0, 1, erased
    else:
        rows = ((keep, other), (other, keep))
    pz = [p0 + p1 for p0, p1 in zip(*rows)]
    merged: dict[float, float] = {}
    for row in rows:
        for p, q in zip(row, pz):
            if 0.0 < p < q:
                ell = math.log(p / q)
                merged[ell] = merged.get(ell, 0.0) + p
    return tuple((mass, ell) for ell, mass in merged.items())


def _tilt(terms: _Terms, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, mean, variance) of l under the tilt at each theta; the one evaluator
    of the tilted source. S = sum m*expm1(theta*l) over `terms`, and the tilted
    masses are m*e^(theta*l) over the normaliser 1 + S.

    The exponent -ln sum_{x,z} P(x,z) P(x|z)^theta is -log1p(S), exact because
    the cell masses, (1-eps)/2 and eps/2 twice each, sum to 1 up to rounding.
    No l is positive, so S has no cancellation and small theta keeps its
    relative precision. Its slope in theta is minus the mean, its curvature
    minus the variance.
    """
    total = first = second = 0.0
    for mass, ell in terms:
        me = mass * np.expm1(theta * ell)
        wl = (mass + me) * ell
        total += me
        first += wl
        second += wl * ell
    norm = 1.0 + total
    mean = first / norm
    return total, mean, second / norm - mean * mean


def _max_tilt(terms: _Terms, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta*, value) of the random-coding exponent at each rate. The slope's
    size is rate - mean, as no l is positive; the value is written 0.0 - x so
    that theta = 0 gives +0.0."""

    def slope(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _, mean, var = _tilt(terms, theta)
        return -mean - rates, -var, rates - mean

    lo, hi = np.zeros_like(rates), np.ones_like(rates)
    theta = _decreasing_root(slope, lo, hi, np.full_like(rates, 0.5))
    return theta, 0.0 - np.log1p(_tilt(terms, theta)[0]) - theta * rates


def random_coding_exponent(rate: float, channel: ChannelSpec) -> OptResult:
    """max over theta in [0, 1] of -ln sum_{x,z} P(x,z) P(x|z)^theta - theta*rate.

    The first term is theta times a conditional Renyi entropy of order
    1+theta: -ln((1-eps) + eps*2^-theta) for an erasure channel,
    -ln((1-eps)^(1+theta) + eps^(1+theta)) for a bit-flip one. It vanishes at
    theta = 0 with slope H(X|Z) there, so the exponent is zero (at theta = 0)
    once the rate reaches H(X|Z)."""
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    theta, value = _max_tilt(_tilt_terms(channel), np.array([rate]))
    return OptResult(float(value[0]), float(theta[0]), None, "max-theta")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise DegenerateParameterError(
            f"virtual erasure probability delta={delta} must lie strictly in (0, 1)"
        )


def _divergence_slope(
    rate: np.ndarray,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """x -> (rate - D(x), -D'(x), rate + D(x)) for D(x) = ln 2 - h(1/2 - x),
    with y = 2x and D'(x) = 2*atanh(y) = log1p(y) - log1p(-y).

    D is y*atanh(y) + log1p(-y^2)/2 below y = 1/2, which loses no digits as
    x -> 0, and ((1+y)*log1p(y) + (1-y)*log1p(-y))/2 above, which loses none as
    x -> 1/2."""

    def slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = 2.0 * x
        up, down = np.log1p(y), np.log1p(-y)
        low = 0.5 * (y * (up - down) + np.log1p(-y * y))
        high = 0.5 * ((1.0 + y) * up + (1.0 - y) * down)
        d = np.where(y < 0.5, low, high)
        return rate - d, down - up, rate + d

    return slope


def _expurgation(rates: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta*, value, p*) of expurgation_exponent_bec at each rate.

    The slope in theta vanishes where h(p) = ln 2 - rate, solved on
    x = 1/2 - p from D(x) = rate. Tilts >= 1 mean p >= delta/(1+delta), so x is
    searched up to x_c = 1/2 - delta/(1+delta). A root below x_c has
    theta* = ln(delta)/ln(p/(1-p)), inf at rate 0 (p = 1/2), and the value
    -p*ln(delta); a rate past D(x_c) has theta* = 1 and the unit tilt's value.
    """
    _check_delta(delta)
    ln_delta = math.log(delta)
    # Kept below 1/2 so that D'(x) stays finite for the tiniest deltas.
    x_c = min(0.5 * (1.0 - delta) / (1.0 + delta), math.nextafter(0.5, 0.0))
    lo, hi = np.zeros_like(rates), np.full_like(rates, x_c)
    # D(x) >= 2x^2, so the start sqrt(rate/2) is at or right of the root.
    start = np.minimum(np.sqrt(0.5 * rates), x_c)
    x = _decreasing_root(_divergence_slope(rates), lo, hi, start)
    inner = x < x_c
    p = np.where(inner, 0.5 - x, delta / (1.0 + delta))
    with np.errstate(divide="ignore"):
        log_odds = np.log1p(-2.0 * x) - np.log1p(2.0 * x)
        # Rounding can put a root just below x_c a hair under theta = 1.
        theta = np.where(inner, np.maximum(ln_delta / log_odds, 1.0), 1.0)
    value = np.where(inner, -p * ln_delta, LN2 - rates - math.log1p(delta))
    return theta, value, p


def expurgation_exponent_bec(rate: float, delta: float) -> OptResult:
    """max over theta >= 1 of theta*(ln 2 - rate - ln(1 + delta^(1/theta))).

    It equals min -p*ln(delta) + (ln 2 - rate) - h(p) over p in [0, 1/2] with
    h(p) >= ln 2 - rate, attained at p_star: the objective is convex and
    stationary at delta/(1+delta), clipped to the boundary h(p) = ln 2 - rate.
    At rate 0 the supremum -(1/2) ln delta is approached as theta grows without
    bound; that limit is returned with theta_star = inf and form 'closed-limit'.
    """
    _check_delta(delta)
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    theta, value, p = _expurgation(np.array([rate]), delta)
    form = "closed-limit" if rate == 0.0 else "max-theta"
    return OptResult(float(value[0]), float(theta[0]), float(p[0]), form)


def bsc_delta(eps: float) -> float:
    """Erasure probability (1 - 2*eps)^2 of the erasure channel that dominates
    a bit-flip channel with crossover eps in (0, 1/2)."""
    if not 0.0 < eps < 0.5:
        raise DegenerateParameterError(f"eps={eps} must lie strictly in (0, 1/2)")
    return (1.0 - 2.0 * eps) ** 2


def critical_rate(eps: float) -> float:
    """Largest rate at which the bit-flip random-coding optimizer sits at theta = 1."""
    bsc_delta(eps)  # raises on eps outside (0, 1/2)
    a = (1.0 - eps) ** 2
    b = eps * eps
    return -(a * math.log(1.0 - eps) + b * math.log(eps)) / (a + b)


def expurgation_rate(delta: float) -> float:
    """Smallest rate at which the expurgation optimizer sits at theta = 1.

    Stationarity of theta*(ln 2 - R - ln(1 + delta^(1/theta))) at theta = 1
    gives ln 2 - ln(1+delta) + delta*ln(delta)/(1+delta); note ln(delta) < 0.
    """
    _check_delta(delta)
    return LN2 - math.log1p(delta) + delta * math.log(delta) / (1.0 + delta)


def curve(
    kind: str,
    channel: ChannelSpec,
    r_min: float,
    r_max: float,
    steps: int,
    clamp: bool = False,
) -> CurveTable:
    """Sample one exponent curve on `steps` evenly spaced rates in [r_min, r_max].

    The 'er-*' kinds read the tilt terms of `channel`, the 'ex-*' kinds its
    virtual erasure probability: 1 - eps for an erasure channel, bsc_delta(eps)
    for a bit-flip one. A kind with a family in CURVE_FAMILY takes only a
    channel of that family. The rates are solved _CSV_ROWS at a time by one
    batched root-find, which bounds its temporaries; each point equals the
    scalar exponent function at its rate.

    With `clamp`, negative values are emitted as 0 (figure convention); the
    reported optimizer location is left untouched.
    """
    if kind not in CURVE_FAMILY:
        raise ValueError(f"unknown curve kind {kind!r}")
    family = CURVE_FAMILY[kind]
    if family not in (None, channel.family):
        raise ValueError(
            f"curve kind {kind!r} needs a {family}:<eps> channel descriptor, "
            f"got {channel.describe()!r}"
        )
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if steps > _MAX_CURVE_STEPS:
        raise SizeLimitError(f"steps={steps} above the cap of {_MAX_CURVE_STEPS}")
    if not 0.0 <= r_min < r_max < math.inf:
        raise ValueError("need 0 <= r_min < r_max < inf")
    rates = r_min + (r_max - r_min) * np.arange(steps) / (steps - 1)
    rates[-1] = r_max
    ex = kind.startswith("ex-")
    if ex:
        # For an erasure channel the virtual one erases what the eavesdropper keeps.
        delta = 1.0 - channel.eps if channel.family == "bec" else bsc_delta(channel.eps)
    else:
        terms = _tilt_terms(channel)
    theta, value = np.empty_like(rates), np.empty_like(rates)
    for lo in range(0, steps, _CSV_ROWS):
        block = rates[lo:lo + _CSV_ROWS]
        solved = _expurgation(block, delta)[:2] if ex else _max_tilt(terms, block)
        theta[lo:lo + _CSV_ROWS], value[lo:lo + _CSV_ROWS] = solved
    if clamp:
        value[value < 0.0] = 0.0
    return CurveTable(rates, value, theta)
