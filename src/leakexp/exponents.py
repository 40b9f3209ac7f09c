"""Error-exponent curves for secrecy rates over binary side channels.

Random-coding exponents are concave maximizations over a tilt parameter in
[0, 1]. For either channel family and for any JointSource they use one
evaluator of the tilted source, -log1p(sum m*expm1(theta*l)) over its
(mass, ln P(x|z)) terms, which keeps its relative precision as theta -> 0.
Expurgation-style exponents maximize over tilts >= 1, handled on the
reciprocal axis u = 1/theta in (0, 1]. One golden-section search, batched over
the rates of a curve, solves every optimization; it compares endpoints, so
boundary optimizers come back exact, and stops at a 1e-10 interval, but at a
flat interior optimum theta_star is good only to about 1e-6 relative (the
value to rounding). Values are raw (possibly negative); clamping to zero is an
emission-time option on `curve`, never applied inside operations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import ChannelSpec, JointSource, bec_joint, bsc_joint
from .errors import DegenerateParameterError

__all__ = [
    "OptResult",
    "CurvePoint",
    "CurveTable",
    "renyi_exponent",
    "random_coding_exponent",
    "random_coding_exponent_bec",
    "random_coding_exponent_bsc",
    "expurgation_exponent_bec",
    "expurgation_exponent_bsc",
    "expurgation_exponent_min_form",
    "lagrangian_dual",
    "lagrangian_dual_max",
    "critical_rate",
    "expurgation_rate",
    "curve",
    "CURVE_FAMILY",
    "CURVE_KINDS",
]

LN2 = math.log(2.0)

_THETA_TOL = 1e-10
_U_FLOOR = 1e-9
_BISECT_TOL = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = _INVPHI * _INVPHI
_Terms = tuple[tuple[float, float], ...]  # (mass, ln P(x|z)) of a tilted source

# Each curve kind and the channel family ('bec' or 'bsc') of the probability
# it takes; None marks a kind that takes a JointSource instead.
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
    attained, flagged by form 'closed-limit'); `p_star` is set only by the
    flip-probability minimization form. An interior `theta_star` is good to
    about 1e-6 relative, not to the search's 1e-10 interval: the objective is
    flat there, and differences below rounding cannot steer the search.
    """

    value: float
    theta_star: float | None
    p_star: float | None
    form: str


@dataclass(frozen=True)
class CurvePoint:
    r_nats: float
    value_nats: float
    theta_star: float | None


@dataclass(frozen=True)
class CurveTable:
    """Sampled exponent curve; rates strictly increasing, values finite."""

    points: tuple[CurvePoint, ...]

    def to_csv(self) -> str:
        lines = ["R_nats,value_nats,R_bits,value_bits,theta_star"]
        for p in self.points:
            theta = "" if p.theta_star is None else _fmt(p.theta_star)
            lines.append(
                f"{_fmt(p.r_nats)},{_fmt(p.value_nats)},"
                f"{_fmt(p.r_nats / LN2)},{_fmt(p.value_nats / LN2)},{theta}"
            )
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _xlnx(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


def _binary_entropy(p: float) -> float:
    """Binary entropy in nats; h(0) = h(1) = 0."""
    return -_xlnx(p) - _xlnx(1.0 - p)


def _golden_max(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize m concave problems at once, problem i on [a[i], b[i]]; f maps
    m points to their m values. Each problem stops at its own interval of 1e-10
    and returns the best of both endpoints and the interior point, preferring a
    then b on ties: the same steps and float arithmetic as a search of it alone."""
    fa, fb = f(a), f(b)
    if __debug__:
        scale = np.maximum(1.0, np.maximum(abs(fa), abs(fb)))
        fmid = f(0.5 * (a + b))
        assert np.all(fmid >= 0.5 * (fa + fb) - 1e-9 * scale), "objective not concave"
    lo, hi = a, b
    x1 = lo + _INVPHI2 * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    # All step until the last stops; each keeps the interval it stopped at.
    end_lo, end_hi = lo, hi
    active = hi - lo > _THETA_TOL
    while active.any():
        # f1 >= f2 keeps [lo, x2] and probes a new x1, else [x1, hi] and a new x2.
        left = f1 >= f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        kept, f_kept = np.where(left, x1, x2), np.where(left, f1, f2)
        x = lo + np.where(left, _INVPHI2, _INVPHI) * (hi - lo)
        fx = f(x)
        x1, f1 = np.where(left, x, kept), np.where(left, fx, f_kept)
        x2, f2 = np.where(left, kept, x), np.where(left, f_kept, fx)
        end_lo, end_hi = np.where(active, lo, end_lo), np.where(active, hi, end_hi)
        active &= hi - lo > _THETA_TOL
    xm = 0.5 * (end_lo + end_hi)
    fm = f(xm)
    best_x, best_f = np.where(fb > fa, b, a), np.where(fb > fa, fb, fa)
    return np.where(fm > best_f, xm, best_x), np.where(fm > best_f, fm, best_f)


def _scalar_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    x, fx = _golden_max(np.vectorize(f, otypes=[float]), np.array([a]), np.array([b]))
    return float(x[0]), float(fx[0])


def _tilt_terms(src: JointSource) -> _Terms:
    """(mass, ln P(x|z)) for the cells of `src` with 0 < P(x|z) < 1, cells with
    equal log-ratios merged into one term. Cells with P(x|z) = 1 add nothing
    to the tilt and are left out."""
    pz = src.p_z()
    merged: dict[float, float] = {}
    for row in src.probs:
        for p, q in zip(row, pz):
            if 0.0 < p < q:
                ell = math.log(p / q)
                merged[ell] = merged.get(ell, 0.0) + p
    return tuple((mass, ell) for ell, mass in merged.items())


def _tilted_objective(
    terms: _Terms, rate: np.ndarray | float
) -> Callable[[np.ndarray], np.ndarray]:
    """theta -> -ln sum_{x,z} P(x,z) P(x|z)^theta - theta*rate, elementwise
    over arrays of tilts and rates; the one evaluator of the tilted source.

    The sum is taken as log1p(sum m*expm1(theta*l)) over `terms`, exact because
    the cell masses sum to 1 (JointSource checks it to 1e-12). No l is
    positive, so the sum has no cancellation and small theta keeps its
    relative precision. Written 0.0 - x so that theta = 0 gives +0.0.
    """

    def objective(theta: np.ndarray) -> np.ndarray:
        total = 0.0
        for mass, ell in terms:
            total += mass * np.expm1(theta * ell)
        return 0.0 - np.log1p(total) - theta * rate

    return objective


def _max_tilt(terms: _Terms, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta*, value) of the random-coding exponent at each rate."""
    return _golden_max(_tilted_objective(terms, rates), np.zeros_like(rates), np.ones_like(rates))


def renyi_exponent(theta: float, src: JointSource) -> float:
    """-ln sum_{x,z} P(x,z)^(1+theta) P(z)^(-theta), zero cells contributing 0.

    Equals theta times a conditional Renyi entropy of order 1+theta; it
    vanishes at theta = 0 and its slope there is H(X|Z).
    """
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    return float(_tilted_objective(_tilt_terms(src), 0.0)(np.array([theta]))[0])


def random_coding_exponent(rate: float, src: JointSource) -> OptResult:
    """max over theta in [0, 1] of renyi_exponent(theta) - theta*rate.

    Zero (at theta = 0) once the rate reaches H(X|Z)."""
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    theta, value = _max_tilt(_tilt_terms(src), np.array([rate]))
    return OptResult(float(value[0]), float(theta[0]), None, "max-theta")


def random_coding_exponent_bec(rate: float, eps: float) -> OptResult:
    """random_coding_exponent of an erasure channel; its objective is
    -ln((1-eps) + eps*2^-theta) - theta*rate."""
    return random_coding_exponent(rate, bec_joint(eps))


def random_coding_exponent_bsc(rate: float, eps: float) -> OptResult:
    """random_coding_exponent of a bit-flip channel; its objective is
    -ln((1-eps)^(1+theta) + eps^(1+theta)) - theta*rate."""
    return random_coding_exponent(rate, bsc_joint(eps))


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise DegenerateParameterError(
            f"virtual erasure probability delta={delta} must lie strictly in (0, 1)"
        )


def _expurgation_tilt(rates: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(theta*, value) of expurgation_exponent_bec at each rate (inf at rate 0)."""
    _check_delta(delta)
    ln_delta = math.log(delta)
    theta = np.full(len(rates), math.inf)
    value = np.full(len(rates), -0.5 * ln_delta)
    pos = rates > 0.0
    gap = LN2 - rates[pos]

    # Search the flipped axis s = 1 - u so ties prefer the theta = 1 endpoint.
    def g(s: np.ndarray) -> np.ndarray:
        return (gap - np.log1p(np.exp((1.0 - s) * ln_delta))) / (1.0 - s)

    s_star, value[pos] = _golden_max(g, np.zeros_like(gap), np.full_like(gap, 1.0 - _U_FLOOR))
    theta[pos] = 1.0 / (1.0 - s_star)
    return theta, value


def expurgation_exponent_bec(rate: float, delta: float) -> OptResult:
    """max over theta >= 1 of theta*(ln 2 - rate - ln(1 + delta^(1/theta))).

    Solved on u = 1/theta in (0, 1] (floored at 1e-9). At rate 0 the supremum
    -(1/2) ln delta is approached as theta grows without bound; that analytic
    limit is returned with form 'closed-limit'.
    """
    _check_delta(delta)
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    theta, value = _expurgation_tilt(np.array([rate]), delta)
    form = "closed-limit" if rate == 0.0 else "max-theta"
    return OptResult(float(value[0]), float(theta[0]), None, form)


def _bsc_delta(eps: float) -> float:
    if not 0.0 < eps < 0.5:
        raise DegenerateParameterError(f"eps={eps} must lie strictly in (0, 1/2)")
    return (1.0 - 2.0 * eps) ** 2


def expurgation_exponent_bsc(rate: float, eps: float) -> OptResult:
    """Expurgation-style lower bound for a bit-flip side channel via its
    dominating erasure channel: delta = (1 - 2*eps)^2."""
    return expurgation_exponent_bec(rate, _bsc_delta(eps))


def _constraint_boundary(rate: float) -> float:
    """Smallest p in [0, 1/2] with binary entropy >= ln 2 - rate, by bisection."""
    target = LN2 - rate
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def expurgation_exponent_min_form(rate: float, delta: float) -> OptResult:
    """Equivalent minimization over the virtual flip probability p:

        min -p*ln(delta) + (ln 2 - rate) - h(p)
        over p in [0, 1/2] with h(p) >= ln 2 - rate.
    """
    _check_delta(delta)
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    if rate > LN2 + 1e-12:
        raise ValueError("rate above ln 2 leaves no feasible p")
    rate = min(rate, LN2)
    ln_delta = math.log(delta)
    gap = LN2 - rate

    def objective(p: float) -> float:
        return -p * ln_delta + gap - _binary_entropy(p)

    p_lo = _constraint_boundary(rate)
    if 0.5 - p_lo <= _THETA_TOL:
        p_star, value = p_lo, objective(p_lo)
    else:
        p_star, value = _scalar_max(lambda p: -objective(p), p_lo, 0.5)
        value = -value
    return OptResult(value=value, theta_star=None, p_star=p_star, form="min-p")


def lagrangian_dual(lam: float, rate: float, delta: float) -> float:
    """Dual value at multiplier lam >= 0 for the min-form program; the inner
    minimization over p is solved in closed form at p* = t/(1+t), t = delta^(1/(1+lam))."""
    _check_delta(delta)
    if lam < 0.0:
        raise ValueError("multiplier must be >= 0")
    theta = 1.0 + lam
    t = math.exp(math.log(delta) / theta)
    p_star = t / (1.0 + t)
    return -p_star * math.log(delta) + theta * (LN2 - rate - _binary_entropy(p_star))


def lagrangian_dual_max(rate: float, delta: float) -> OptResult:
    """max over lam >= 0 of lagrangian_dual; bracket found by doubling."""
    _check_delta(delta)
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    if rate == 0.0:
        return OptResult(
            value=-0.5 * math.log(delta),
            theta_star=math.inf,
            p_star=None,
            form="closed-limit",
        )
    dual = lambda lam: lagrangian_dual(lam, rate, delta)
    hi = 1.0
    while hi < 2.0**40 and dual(hi) >= dual(hi / 2.0):
        hi *= 2.0
    lam_star, value = _scalar_max(dual, 0.0, hi)
    return OptResult(value=value, theta_star=1.0 + lam_star, p_star=None, form="max-theta")


def critical_rate(eps: float) -> float:
    """Largest rate at which the bit-flip random-coding optimizer sits at theta = 1."""
    if not 0.0 < eps < 0.5:
        raise DegenerateParameterError(f"eps={eps} must lie strictly in (0, 1/2)")
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
    channel_param: float | None,
    r_min: float,
    r_max: float,
    steps: int,
    clamp: bool = False,
    src: JointSource | None = None,
) -> CurveTable:
    """Sample one exponent curve on `steps` evenly spaced rates in [r_min, r_max].

    A kind with a family in CURVE_FAMILY reads `channel_param`, a probability
    of that family; 'er-general' reads `src` instead. All rates are solved by
    one batched search, each point equal to the scalar exponent function at
    its rate.

    With `clamp`, negative values are emitted as 0 (figure convention); the
    reported optimizer location is left untouched.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0.0 <= r_min < r_max < math.inf:
        raise ValueError("need 0 <= r_min < r_max < inf")
    if kind not in CURVE_FAMILY:
        raise ValueError(f"unknown curve kind {kind!r}")
    family = CURVE_FAMILY[kind]
    if family is None and src is None:
        raise ValueError(f"kind {kind!r} needs a JointSource")
    if family is not None and channel_param is None:
        raise ValueError(f"kind {kind!r} needs a channel probability")
    rates = r_min + (r_max - r_min) * np.arange(steps) / (steps - 1)
    rates[-1] = r_max
    if kind == "ex-bec":
        # The parameter is the side-channel erasure probability; the virtual
        # channel erases what the eavesdropper keeps.
        theta, value = _expurgation_tilt(rates, 1.0 - channel_param)
    elif kind == "ex-bsc-reduction":
        theta, value = _expurgation_tilt(rates, _bsc_delta(channel_param))
    else:
        if family is not None:
            src = ChannelSpec(family, channel_param).joint()
        theta, value = _max_tilt(_tilt_terms(src), rates)
    if clamp:
        value = np.where(value < 0.0, 0.0, value)
    points = map(CurvePoint, rates.tolist(), value.tolist(), theta.tolist())
    return CurveTable(points=tuple(points))
