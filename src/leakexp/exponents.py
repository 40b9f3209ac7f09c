"""Error-exponent curves for secrecy rates over binary side channels.

Random-coding exponents are concave maximizations over a tilt parameter in
[0, 1]. For either channel family and for any JointSource they use one
evaluator of the tilted source, -log1p(sum m*expm1(theta*l)) over its
(mass, ln P(x|z)) terms, which keeps its relative precision as theta -> 0.
Expurgation-style exponents maximize over tilts >= 1, handled on the
reciprocal axis u = 1/theta in (0, 1]. All optimizations use golden-section
search to an interval of 1e-10 with explicit endpoint comparison, so boundary
optimizers come back exact. Values are raw (possibly negative); clamping to
zero is an emission-time option on `curve`, never applied inside operations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    flip-probability minimization form.
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


def _golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Maximize a concave f on [a, b] to an interval of 1e-10; returns the best
    of both endpoints and the interior point, preferring a then b on ties."""
    fa, fb = f(a), f(b)
    if __debug__:
        mid = 0.5 * (a + b)
        scale = max(1.0, abs(fa), abs(fb))
        assert f(mid) >= 0.5 * (fa + fb) - 1e-9 * scale, "objective not concave"
    lo, hi = a, b
    x1 = lo + _INVPHI2 * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > _THETA_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + _INVPHI2 * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    xm = 0.5 * (lo + hi)
    fm = f(xm)
    best_x, best_f = a, fa
    if fb > best_f:
        best_x, best_f = b, fb
    if fm > best_f:
        best_x, best_f = xm, fm
    return best_x, best_f


def _tilt_terms(src: JointSource) -> tuple[tuple[float, float], ...]:
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
    terms: tuple[tuple[float, float], ...], rate: float
) -> Callable[[float], float]:
    """theta -> -ln sum_{x,z} P(x,z) P(x|z)^theta - theta*rate, the one
    evaluator of the tilted source.

    The sum is taken as log1p(sum m*expm1(theta*l)) over `terms`, exact because
    the cell masses sum to 1 (JointSource checks it to 1e-12). No l is
    positive, so the sum has no cancellation and small theta keeps its
    relative precision. Written 0.0 - x so that theta = 0 gives +0.0.
    """

    def objective(theta: float) -> float:
        total = 0.0
        for mass, ell in terms:
            total += mass * math.expm1(theta * ell)
        return 0.0 - math.log1p(total) - theta * rate

    return objective


def _max_tilt(terms: tuple[tuple[float, float], ...], rate: float) -> OptResult:
    theta, value = _golden_max(_tilted_objective(terms, rate), 0.0, 1.0)
    return OptResult(value=value, theta_star=theta, p_star=None, form="max-theta")


def renyi_exponent(theta: float, src: JointSource) -> float:
    """-ln sum_{x,z} P(x,z)^(1+theta) P(z)^(-theta), zero cells contributing 0.

    Equals theta times a conditional Renyi entropy of order 1+theta; it
    vanishes at theta = 0 and its slope there is H(X|Z).
    """
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    return _tilted_objective(_tilt_terms(src), 0.0)(theta)


def random_coding_exponent(rate: float, src: JointSource) -> OptResult:
    """max over theta in [0, 1] of renyi_exponent(theta) - theta*rate.

    Zero (at theta = 0) once the rate reaches H(X|Z)."""
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    return _max_tilt(_tilt_terms(src), rate)


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


def expurgation_exponent_bec(rate: float, delta: float) -> OptResult:
    """max over theta >= 1 of theta*(ln 2 - rate - ln(1 + delta^(1/theta))).

    Solved on u = 1/theta in (0, 1] (floored at 1e-9). At rate 0 the supremum
    -(1/2) ln delta is approached as theta grows without bound; that analytic
    limit is returned with form 'closed-limit'.
    """
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
    ln_delta = math.log(delta)
    gap = LN2 - rate

    def g(u: float) -> float:
        return (gap - math.log1p(math.exp(u * ln_delta))) / u

    # Search the flipped axis s = 1 - u so ties prefer the theta = 1 endpoint.
    s_star, value = _golden_max(lambda s: g(1.0 - s), 0.0, 1.0 - _U_FLOOR)
    u_best = 1.0 - s_star
    return OptResult(value=value, theta_star=1.0 / u_best, p_star=None, form="max-theta")


def expurgation_exponent_bsc(rate: float, eps: float) -> OptResult:
    """Expurgation-style lower bound for a bit-flip side channel via its
    dominating erasure channel: delta = (1 - 2*eps)^2."""
    if not 0.0 < eps < 0.5:
        raise DegenerateParameterError(f"eps={eps} must lie strictly in (0, 1/2)")
    return expurgation_exponent_bec(rate, (1.0 - 2.0 * eps) ** 2)


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
        p_star, value = _golden_max(lambda p: -objective(p), p_lo, 0.5)
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
    lam_star, value = _golden_max(dual, 0.0, hi)
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


def _curve_evaluator(
    kind: str, channel_param: float | None, src: JointSource | None
) -> Callable[[float], OptResult]:
    if kind not in CURVE_FAMILY:
        raise ValueError(f"unknown curve kind {kind!r}")
    family = CURVE_FAMILY[kind]
    if family is None:
        if src is None:
            raise ValueError(f"kind {kind!r} needs a JointSource")
    elif channel_param is None:
        raise ValueError(f"kind {kind!r} needs a channel probability")
    if kind == "ex-bec":
        # The parameter is the side-channel erasure probability; the virtual
        # channel erases what the eavesdropper keeps.
        _check_delta(1.0 - channel_param)
        return lambda r: expurgation_exponent_bec(r, 1.0 - channel_param)
    if kind == "ex-bsc-reduction":
        return lambda r: expurgation_exponent_bsc(r, channel_param)
    if family is not None:
        src = ChannelSpec(family, channel_param).joint()
    terms = _tilt_terms(src)
    return lambda r: _max_tilt(terms, r)


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
    of that family; 'er-general' reads `src` instead.

    With `clamp`, negative values are emitted as 0 (figure convention); the
    reported optimizer location is left untouched.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0.0 <= r_min < r_max < math.inf:
        raise ValueError("need 0 <= r_min < r_max < inf")
    evaluator = _curve_evaluator(kind, channel_param, src)
    span = r_max - r_min
    points = []
    for i in range(steps):
        r = r_max if i == steps - 1 else r_min + span * i / (steps - 1)
        opt = evaluator(r)
        val = 0.0 if clamp and opt.value < 0.0 else opt.value
        points.append(CurvePoint(r_nats=r, value_nats=val, theta_star=opt.theta_star))
    return CurveTable(points=tuple(points))
