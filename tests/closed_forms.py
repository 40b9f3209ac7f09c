"""Oracles for the exponents in leakexp.exponents, written apart from its
stationarity solver.

The random-coding objectives are written straight from the channel's
transition probabilities, and every optimization here (random-coding tilt,
expurgation tilt, its constrained minimum over a flip probability, Lagrangian
dual) is a pure-Python golden-section search on the objective itself, so
neither the evaluator nor the solver is shared with the library. Also here:
the joint table of each channel family, built apart from the library's tilt
terms, which the brute-force oracle reads, and closed forms over it.
"""
import math
from decimal import Decimal, localcontext

LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max_one(f, a: float, b: float) -> tuple[float, float]:
    """(x, f(x)) maximizing a concave f on [a, b], stopping at a 1e-10
    interval; the best of both ends and the final midpoint, ties preferring
    a, then b."""
    invphi2 = _INVPHI * _INVPHI
    fa, fb = f(a), f(b)
    lo, hi = a, b
    x1, x2 = lo + invphi2 * (hi - lo), lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-10:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + invphi2 * (hi - lo)
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


def h2(p: float) -> float:
    """Binary entropy in nats; h(0) = h(1) = 0."""
    return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0.0)


def er_bec(rate: float, eps: float) -> float:
    """max over theta in [0, 1] of -ln((1-eps) + eps*2^-theta) - theta*rate."""

    def objective(t: float) -> float:
        return 0.0 if t == 0.0 else -math.log((1.0 - eps) + eps * 2.0**-t) - t * rate

    return golden_max_one(objective, 0.0, 1.0)[1]


def er_bsc(rate: float, eps: float) -> float:
    """max over theta in [0, 1] of -ln((1-eps)^(1+theta) + eps^(1+theta)) - theta*rate."""

    def objective(t: float) -> float:
        if t == 0.0:
            return 0.0
        return -math.log((1.0 - eps) ** (1.0 + t) + eps ** (1.0 + t)) - t * rate

    return golden_max_one(objective, 0.0, 1.0)[1]


def er_bsc_slope(theta: float, rate: float, eps: float) -> float:
    """d/dtheta of er_bsc's objective: minus the mean of ln P(x|z) under the
    tilt (1-eps)^(1+theta) : eps^(1+theta), less the rate."""
    a, b = (1.0 - eps) ** (1.0 + theta), eps ** (1.0 + theta)
    return -(a * math.log(1.0 - eps) + b * math.log(eps)) / (a + b) - rate


def ex_tilt(rate: float, delta: float) -> tuple[float, float]:
    """(value, theta) of max over theta >= 1 of
    theta*(ln 2 - rate - ln(1 + delta^(1/theta))), searched on u = 1/theta in
    [1e-9, 1] through s = 1 - u, so that ties prefer theta = 1."""
    gap = LN2 - rate

    def objective(s: float) -> float:
        u = 1.0 - s
        return (gap - math.log1p(delta**u)) / u

    s, value = golden_max_one(objective, 0.0, 1.0 - 1e-9)
    return value, 1.0 / (1.0 - s)


def ex_min(rate: float, delta: float) -> tuple[float, float]:
    """(value, p) of the flip-probability program
    min -p*ln(delta) + (ln 2 - rate) - h(p) over p in [p_R, 1/2], where
    h(p_R) = ln 2 - rate bounds the feasible p >= p_R. p_R is found by float
    bisection on [0, 1/2], run until the midpoint repeats an end (the right
    end is kept, so h(p_R) >= ln 2 - rate), the minimum by golden-section
    search on the convex objective."""
    gap, ln_delta = LN2 - rate, math.log(delta)
    lo, hi = 0.0, 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if h2(mid) < gap:
            lo = mid
        else:
            hi = mid
    p, neg = golden_max_one(lambda p: p * ln_delta - gap + h2(p), hi, 0.5)
    return -neg, p


def lagrangian_dual(lam: float, rate: float, delta: float) -> float:
    """Dual value at multiplier lam >= 0 of the flip-probability program
    min -p*ln(delta) + (ln 2 - rate) - h(p) s.t. h(p) >= ln 2 - rate; its inner
    minimization over p is solved in closed form at p = t/(1+t),
    t = delta^(1/(1+lam))."""
    if lam < 0.0:
        raise ValueError("multiplier must be >= 0")
    theta = 1.0 + lam
    t = math.exp(math.log(delta) / theta)
    p = t / (1.0 + t)
    return -p * math.log(delta) + theta * (LN2 - rate - h2(p))


def lagrangian_dual_max(rate: float, delta: float) -> float:
    """max over lam >= 0 of lagrangian_dual, on a bracket found by doubling."""
    dual = lambda lam: lagrangian_dual(lam, rate, delta)
    hi = 1.0
    while hi < 2.0**40 and dual(hi) >= dual(hi / 2.0):
        hi *= 2.0
    return golden_max_one(dual, 0.0, hi)[1]


def ex_decimal(rate: float, delta: float, digits: int = 50) -> tuple[float, float]:
    """(value, theta) of the expurgation exponent below the expurgation rate:
    p > delta/(1+delta) solves h(p) = ln 2 - rate, by bisection in
    `digits`-digit decimal arithmetic; the value is -p*ln(delta) and
    theta = ln(delta)/ln(p/(1-p))."""
    with localcontext() as ctx:
        ctx.prec = digits
        one = Decimal(1)
        target = Decimal(2).ln() - Decimal(rate)

        def h(p: Decimal) -> Decimal:
            return -p * p.ln() - (one - p) * (one - p).ln()

        lo, hi = Decimal(delta) / (one + Decimal(delta)), Decimal("0.5")
        if not h(lo) < target:
            raise ValueError(f"rate {rate} is not below the expurgation rate of delta={delta}")
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            if h(mid) < target:
                lo = mid
            else:
                hi = mid
        p = (lo + hi) / 2
        ln_delta = Decimal(delta).ln()
        return float(-p * ln_delta), float(ln_delta / (p / (one - p)).ln())


def er_decimal(rate: float, family: str, eps: float, digits: int = 60) -> tuple[float, float]:
    """(value, theta) of the random-coding exponent in `digits`-digit decimal
    arithmetic, over the cells of joint_table with masses normalised to sum
    to 1: theta maximizes -ln sum P(x,z) P(x|z)^theta - theta*rate on [0, 1],
    found by bisection on the sign of its slope, minus the tilted mean of
    ln P(x|z) less the rate."""
    with localcontext() as ctx:
        ctx.prec = digits
        table = joint_table(family, eps)
        cells = [[Decimal(p) for p in row] for row in table]
        pz = [a + b for a, b in zip(*cells)]
        total = sum(pz)
        terms = [(p / total, (p / q).ln()) for row in cells for p, q in zip(row, pz) if p > 0]
        r = Decimal(rate)

        def tilt(t: Decimal) -> tuple[Decimal, Decimal]:
            weights = [(m * (t * ell).exp(), ell) for m, ell in terms]
            norm = sum(w for w, _ in weights)
            return norm, sum(w * ell for w, ell in weights) / norm

        lo, hi = Decimal(0), Decimal(1)
        if -tilt(lo)[1] - r <= 0:
            hi = lo
        elif -tilt(hi)[1] - r >= 0:
            lo = hi
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            if -tilt(mid)[1] - r > 0:
                lo = mid
            else:
                hi = mid
        theta = (lo + hi) / 2
        return float(-tilt(theta)[0].ln() - theta * r), float(theta)


def joint_table(family: str, eps: float) -> tuple[tuple[float, ...], ...]:
    """P(X = x, Z = z) for a uniform bit x seen as z through a 'bec' or 'bsc'
    channel, one row per x; the erasure columns are z = 0, 1, erased."""
    keep, other = (1.0 - eps) / 2.0, eps / 2.0
    if family == "bec":
        return ((keep, 0.0, other), (0.0, keep, other))
    if family == "bsc":
        return ((keep, other), (other, keep))
    raise ValueError(f"unknown channel family {family!r}")


def p_x(table) -> tuple[float, float]:
    """Marginal of the bit X of a joint table."""
    return (sum(table[0]), sum(table[1]))


def p_z(table) -> tuple[float, ...]:
    """Marginal of the observation Z of a joint table."""
    return tuple(p0 + p1 for p0, p1 in zip(*table))


def conditional_entropy_x_given_z(table) -> float:
    """H(X|Z) in nats, computed directly from a joint table."""
    pz = p_z(table)
    h = 0.0
    for row in table:
        for p, q in zip(row, pz):
            if p > 0.0:
                h -= p * math.log(p / q)
    return h


def less_noisy_erasure_param(eps: float) -> float:
    """Erasure probability 4*eps*(1-eps) of the erasure channel that dominates
    a crossover-eps bit-flip channel in the less-noisy order."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"crossover probability {eps} outside [0, 1]")
    return 4.0 * eps * (1.0 - eps)
