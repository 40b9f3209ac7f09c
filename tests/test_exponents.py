"""Tests for the exponent curves and their optimization forms.

Closed forms are pinned to hand-derived endpoint values. The library solves
each exponent where its slope vanishes; the oracles in tests/closed_forms.py
optimize by search instead (random-coding and expurgation tilt, the
expurgation exponent's constrained minimum, Lagrangian dual), and the two are
required to agree, as are the slope at the returned
tilt and the value at small rates against a 50-digit decimal oracle.
"""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import closed_forms
from leakexp import exponents
from leakexp.channels import ChannelSpec, parse_channel
from leakexp.errors import DegenerateParameterError, SizeLimitError
from leakexp.exponents import (
    _decreasing_root,
    _tilt,
    _tilt_terms,
    bsc_delta,
    critical_rate,
    curve,
    expurgation_exponent_bec,
    expurgation_rate,
    random_coding_exponent,
)

LN2 = math.log(2.0)


def renyi_exponent(theta: float, channel: ChannelSpec) -> float:
    """-ln sum_{x,z} P(x,z) P(x|z)^theta, the first term of the random-coding
    objective, from the library's one evaluator of the tilted source."""
    return float(0.0 - np.log1p(_tilt(_tilt_terms(channel), np.array([theta]))[0])[0])


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


class TestDecreasingRoot:
    """The root-finder behind every exponent, on functions with known roots."""

    @staticmethod
    def arctan_slope(c):
        # Newton from far off overshoots arctan's flat tails, so these
        # problems also take the bisection fallback.
        return lambda x: (np.arctan(c - x), -1.0 / (1.0 + (c - x) ** 2), abs(c) + abs(x))

    def test_roots_ends_and_batch_equal_each_alone(self):
        rng = np.random.default_rng(12)
        m = 40
        c = rng.uniform(-12.0, 12.0, m)
        lo, hi = np.full(m, -10.0), np.full(m, 10.0)
        start = rng.uniform(-10.0, 10.0, m)
        x = _decreasing_root(self.arctan_slope(c), lo, hi, start)
        for i in range(m):
            if c[i] <= -10.0:
                assert x[i] == -10.0
            elif c[i] >= 10.0:
                assert x[i] == 10.0
            else:
                assert abs(x[i] - c[i]) <= 1e-14 * max(1.0, abs(c[i]))
            one = slice(i, i + 1)
            alone = _decreasing_root(self.arctan_slope(c[one]), lo[one], hi[one], start[one])
            assert x[i].hex() == alone[0].hex()

    @staticmethod
    def counted_er_bsc(monkeypatch, eps, rates):
        """er-bsc's tilts at `rates`, solved through the library's own slope,
        and the number of slope evaluations the batch took."""
        calls = []

        def counted(slope, lo, hi, x):
            return _decreasing_root(lambda t: calls.append(t) or slope(t), lo, hi, x)

        monkeypatch.setattr(exponents, "_decreasing_root", counted)
        theta, _ = exponents._max_tilt(_tilt_terms(ChannelSpec("bsc", eps)), rates)
        return theta, len(calls)

    def test_flat_slope_stops_at_its_rounding_noise(self, monkeypatch):
        # Near the root of er-bsc's slope at eps = 0.45, rounding noise moves
        # Newton by about 1e-13, more than the 1e-14 step tolerance.
        eps = 0.45
        rates = np.linspace(critical_rate(eps), h2(eps), 200)
        theta, calls = self.counted_er_bsc(monkeypatch, eps, rates)
        assert calls - 2 <= 12
        for t, r in zip(theta.tolist(), rates.tolist()):
            assert abs(closed_forms.er_bsc_slope(t, r, eps)) <= 1e-13

    @pytest.mark.parametrize("eps", [0.49999, 0.4999999])
    def test_nearly_flat_slope_stops_at_its_rounding_floor(self, monkeypatch, eps):
        # The tilted variance, Newton's curvature, is 1e-10 or less here, so
        # a stop rule on step lengths alone reads rounding noise as progress.
        rates = np.linspace(critical_rate(eps), h2(eps), 5001)
        theta, calls = self.counted_er_bsc(monkeypatch, eps, rates)
        assert calls <= 12
        interior = (theta > 0.0) & (theta < 1.0)
        assert interior.sum() > 4900
        for t, r in zip(theta[interior].tolist(), rates[interior].tolist()):
            # The stated floor, 2^-51 of |mean| + rate, with |mean| = rate at
            # the root.
            assert abs(closed_forms.er_bsc_slope(t, r, eps)) <= 2.0**-51 * 2 * r

    def test_root_at_an_end_is_that_end(self):
        # value 0 at lo means a root there, not a search
        slope = lambda x: (-x, -np.ones_like(x), abs(x))
        got = _decreasing_root(slope, np.array([0.0, -1.0]), np.array([1.0, 0.0]), np.array([0.5, -0.5]))
        assert got.tolist() == [0.0, 0.0]


class TestRenyiExponent:
    def test_zero_tilt_is_exactly_zero(self):
        assert renyi_exponent(0.0, ChannelSpec("bec", 0.3)) == 0.0
        assert renyi_exponent(0.0, ChannelSpec("bsc", 0.3)) == 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_bec_closed_form(self, eps):
        for theta in (0.25, 0.5, 1.0):
            expect = -math.log((1 - eps) + eps * 2.0**-theta)
            assert abs(renyi_exponent(theta, ChannelSpec("bec", eps)) - expect) <= 1e-12

    def test_bsc_quarter_at_unit_tilt(self):
        got = renyi_exponent(1.0, ChannelSpec("bsc", 0.25))
        assert abs(got - (-math.log(0.625))) <= 1e-12

    @pytest.mark.parametrize(
        "src", [ChannelSpec("bec", 0.3), ChannelSpec("bsc", 0.11), ChannelSpec("bsc", 0.4)]
    )
    def test_slope_at_zero_is_conditional_entropy(self, src):
        fd = (renyi_exponent(1e-6, src) - renyi_exponent(0.0, src)) / 1e-6
        table = closed_forms.joint_table(src.family, src.eps)
        assert abs(fd - closed_forms.conditional_entropy_x_given_z(table)) <= 1e-5

    @pytest.mark.parametrize("channel", ["bec:0.3", "bec:0.9", "bsc:0.11", "bsc:0.4"])
    @pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0])
    def test_relative_accuracy_toward_zero_tilt(self, channel, theta):
        # 60-digit reference over the same cells, masses normalised to sum to 1
        src = parse_channel(channel)
        with localcontext() as ctx:
            ctx.prec = 60
            table = closed_forms.joint_table(src.family, src.eps)
            cells = [[Decimal(p) for p in row] for row in table]
            pz = [a + b for a, b in zip(*cells)]
            mass = sum(pz)
            t = Decimal(theta)
            total = sum(
                p / mass * (t * (p / q).ln()).exp()
                for row in cells
                for p, q in zip(row, pz)
                if p > 0
            )
            ref = float(-total.ln())
        assert abs(renyi_exponent(theta, src) - ref) <= 1e-14 * ref


class TestRandomCodingExponent:
    def test_zero_rate_erasure_half(self):
        got = random_coding_exponent(0.0, ChannelSpec("bec", 0.5))
        assert abs(got.value - 0.287682072452) <= 1e-9
        assert got.theta_star == 1.0
        assert got.form == "max-theta"

    def test_zero_rate_bitflip(self):
        got = random_coding_exponent(0.0, ChannelSpec("bsc", 0.11))
        assert abs(got.value - (-math.log(0.89**2 + 0.11**2))) <= 1e-9

    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
    def test_generic_matches_bec_closed_form(self, eps):
        src = ChannelSpec("bec", eps)
        for r in grid(0.0, LN2, 50):
            a = random_coding_exponent(r, src).value
            assert abs(a - closed_forms.er_bec(r, eps)) <= 1e-9

    @pytest.mark.parametrize("eps", [0.11, 0.25])
    def test_generic_matches_bsc_closed_form(self, eps):
        src = ChannelSpec("bsc", eps)
        for r in grid(0.0, LN2, 50):
            a = random_coding_exponent(r, src).value
            assert abs(a - closed_forms.er_bsc(r, eps)) <= 1e-9

    def test_vanishes_exactly_beyond_conditional_entropy(self):
        got = random_coding_exponent(0.5 * LN2 + 1e-3, ChannelSpec("bec", 0.5))
        assert got.value == 0.0 and got.theta_star == 0.0
        got = random_coding_exponent(h2(0.11) + 1e-3, ChannelSpec("bsc", 0.11))
        assert got.value == 0.0 and got.theta_star == 0.0

    def test_tilt_stays_in_unit_interval(self):
        for r in grid(0.0, LN2, 20):
            t = random_coding_exponent(r, ChannelSpec("bsc", 0.25)).theta_star
            assert 0.0 <= t <= 1.0

    def test_nonincreasing_in_rate(self):
        vals = [random_coding_exponent(r, ChannelSpec("bec", 0.5)).value for r in grid(0.0, LN2, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            random_coding_exponent(-0.1, ChannelSpec("bec", 0.5))
        with pytest.raises(ValueError):
            random_coding_exponent(-0.1, ChannelSpec("bsc", 0.5))


class TestExpurgationExponent:
    def test_zero_rate_closed_limit(self):
        got = expurgation_exponent_bec(0.0, 0.5)
        assert abs(got.value - 0.346573590280) <= 1e-9
        assert got.form == "closed-limit"
        assert got.theta_star == math.inf

    def test_zero_rate_limit_matches_small_u_evaluation(self):
        # the objective at u = 1e-6 should approach the reported supremum
        delta = 0.5
        u = 1e-6
        g = (LN2 - math.log(1 + delta**u)) / u
        assert abs(g - expurgation_exponent_bec(0.0, delta).value) <= 1e-6

    def test_full_rate_unit_tilt(self):
        got = expurgation_exponent_bec(LN2, 0.5)
        assert abs(got.value - math.log(2.0 / 3.0)) <= 1e-9
        assert got.theta_star == 1.0

    def test_raw_values_may_be_negative(self):
        assert expurgation_exponent_bec(LN2, 0.5).value < 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate must be >= 0"):
            expurgation_exponent_bec(-0.1, 0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.3])
    def test_degenerate_delta_rejected(self, delta):
        with pytest.raises(DegenerateParameterError):
            expurgation_exponent_bec(0.1, delta)

    @pytest.mark.parametrize("delta", [0.25, 0.3916, 0.5, 0.6084])
    def test_tilt_transition_at_expurgation_rate(self, delta):
        rx = expurgation_rate(delta)
        below = expurgation_exponent_bec(max(rx - 0.01, 1e-4), delta).theta_star
        above = expurgation_exponent_bec(rx + 0.01, delta).theta_star
        assert below > 1.0 + 1e-6
        assert abs(above - 1.0) <= 1e-8

    def test_tilt_at_least_one(self):
        for r in grid(0.01, LN2, 25):
            t = expurgation_exponent_bec(r, 0.4).theta_star
            assert t >= 1.0

    def test_nonincreasing_in_rate(self):
        vals = [expurgation_exponent_bec(r, 0.5).value for r in grid(0.01, LN2, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("delta", [1e-6, 0.1, 0.5, 0.9])
    def test_zero_rate_is_exact_half_flip(self, delta):
        # rate 0 is p = 1/2 exactly, not a root found next to it
        got = expurgation_exponent_bec(0.0, delta)
        assert got.value == -0.5 * math.log(delta) and got.p_star == 0.5

    @pytest.mark.parametrize(
        "rate, delta, tol",
        [
            # h(p) = ln 2 - rate puts p within sqrt(rate/2) of 1/2
            (1e-12, 0.5, 1e-14),
            (1e-8, 0.5, 1e-14),
            (1e-4, 0.5, 1e-14),
            # p near 1e-4, held by x = 1/2 - p to about 5e-13 relative
            (0.692, 1e-9, 2e-12),
        ],
    )
    def test_matches_decimal_oracle(self, rate, delta, tol):
        value, theta = closed_forms.ex_decimal(rate, delta)
        got = expurgation_exponent_bec(rate, delta)
        assert abs(got.value - value) <= tol * value
        assert abs(got.theta_star - theta) <= tol * theta


class TestMinFormAndDuality:
    """The library's stationarity solution, with its flip probability p_star,
    against three oracles that optimize by search: the tilt objective on
    u = 1/theta, the constrained minimum over p and the Lagrangian dual."""

    def test_full_rate_unconstrained_minimum(self):
        # at full rate the constraint is vacuous; stationarity gives
        # p = delta/(1+delta)
        got = expurgation_exponent_bec(LN2, 0.5)
        assert abs(got.p_star - 1.0 / 3.0) <= 1e-8
        assert abs(got.value - math.log(2.0 / 3.0)) <= 1e-9
        value, p = closed_forms.ex_min(LN2, 0.5)
        assert abs(p - 1.0 / 3.0) <= 1e-6 and abs(value - got.value) <= 1e-12

    def test_tiny_rate_pins_flip_probability(self):
        rate = 1e-6
        got = expurgation_exponent_bec(rate, 0.5)
        assert abs(got.p_star - 0.5) <= 1e-3
        # converges to the zero-rate supremum at sqrt speed
        assert abs(got.value - 0.5 * LN2) <= 6e-4

    @staticmethod
    def assert_forms_agree(r, delta, tol):
        got = expurgation_exponent_bec(r, delta)
        tilt, theta = closed_forms.ex_tilt(r, delta)
        primal, p = closed_forms.ex_min(r, delta)
        du = closed_forms.lagrangian_dual_max(r, delta)
        # p_star is the tilt's stationary point and the constrained minimizer
        t = delta ** (1.0 / got.theta_star)
        assert abs(got.p_star - t / (1.0 + t)) <= 1e-12
        assert abs(got.p_star - p) <= 1e-6
        assert abs(got.value - tilt) <= tol
        assert abs(got.value - primal) <= tol
        assert abs(got.value - du) <= tol
        assert abs(got.theta_star - theta) <= 1e-4 * theta

    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
    def test_three_forms_agree(self, delta):
        for r in grid(0.02, LN2 - 0.02, 15):
            self.assert_forms_agree(r, delta, 1e-6)

    @pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.999, 1.0 - 1e-6])
    def test_three_forms_agree_toward_extreme_delta(self, delta):
        # accuracy of expurgation_exponent_bec as delta -> 0 and -> 1
        for r in grid(0.02, LN2 - 0.02, 40):
            self.assert_forms_agree(r, delta, 1e-10)

    def test_dual_at_zero_multiplier_is_unit_tilt_objective(self):
        r, delta = 0.2, 0.5
        got = closed_forms.lagrangian_dual(0.0, r, delta)
        assert abs(got - (LN2 - r - math.log(1 + delta))) <= 1e-12

    def test_dual_concave_in_multiplier(self):
        r, delta = 0.2, 0.5
        lams = grid(0.0, 6.0, 30)
        vals = [closed_forms.lagrangian_dual(l, r, delta) for l in lams]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b >= (a + c) / 2 - 1e-9

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            closed_forms.lagrangian_dual(-0.5, 0.2, 0.5)


class TestReductionExponent:
    def test_interval_closed_form(self):
        for eps in (0.11, 0.25):
            delta = (1 - 2 * eps) ** 2
            lo, hi = expurgation_rate(delta), critical_rate(eps)
            assert lo <= hi
            for r in grid(lo, hi, 12):
                expect = -math.log((1 - eps) ** 2 + eps**2) - r
                assert abs(expurgation_exponent_bec(r, bsc_delta(eps)).value - expect) <= 1e-9
                assert abs(random_coding_exponent(r, ChannelSpec("bsc", eps)).value - expect) <= 1e-9

    def test_zero_rate_quarter(self):
        got = expurgation_exponent_bec(0.0, bsc_delta(0.25))
        assert abs(got.value - LN2) <= 1e-12
        assert got.form == "closed-limit" and got.p_star == 0.5

    def test_grows_with_eavesdropper_noise(self):
        # more crossover noise means a weaker eavesdropper and a larger
        # exponent; toward eps = 0 the virtual channel stops erasing and
        # secrecy vanishes
        vals = [expurgation_exponent_bec(0.05, bsc_delta(e)).value for e in (0.05, 0.1, 0.2, 0.3)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert expurgation_exponent_bec(0.05, bsc_delta(1e-6)).value < 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.7, -0.1])
    def test_degenerate_eps_rejected(self, eps):
        with pytest.raises(DegenerateParameterError):
            expurgation_exponent_bec(0.1, bsc_delta(eps))


class TestCharacteristicRates:
    def test_critical_rate_is_slope_at_unit_tilt(self):
        def psi(t, e):
            return -math.log((1 - e) ** (1 + t) + e ** (1 + t))

        for eps in (0.11, 0.25, 0.45):
            fd = (psi(1 + 5e-6, eps) - psi(1 - 5e-6, eps)) / 1e-5
            assert abs(fd - critical_rate(eps)) <= 1e-8

    def test_critical_rate_transition(self):
        for eps in (0.11, 0.25):
            rc = critical_rate(eps)
            assert random_coding_exponent(rc - 0.01, ChannelSpec("bsc", eps)).theta_star == 1.0
            assert random_coding_exponent(rc + 0.01, ChannelSpec("bsc", eps)).theta_star < 1.0 - 1e-6

    def test_critical_rate_limit_toward_half(self):
        assert abs(critical_rate(0.4999999) - LN2) <= 1e-5

    def test_expurgation_rate_limit_toward_one(self):
        assert abs(expurgation_rate(1 - 1e-9)) <= 1e-6

    def test_interval_not_empty(self):
        for eps in (0.11, 0.25):
            assert expurgation_rate((1 - 2 * eps) ** 2) <= critical_rate(eps)

    def test_degenerate_parameters_rejected(self):
        for eps in (0.0, 0.5, 0.9):
            with pytest.raises(DegenerateParameterError):
                critical_rate(eps)
        for delta in (0.0, 1.0):
            with pytest.raises(DegenerateParameterError):
                expurgation_rate(delta)


SCALAR_CASES = [
    # er-general takes a channel of either family, given in full; a family
    # kind gives only its probability.
    ("er-general", None, ChannelSpec("bsc", 0.11),
     lambda r: random_coding_exponent(r, ChannelSpec("bsc", 0.11))),
    ("er-bec", 0.3, None, lambda r: random_coding_exponent(r, ChannelSpec("bec", 0.3))),
    ("er-bsc", 0.11, None, lambda r: random_coding_exponent(r, ChannelSpec("bsc", 0.11))),
    ("ex-bec", 0.3, None, lambda r: expurgation_exponent_bec(r, 0.7)),
    ("ex-bsc-reduction", 0.11, None, lambda r: expurgation_exponent_bec(r, bsc_delta(0.11))),
]


def assert_points_equal_scalar_calls(kind, param, src, scalar, steps):
    channel = src or ChannelSpec(exponents.CURVE_FAMILY[kind], param)
    table = curve(kind, channel, 0.0, LN2, steps)
    thetas = table.theta_star.tolist()
    for r, value, theta in zip(table.r_nats.tolist(), table.value_nats.tolist(), thetas):
        opt = scalar(r)
        assert value.hex() == opt.value.hex()
        assert theta.hex() == opt.theta_star.hex()
    if kind.startswith("ex-"):
        # the rate-0 closed limit
        assert thetas[0] == math.inf and thetas[1] < math.inf
    else:
        # the zero tail beyond the conditional entropy
        assert thetas[-1] == 0.0 and thetas[0] == 1.0


class TestCurve:
    def test_header_and_formatting(self):
        table = curve("er-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 3)
        text = "".join(table.to_csv())
        lines = text.split("\n")
        assert lines[0] == "R_nats,value_nats,R_bits,value_bits,theta_star"
        assert len(lines) == 5 and lines[-1] == ""
        assert text.endswith("\n") and "\r" not in text

    def test_rates_strictly_increasing_and_endpoint_exact(self):
        table = curve("ex-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 37)
        rs = table.r_nats
        assert np.all(rs[:-1] < rs[1:])
        assert rs[0] == 0.0 and rs[-1] == LN2

    def test_clamp_floors_negative_values(self):
        raw = curve("ex-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 20)
        clamped = curve("ex-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 20, clamp=True)
        assert raw.value_nats.min() < 0.0
        assert clamped.value_nats.min() == 0.0
        assert np.array_equal(clamped.value_nats, np.maximum(raw.value_nats, 0.0))
        assert np.array_equal(clamped.theta_star, raw.theta_star)

    def test_erasure_curve_maps_channel_to_virtual_erasure(self):
        # channel parameter is the eavesdropper erasure probability eps;
        # the zero-rate value reflects delta = 1 - eps
        table = curve("ex-bec", ChannelSpec("bec", 0.2), 0.0, 0.1, 2)
        assert abs(table.value_nats[0] - (-0.5 * math.log(0.8))) <= 1e-9

    def test_er_curve_zero_tail(self):
        table = curve("er-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 80)
        tail = table.r_nats >= 0.5 * LN2
        assert np.all(table.value_nats[tail] == 0.0)
        assert np.all(table.theta_star[tail] == 0.0)

    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
    def test_er_bec_tilt_near_closed_form_maximizer(self, eps):
        # theta* = log2(eps (ln 2 - R) / (R (1 - eps))) clipped to [0, 1]
        table = curve("er-bec", ChannelSpec("bec", eps), 0.0, LN2, 200)
        for r, theta in zip(table.r_nats.tolist(), table.theta_star.tolist()):
            if r == 0.0:
                expect = 1.0
            elif r == LN2:
                expect = 0.0
            else:
                expect = min(1.0, max(0.0, math.log2(eps * (LN2 - r) / (r * (1.0 - eps)))))
            assert abs(theta - expect) <= 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.11, 0.25, 0.4])
    def test_er_bsc_tilt_is_stationary(self, eps):
        table = curve("er-bsc", ChannelSpec("bsc", eps), 0.0, LN2, 200)
        interior = [
            (theta, r)
            for r, theta in zip(table.r_nats.tolist(), table.theta_star.tolist())
            if 0.0 < theta < 1.0
        ]
        assert len(interior) >= 10
        for theta, r in interior:
            assert abs(closed_forms.er_bsc_slope(theta, r, eps)) <= 1e-13

    @pytest.mark.parametrize("kind, param, src, scalar", SCALAR_CASES)
    def test_points_equal_scalar_calls_bit_for_bit(self, kind, param, src, scalar):
        assert_points_equal_scalar_calls(kind, param, src, scalar, 101)

    @pytest.mark.parametrize("kind, param, src, scalar", SCALAR_CASES[2:4])
    def test_points_past_one_solve_block_equal_scalar_calls(self, kind, param, src, scalar):
        # curve solves _CSV_ROWS rates at a time: three blocks, the last of 3.
        steps = 2 * exponents._CSV_ROWS + 3
        assert_points_equal_scalar_calls(kind, param, src, scalar, steps)

    @pytest.mark.parametrize("channel", ["bec:0.5", "bsc:0.11"])
    def test_general_kind_takes_either_family(self, channel):
        spec = parse_channel(channel)
        table = curve("er-general", spec, 0.0, LN2, 5)
        ref = curve("er-" + spec.family, spec, 0.0, LN2, 5)
        assert np.all(abs(table.value_nats - ref.value_nats) <= 1e-9)

    @pytest.mark.parametrize(
        "kind, channel, message",
        [
            ("er-bec", "bsc:0.25", "curve kind 'er-bec' needs a bec:<eps> channel "
             "descriptor, got 'bsc:0.25'"),
            ("er-bsc", "bec:0.5", "curve kind 'er-bsc' needs a bsc:<eps> channel "
             "descriptor, got 'bec:0.5'"),
            ("ex-bec", "bsc:0.11", "curve kind 'ex-bec' needs a bec:<eps> channel "
             "descriptor, got 'bsc:0.11'"),
            ("ex-bsc-reduction", "bec:1", "curve kind 'ex-bsc-reduction' needs a "
             "bsc:<eps> channel descriptor, got 'bec:1'"),
        ],
    )
    def test_family_mismatch_is_checked_first(self, kind, channel, message):
        # The CLI prints this message as it stands; it comes before the
        # step, rate and channel-parameter checks.
        with pytest.raises(ValueError) as info:
            curve(kind, parse_channel(channel), 0.5, 0.1, 1)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_all_kinds_nonincreasing(self):
        cases = [
            ("er-bec", "bec:0.5"),
            ("er-bsc", "bsc:0.25"),
            ("ex-bec", "bec:0.5"),
            ("ex-bsc-reduction", "bsc:0.25"),
            ("er-general", "bsc:0.25"),
        ]
        for kind, channel in cases:
            table = curve(kind, parse_channel(channel), 0.0, LN2, 30)
            vals = table.value_nats
            assert np.all(vals[:-1] >= vals[1:] - 1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            curve("er-armageddon", ChannelSpec("bec", 0.5), 0.0, LN2, 5)
        with pytest.raises(ValueError):
            curve("er-bec", ChannelSpec("bec", 0.5), 0.5, 0.1, 5)
        with pytest.raises(ValueError):
            curve("er-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 1)
        with pytest.raises(DegenerateParameterError):
            curve("ex-bec", ChannelSpec("bec", 1.0), 0.0, LN2, 5)
        with pytest.raises(SizeLimitError):
            curve("er-bec", ChannelSpec("bec", 0.5), 0.0, LN2, exponents._MAX_CURVE_STEPS + 1)
