"""Tests of the benchmark's oracles on cases computed by hand or by brute force.

Run from the repository root: python -m pytest bench -q
"""
import itertools
import math

import numpy as np
import pytest

import oracles

LN2 = math.log(2.0)


def _h(p):
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0)


def _brute_leakage(rows, channel, eps):
    """I(S; Z^n) from the full joint law of (X, Z^n), X uniform on n bits."""
    n = len(rows[0])
    letters = (0, 1, 2) if channel == "bec" else (0, 1)

    def p_z_given_x(z, x):
        if channel == "bec":
            return eps if z == 2 else (1.0 - eps if z == x else 0.0)
        return 1.0 - eps if z == x else eps

    joint = {}
    for x in itertools.product((0, 1), repeat=n):
        s = tuple(sum(int(r[j]) * x[j] for j in range(n)) % 2 for r in rows)
        for z in itertools.product(letters, repeat=n):
            p = 2.0 ** -n * math.prod(p_z_given_x(zj, xj) for zj, xj in zip(z, x))
            if p:
                joint[s, z] = joint.get((s, z), 0.0) + p
    p_s, p_z = {}, {}
    for (s, z), p in joint.items():
        p_s[s] = p_s.get(s, 0.0) + p
        p_z[z] = p_z.get(z, 0.0) + p
    return sum(p * math.log(p / (p_s[s] * p_z[z])) for (s, z), p in joint.items())


def test_rank():
    assert oracles.rank(["101", "011", "110"]) == 2
    assert oracles.rank(["100", "010", "001"]) == 3
    assert oracles.rank(["000"]) == 0


def test_bec_parity_and_identity():
    # The parity is known iff no bit is erased: ln2 * 0.6^2.
    assert oracles.bec_leakage(["11"], 0.4) == pytest.approx(0.2495329850015803, rel=1e-15)
    # Each identity row is one bit, known iff kept.
    assert oracles.bec_leakage(["10", "01"], 0.3) == pytest.approx(2 * LN2 * 0.7, rel=1e-15)
    # A repeated row leaks what one copy leaks.
    assert oracles.bec_leakage(["111", "111"], 0.5) == pytest.approx(LN2 / 8, rel=1e-15)


def test_bec_pml_small_codes():
    assert oracles.bec_pml(["111"], 0.3) == pytest.approx(0.3**3, rel=1e-15)
    assert oracles.bec_pml(["10", "01"], 0.3) == pytest.approx(1 - 0.7**2, rel=1e-15)
    # Rank deficient: every received word is ambiguous.
    assert oracles.bec_pml(["11", "11"], 0.3) == pytest.approx(1.0, rel=1e-15)


def test_bec_matches_brute_force():
    rows = ["10110", "01101"]
    assert oracles.bec_leakage(rows, 0.35) == pytest.approx(
        _brute_leakage(rows, "bec", 0.35), rel=1e-12)


def test_bsc_parity_and_identity():
    assert oracles.bsc_leakage(["1"], 0.11) == pytest.approx(LN2 - _h(0.11), rel=1e-13)
    assert oracles.bsc_leakage(["10", "01"], 0.2) == pytest.approx(2 * (LN2 - _h(0.2)), rel=1e-13)
    # Closed form for the parity of three bits: flipped with prob (1 - 0.6^3)/2.
    assert oracles.bsc_leakage(["111"], 0.2) == pytest.approx(
        LN2 - _h((1 - 0.6**3) / 2), rel=1e-12)


def test_bsc_matches_brute_force():
    rows = ["10110", "01101"]
    assert oracles.bsc_leakage(rows, 0.15) == pytest.approx(
        _brute_leakage(rows, "bsc", 0.15), rel=1e-10)


def test_parity_closed_forms_at_small_values():
    c = 0.3**20
    # KL of (1 +- c)/2 against uniform is c^2/2 + c^4/12 + ...
    assert oracles.parity_leakage_bsc(20, 0.35) == pytest.approx(c * c / 2, rel=1e-12)
    assert oracles.parity_leakage_bec(24, 0.8) == pytest.approx(LN2 * 0.2**24, rel=1e-15)


def test_phi():
    e = np.array([0.0, -1.0, 1.0, 1e-6, -0.5])
    want = [0.0, 1.0, 2 * LN2 - 1, 0.5e-12 - 1e-18 / 6, 0.5 * math.log(0.5) + 0.5]
    assert oracles._phi(e) == pytest.approx(want, rel=1e-12)


def test_random_coding_curves_at_rate_zero():
    # The objectives grow with theta at R = 0, so theta = 1.
    r = np.array([0.0])
    assert oracles.er_bec(r, 0.5)[0] == pytest.approx(-math.log(0.75), rel=1e-12)
    assert oracles.er_bsc(r, 0.11)[0] == pytest.approx(-math.log(0.89**2 + 0.11**2), rel=1e-12)
    # Past H(X|Z) the best tilt is 0.
    assert oracles.er_bec(np.array([0.6]), 0.5)[0] == 0.0


def test_expurgation_curve_anchors():
    delta = 0.5
    assert oracles.ex_bec(np.array([0.0]), delta)[0] == -0.5 * math.log(delta)
    # At the expurgation rate the optimum sits at theta = 1.
    r_x = LN2 - math.log(1 + delta) + delta * math.log(delta) / (1 + delta)
    assert oracles.ex_bec(np.array([r_x]), delta)[0] == pytest.approx(
        LN2 - r_x - math.log(1 + delta), abs=1e-12)
    assert oracles.ex_bsc_reduction(np.array([0.0]), 0.11)[0] == pytest.approx(
        -math.log(0.78), rel=1e-15)


def test_characteristic_rates():
    eps = 0.11
    a, b = (1 - eps) ** 2, eps**2
    assert oracles.critical_rate_bsc(eps) == pytest.approx(
        -(a * math.log(1 - eps) + b * math.log(eps)) / (a + b), abs=1e-9)
    delta = 0.6084
    assert oracles.expurgation_rate(delta) == pytest.approx(
        LN2 - math.log(1 + delta) + delta * math.log(delta) / (1 + delta), abs=1e-9)
