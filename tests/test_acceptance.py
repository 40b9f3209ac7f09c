"""Acceptance suite: one numbered check per release gate, each printing a
single PASS/FAIL line (run with -s for the full report).

Check 7's full-range dominance clause is an expected failure: between the
zero of the expurgation curve and the zero of the random-coding curve the
random-coding exponent is strictly larger, so no implementation can satisfy
the clause as stated. The low-rate dominance and both zero-rate anchors are
verified separately and do hold.
"""
import math
import time

import pytest

import closed_forms
from leakexp.channels import bec_joint, bsc_joint
from leakexp.cli import main
from leakexp.exponents import (
    critical_rate,
    expurgation_exponent_bec,
    expurgation_exponent_bsc,
    expurgation_rate,
    random_coding_exponent,
)
from leakexp.gf2 import random_matrix
from leakexp.leakage import exact_leakage_bec, exact_leakage_bsc

from brute_force import brute_force_leakage
from closed_forms import less_noisy_erasure_param

LN2 = math.log(2.0)


def h2(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"check {num}: {detail}"


def battery(count: int, n_max: int, k_cap: int, seed0: int):
    """Deterministic mix of matrix shapes, biased toward cheap small n."""
    out = []
    for i in range(count):
        n = 1 + (i * 7 + i // n_max) % n_max
        k = 1 + (i * 3) % min(n, k_cap)
        out.append(random_matrix(k, n, seed0 + i))
    return out


def test_01_exact_paths_match_brute_force():
    start = time.perf_counter()
    mats = [random_matrix(1 + (i * 3) % min(n, 6), n, 1000 + i)
            for i, n in enumerate([1 + i % 8 for i in range(88)] + [9] * 7 + [10] * 5)]
    bec_eps = (0.11, 0.25, 0.5, 0.7)
    bsc_eps = (0.05, 0.11, 0.25, 0.4)
    worst_bec = worst_bsc = 0.0
    for i, m in enumerate(mats):
        e = bec_eps[i % 4]
        worst_bec = max(worst_bec, abs(
            exact_leakage_bec(m, e).leakage_nats - brute_force_leakage(m, bec_joint(e))
        ))
        e = bsc_eps[i % 4]
        worst_bsc = max(worst_bsc, abs(
            exact_leakage_bsc(m, e).leakage_nats - brute_force_leakage(m, bsc_joint(e))
        ))
    elapsed = time.perf_counter() - start
    ok = worst_bec <= 1e-9 and worst_bsc <= 1e-9 and elapsed <= 60.0
    report(1, ok,
           f"exact leakage matches brute force on {len(mats)} matrices "
           f"(max diff erasure {worst_bec:.2e}, bit-flip {worst_bsc:.2e}; {elapsed:.1f}s)")


def test_02_leakage_within_decoding_bound():
    start = time.perf_counter()
    mats = battery(200, 14, 14, 5000)
    worst = math.inf
    for m in mats:
        for eps in (0.1, 0.25, 0.5, 0.75):
            rep = exact_leakage_bec(m, eps)
            worst = min(worst, rep.slack_nats)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed <= 120.0
    report(2, ok,
           f"leakage <= n * decoding error on {len(mats)} matrices x 4 channels "
           f"(min slack {worst:.3e}; {elapsed:.1f}s)")


def test_03_bitflip_dominated_by_erasure():
    mats = battery(100, 10, 5, 9000)
    worst = -math.inf
    for m in mats:
        for eps in (0.05, 0.11, 0.25, 0.4):
            gap = (exact_leakage_bsc(m, eps).leakage_nats
                   - exact_leakage_bec(m, less_noisy_erasure_param(eps)).leakage_nats)
            worst = max(worst, gap)
    ok = worst <= 1e-9
    report(3, ok,
           f"bit-flip leakage never exceeds the matched-erasure leakage on "
           f"{len(mats)} matrices (max excess {worst:.2e})")


def test_04_generic_optimizer_matches_closed_forms():
    worst = 0.0
    for eps in (0.11, 0.25, 0.5):
        bec, bsc = bec_joint(eps), bsc_joint(eps)
        for r in grid(0.0, LN2, 50):
            worst = max(worst, abs(
                random_coding_exponent(r, bec).value - closed_forms.er_bec(r, eps)
            ))
            worst = max(worst, abs(
                random_coding_exponent(r, bsc).value - closed_forms.er_bsc(r, eps)
            ))
    ok = worst <= 1e-9
    report(4, ok,
           f"table-driven exponent equals both closed forms on 50-point grids "
           f"(max diff {worst:.2e})")


def test_05_three_expurgation_forms_agree():
    # the library's stationary point against the three forms found by search:
    # the tilt maximum, the constrained minimum over p and the dual maximum
    worst = 0.0
    for delta in (0.25, 0.5, 0.75):
        for r in grid(0.02, LN2 - 0.02, 30):
            mx = expurgation_exponent_bec(r, delta).value
            worst = max(worst, abs(mx - closed_forms.ex_tilt(r, delta)[0]))
            worst = max(worst, abs(mx - closed_forms.ex_min(r, delta)[0]))
            worst = max(worst, abs(mx - closed_forms.lagrangian_dual_max(r, delta)))
    ok = worst <= 1e-6
    report(5, ok,
           f"stationary point equals the tilt-max, constrained-min and dual-max "
           f"forms (max spread {worst:.2e})")


def test_06_reduction_interval_agreement():
    ok = True
    details = []
    for eps in (0.11, 0.25):
        delta = (1 - 2 * eps) ** 2
        rx, rcr = expurgation_rate(delta), critical_rate(eps)
        ok &= rx <= rcr
        line = -math.log((1 - eps) ** 2 + eps**2)
        worst_pair = worst_line = 0.0
        for r in grid(rx, rcr, 25):
            er = random_coding_exponent(r, bsc_joint(eps)).value
            ex = expurgation_exponent_bsc(r, eps).value
            worst_pair = max(worst_pair, abs(er - ex))
            worst_line = max(worst_line, abs(er - (line - r)), abs(ex - (line - r)))
        ok &= worst_pair <= 1e-6 and worst_line <= 1e-6
        low_gap = math.inf
        for r in grid(0.0, rx - 0.01, 10):
            low_gap = min(
                low_gap,
                expurgation_exponent_bsc(r, eps).value
                - random_coding_exponent(r, bsc_joint(eps)).value,
            )
        ok &= low_gap >= 1e-6
        details.append(
            f"eps={eps}: interval [{rx:.4f},{rcr:.4f}], curve spread {worst_pair:.1e}, "
            f"line spread {worst_line:.1e}, low-rate margin {low_gap:.1e}"
        )
    report(6, ok, "reduction and random-coding curves agree on the unit-tilt "
                  "interval and separate below it (" + "; ".join(details) + ")")


def test_07a_low_rate_dominance_anchors():
    ex0 = expurgation_exponent_bec(0.0, 0.5).value
    er0 = random_coding_exponent(0.0, bec_joint(0.5)).value
    gap = (expurgation_exponent_bec(0.05, 0.5).value
           - random_coding_exponent(0.05, bec_joint(0.5)).value)
    ok = abs(ex0 - 0.346574) <= 1e-6 and abs(er0 - 0.287682) <= 1e-6 and gap >= 1e-6
    report(7, ok,
           f"zero-rate anchors hold (expurgation {ex0:.6f}, random-coding {er0:.6f}) "
           f"and dominance is strict at R=0.05 (margin {gap:.2e})")


@pytest.mark.xfail(
    strict=True,
    reason="between the expurgation curve's zero crossing and the random-coding "
    "curve's zero, the random-coding exponent is strictly larger (clamped "
    "deficit up to ~1.45e-2 near R=0.29), so full-range dominance cannot hold",
)
def test_07b_dominance_everywhere_on_full_rate_range():
    worst = (0.0, math.inf)
    for r in grid(0.0, LN2, 200):
        ex = max(0.0, expurgation_exponent_bec(r, 0.5).value)
        er = max(0.0, random_coding_exponent(r, bec_joint(0.5)).value)
        if ex - er < worst[1]:
            worst = (r, ex - er)
    ok = worst[1] >= -1e-12
    report(7, ok,
           f"expurgation >= random-coding across the full rate range "
           f"(worst margin {worst[1]:.2e} at R={worst[0]:.4f})")


def test_08_random_coding_zero_beyond_conditional_entropy():
    ok = True
    details = []
    cases = [("erasure", e, e * LN2, bec_joint) for e in (0.11, 0.25, 0.5)]
    cases += [("bit-flip", e, h2(e), bsc_joint) for e in (0.11, 0.25)]
    for name, eps, hxz, joint in cases:
        rs = grid(0.0, LN2, 100)
        step = rs[1] - rs[0]
        for r in rs:
            v = random_coding_exponent(r, joint(eps)).value
            if r >= hxz:
                ok &= v == 0.0
            elif r <= hxz - step:
                ok &= v > 0.0
        details.append(f"{name} eps={eps}")
    report(8, ok, "curves reach exactly zero at the eavesdropper's remaining "
                  "uncertainty and are positive below it (" + ", ".join(details) + ")")


def test_09_cli_outputs_byte_identical(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        vb = tmp_path / f"verify_{tag}.csv"
        sc = tmp_path / f"scaling_{tag}.csv"
        assert main(["verify-bound", "--k", "3", "--n", "10", "--channel", "bec:0.25",
                     "--trials", "12", "--seed", "21", "--out", str(vb)]) == 0
        assert main(["scaling", "--rate", "0.1", "--n", "6,8,10", "--channel",
                     "bec:0.5", "--trials", "8", "--seed", "22", "--out", str(sc)]) == 0
        pairs.append((vb.read_bytes(), sc.read_bytes()))
    ok = pairs[0] == pairs[1]
    report(9, ok, "bound sweep and scaling table reruns are byte-identical "
                  f"({len(pairs[0][0])} + {len(pairs[0][1])} bytes)")
