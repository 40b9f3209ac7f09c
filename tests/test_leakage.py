"""Tests for exact leakage, decoding error, and the bound between them.

The two exact paths are gated on brute_force_leakage, which builds the full
joint distribution of (hash output, observation word) with no rank shortcuts.
Erasure decoding error is cross-checked against a direct per-pattern rank
enumeration that shares nothing with the span law or the rank profile, and
the kept-rank law, from either source, against an exact rational fold of
integer subset counts.
"""
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakexp import leakage
from leakexp.channels import ChannelSpec, bec_joint, bsc_joint
from leakexp.errors import InvariantViolationError, SizeLimitError
from leakexp.gf2 import BinMatrix, parse_matrix, random_matrix, rank
from leakexp.leakage import (
    LeakageReport,
    PmlResult,
    best_matrix_search,
    exact_leakage_bec,
    exact_leakage_bsc,
    mc_p_ml_erasure,
    p_ml_erasure,
    _kept_rank_law,
    _span_law,
    _subspace_table,
    trial_seeds,
)

from brute_force import brute_force_leakage
from closed_forms import less_noisy_erasure_param
from column_sets import (
    IndexSet,
    column_value_profile,
    from_columns,
    identity,
    per_sample_errors,
    submatrix_cols,
    translate,
)

LN2 = math.log(2.0)


def pml_oracle(m: BinMatrix, delta: float) -> float:
    """Sum P(pattern) over erasure patterns whose kept columns lose rank."""
    total = 0.0
    for mask in range(1 << m.cols):
        kept = IndexSet(m.cols, {j + 1 for j in range(m.cols) if (mask >> j) & 1})
        if rank(submatrix_cols(m, kept)) < m.rows:
            total += (1 - delta) ** len(kept) * delta ** (m.cols - len(kept))
    return total


def bec_leakage_oracle(m: BinMatrix, eps: float) -> float:
    """Average rank of the erased-column submatrix, straight from rank()."""
    expected = 0.0
    for mask in range(1 << m.cols):
        erased = IndexSet(m.cols, {j + 1 for j in range(m.cols) if (mask >> j) & 1})
        w = eps ** len(erased) * (1 - eps) ** (m.cols - len(erased))
        expected += w * rank(submatrix_cols(m, erased))
    return LN2 * (rank(m) - expected)


def parity_bsc_leakage(w: int, eps: float) -> float:
    """Leakage of the parity of w bits under flips: with d = (1-2eps)^w it is
    sum_{j>=1} d^(2j) / (2j (2j-1)), the even part of (1+d) ln(1+d) - d."""
    d2 = (1.0 - 2.0 * eps) ** (2 * w)
    return sum(d2**j / (2 * j * (2 * j - 1)) for j in range(1, 200))


class TestBruteForceGate:
    """The equality behind the fast paths, confirmed against the oracle."""

    @pytest.mark.parametrize("seed", range(15))
    def test_bec_matches_oracle(self, seed):
        n = 2 + seed % 5
        k = 1 + seed % n if n > 1 else 1
        m = random_matrix(min(k, n), n, seed)
        eps = (0.11, 0.25, 0.5, 0.7)[seed % 4]
        exact = exact_leakage_bec(m, eps).leakage_nats
        brute = brute_force_leakage(m, bec_joint(eps))
        assert abs(exact - brute) <= 1e-9

    @pytest.mark.parametrize("seed", range(15))
    def test_bsc_matches_oracle(self, seed):
        n = 2 + seed % 5
        k = 1 + seed % n if n > 1 else 1
        m = random_matrix(min(k, n), n, 50 + seed)
        eps = (0.05, 0.11, 0.25, 0.4)[seed % 4]
        exact = exact_leakage_bsc(m, eps).leakage_nats
        brute = brute_force_leakage(m, bsc_joint(eps))
        assert abs(exact - brute) <= 1e-9

    def test_bec_matches_rank_sum_oracle(self):
        for seed in range(6):
            m = random_matrix(2 + seed % 3, 5 + seed % 3, 300 + seed)
            got = exact_leakage_bec(m, 0.35).leakage_nats
            assert abs(got - bec_leakage_oracle(m, 0.35)) <= 1e-12

    @pytest.mark.parametrize("n", [16, 20, 24])
    def test_all_ones_row_small_leakage(self, n):
        # The parity of all n bits leaks ln 2 exactly when nothing is erased;
        # at n = 24 that is 1.2e-17 nats, far below the ulp of rank(M) * ln 2.
        m = BinMatrix(1, n, ((1 << n) - 1,))
        got = exact_leakage_bec(m, 0.8).leakage_nats
        assert got == pytest.approx(LN2 * 0.2**n, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [16, 20, 24, 26])
    def test_all_ones_row_small_bsc_leakage(self, n):
        # 6.1e-22 nats at n = 20: far below the ulp of ln 2 minus an entropy.
        m = BinMatrix(1, n, ((1 << n) - 1,))
        got = exact_leakage_bsc(m, 0.35).leakage_nats
        assert got == pytest.approx(parity_bsc_leakage(n, 0.35), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps, sizes", [
        (0.11, (1, 2, 3, 5)),
        (0.35, (2, 4, 7, 9)),
        (0.45, (3, 3, 4)),  # every |e| < 0.01: phi from its series alone
        (0.11, (1,) * 12 + (2,) * 6),  # 2^18 syndromes: the transform in blocks
    ])
    def test_disjoint_rows_add_parity_leakages(self, eps, sizes):
        # Rows on disjoint column sets give independent syndrome bits; two
        # trailing columns are in no row.
        n = sum(sizes) + 2
        rows, start = [], 0
        for w in sizes:
            rows.append(((1 << w) - 1) << start)
            start += w
        m = BinMatrix(len(sizes), n, tuple(rows))
        expect = sum(parity_bsc_leakage(w, eps) for w in sizes)
        got = exact_leakage_bsc(m, eps).leakage_nats
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_single_parity_row(self):
        # parity of 2 bits leaks unless at least one bit is erased
        m = parse_matrix("1 2\n11\n")
        got = exact_leakage_bec(m, 0.4).leakage_nats
        assert abs(got - (1 - 0.4) ** 2 * LN2) <= 1e-15
        assert abs(brute_force_leakage(m, bec_joint(0.4)) - got) <= 1e-12

    def test_single_bit_identity(self):
        m = parse_matrix("1 1\n1\n")
        assert abs(exact_leakage_bec(m, 0.5).leakage_nats - 0.5 * LN2) <= 1e-15
        # eavesdropper sees the bit itself unless erased

    def test_identity_two_bits(self):
        m = identity(2)
        assert abs(exact_leakage_bec(m, 0.5).leakage_nats - LN2) <= 1e-15

    def test_bsc_single_parity_closed_form(self):
        # syndrome is a Bernoulli(2 eps (1-eps)) bit
        m = parse_matrix("1 2\n11\n")
        q = 2 * 0.11 * 0.89
        expect = LN2 - (-q * math.log(q) - (1 - q) * math.log(1 - q))
        assert abs(exact_leakage_bsc(m, 0.11).leakage_nats - expect) <= 1e-14

    def test_zero_matrix_leaks_nothing(self):
        z = BinMatrix.from_rows(((0, 0, 0), (0, 0, 0)))
        assert exact_leakage_bec(z, 0.3).leakage_nats == 0.0
        assert exact_leakage_bsc(z, 0.3).leakage_nats == 0.0
        assert exact_leakage_bec(z, 0.3).hash_entropy_nats == 0.0

    def test_rank_deficient_entropy_uses_rank(self):
        m = BinMatrix.from_rows(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert exact_leakage_bec(m, 0.2).hash_entropy_nats == 2 * LN2

    def test_extreme_erasure_probabilities(self):
        m = random_matrix(2, 4, 9)
        assert exact_leakage_bec(m, 1.0).leakage_nats == 0.0
        full = exact_leakage_bec(m, 0.0)
        assert abs(full.leakage_nats - full.hash_entropy_nats) <= 1e-12

    def test_extreme_flip_probabilities(self):
        m = random_matrix(2, 4, 9)
        assert exact_leakage_bsc(m, 0.5).leakage_nats <= 1e-12
        full = exact_leakage_bsc(m, 0.0)
        assert abs(full.leakage_nats - full.hash_entropy_nats) <= 1e-12
        # Every bit flipped: the syndrome is again known, and e = -1 on all
        # other syndromes (phi(-1) = 1).
        flipped = exact_leakage_bsc(m, 1.0)
        assert abs(flipped.leakage_nats - flipped.hash_entropy_nats) <= 1e-12

    def test_brute_force_size_limits(self):
        with pytest.raises(SizeLimitError):
            brute_force_leakage(random_matrix(2, 13, 0), bec_joint(0.5))
        with pytest.raises(SizeLimitError):
            brute_force_leakage(random_matrix(2, 15, 0), bsc_joint(0.5))

    def test_enumeration_size_limit(self):
        wide = BinMatrix(1, 27, (1,))
        with pytest.raises(SizeLimitError):
            exact_leakage_bec(wide, 0.5)
        with pytest.raises(SizeLimitError):
            exact_leakage_bsc(wide, 0.5)


class TestPmlErasure:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pattern_oracle(self, seed):
        n = 3 + seed % 5
        k = 1 + seed % 3
        m = random_matrix(k, n, 400 + seed)
        delta = (0.1, 0.3, 0.5, 0.8)[seed % 4]
        got = p_ml_erasure(m, delta)
        assert got.method == "exact-enumeration"
        assert abs(got.value - pml_oracle(m, delta)) <= 1e-12

    def test_known_values(self):
        # both columns of the 2-bit parity code must be erased to fail
        assert abs(p_ml_erasure(parse_matrix("1 2\n11\n"), 0.3).value - 0.09) <= 1e-15
        # repetition code fails only when every copy is erased
        rep = parse_matrix("1 4\n1111\n")
        assert abs(p_ml_erasure(rep, 0.5).value - 0.5**4) <= 1e-15
        ham = parse_matrix("4 7\n1000110\n0100101\n0010011\n0001111\n")
        assert abs(p_ml_erasure(ham, 0.2).value - 0.05628160000000003) <= 1e-15

    def test_zero_row_always_fails(self):
        z = BinMatrix.from_rows(((0, 0),))
        assert p_ml_erasure(z, 0.3).value == 1.0

    def test_monotone_in_delta(self):
        m = random_matrix(3, 6, 11)
        vals = [p_ml_erasure(m, d).value for d in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            p_ml_erasure(random_matrix(1, 2, 0), 1.2)


class TestMonteCarloPml:
    def test_deterministic_and_near_exact(self):
        m = parse_matrix("2 4\n1010\n0110\n")
        got = mc_p_ml_erasure(m, 0.3, 50000, 123)
        assert got.method == "monte-carlo"
        assert got.samples == 50000
        assert got.value == 0.21484
        again = mc_p_ml_erasure(m, 0.3, 50000, 123)
        assert again.value == got.value and again.ci_halfwidth == got.ci_halfwidth
        exact = p_ml_erasure(m, 0.3).value
        assert abs(got.value - exact) <= 3 * got.ci_halfwidth

    def test_interval_without_observed_errors(self):
        # P_ML of this code at erasure 0.02 is 1.6e-7: 50000 samples see no
        # error, yet the interval must not claim the estimate 0 is exact.
        rows = ["1101000110110010", "0110101001011100",
                "1011010011100101", "0001111010001111"]
        m = parse_matrix("4 16\n" + "".join(r + "\n" for r in rows))
        got = mc_p_ml_erasure(m, 0.02, 50000, 1)
        exact = p_ml_erasure(m, 0.02).value
        assert got.value == 0.0 and 1e-7 < exact < 2e-7
        assert got.ci_halfwidth > 0.0
        assert abs(got.value - exact) <= 3 * got.ci_halfwidth

    def test_seed_changes_estimate(self):
        m = parse_matrix("2 4\n1010\n0110\n")
        a = mc_p_ml_erasure(m, 0.3, 2000, 1).value
        b = mc_p_ml_erasure(m, 0.3, 2000, 2).value
        assert a != b

    def test_multi_chunk_path(self):
        m = parse_matrix("1 2\n11\n")
        got = mc_p_ml_erasure(m, 0.3, (1 << 16) + 500, 5)
        assert abs(got.value - 0.09) <= 0.01

    def test_sample_count_required(self):
        with pytest.raises(ValueError):
            mc_p_ml_erasure(random_matrix(1, 2, 0), 0.3, 0, 0)

    @pytest.mark.parametrize("first", [1, 65])
    def test_columns_past_64(self, first):
        # One row whose ones sit in 6 columns of 70: an error is all 6 erased.
        m = BinMatrix(1, 70, (sum(1 << (j - 1) for j in range(first, first + 6)),))
        got = mc_p_ml_erasure(m, 0.5, 20000, 1)
        assert abs(got.value - 0.5**6) <= 3 * got.ci_halfwidth

    @pytest.mark.parametrize("k, n", [(3, 20), (5, 70), (8, 130)])
    def test_chunk_size_is_invisible(self, monkeypatch, k, n):
        # A budget of 1000 entries cuts the draws into chunks of 7 to 31 samples.
        monkeypatch.setattr(leakage, "_MC_CHUNK_ENTRIES", 1000)
        m = random_matrix(k, n, 20 + n)
        got = mc_p_ml_erasure(m, 0.85, 500, n)
        assert got.value == per_sample_errors(m, 0.85, 500, n) / 500

    @pytest.mark.parametrize("k, n", [(3, 20), (5, 33), (8, 130)])
    def test_block_size_is_invisible(self, monkeypatch, k, n):
        # A budget of 20 words cuts each chunk into blocks of 6, 4 and 1
        # samples (k times 1, 1 and 3 words per sample).
        monkeypatch.setattr(leakage, "_MC_BLOCK_WORDS", 20)
        m = random_matrix(k, n, 40 + n)
        delta = 1.0 - (k + 1) / n
        got = mc_p_ml_erasure(m, delta, 500, n)
        assert got.value == per_sample_errors(m, delta, 500, n) / 500


class TestLeakageBound:
    @pytest.mark.parametrize("seed", range(25))
    def test_slack_never_negative(self, seed):
        n = 2 + seed % 7
        k = 1 + seed % min(n, 4)
        m = random_matrix(k, n, 500 + seed)
        eps = (0.1, 0.25, 0.5, 0.75)[seed % 4]
        rep = exact_leakage_bec(m, eps)
        assert rep.slack_nats is not None and rep.slack_nats >= -1e-9
        assert rep.bound_nats == n * p_ml_erasure(m, 1 - eps).value

    def test_single_bit_slack_value(self):
        m = parse_matrix("1 1\n1\n")
        rep = exact_leakage_bec(m, 0.5)
        assert abs(rep.slack_nats - (0.5 - 0.5 * LN2)) <= 1e-15

    def test_report_invariants(self):
        with pytest.raises(InvariantViolationError, match="negative"):
            LeakageReport(leakage_nats=-0.1, hash_entropy_nats=1.0)
        with pytest.raises(InvariantViolationError, match="entropy"):
            LeakageReport(leakage_nats=2.0, hash_entropy_nats=1.0)
        with pytest.raises(InvariantViolationError, match=r"\(slack -0.1\)"):
            LeakageReport(0.5, 1.0, bound_nats=0.4, slack_nats=-0.1)
        with pytest.raises(InvariantViolationError, match="outside"):
            PmlResult(value=1.5, method="exact-enumeration")
        with pytest.raises(InvariantViolationError, match="guesswork"):
            PmlResult(value=0.5, method="guesswork")

    def test_slack_floor_is_minus_1e_9(self):
        LeakageReport(0.5, 1.0, bound_nats=0.5 - 1e-9, slack_nats=-1e-9)
        with pytest.raises(InvariantViolationError):
            LeakageReport(0.5, 1.0, bound_nats=0.5 - 2e-9, slack_nats=-2e-9)


class TestLessNoisyDomination:
    @pytest.mark.parametrize("seed", range(12))
    def test_bitflip_leaks_no_more_than_erasure(self, seed):
        n = 2 + seed % 6
        k = 1 + seed % min(n, 3)
        m = random_matrix(k, n, 700 + seed)
        eps = (0.05, 0.11, 0.25, 0.4)[seed % 4]
        bsc = exact_leakage_bsc(m, eps).leakage_nats
        bec = exact_leakage_bec(m, less_noisy_erasure_param(eps)).leakage_nats
        assert bsc <= bec + 1e-9


@st.composite
def pooled_matrices(draw, min_rows: int, max_rows: int, max_cols: int) -> BinMatrix:
    """Columns drawn partly from a small pool, so zero, repeated and
    rank-deficient columns are common."""
    k = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(0, max_cols))
    column = st.integers(0, (1 << k) - 1)
    pool = draw(st.lists(column, min_size=1, max_size=3))
    cols = draw(st.lists(st.one_of(column, st.sampled_from(pool)), min_size=n, max_size=n))
    return from_columns(k, cols)


@st.composite
def rank_deficient_matrices(draw) -> BinMatrix:
    """A pooled matrix of 1 to 7 rows and up to 14 columns, and one more row:
    the XOR of a drawn set of the others, placed among them."""
    m = draw(pooled_matrices(1, 7, 14))
    extra = 0
    for i in draw(st.sets(st.integers(0, m.rows - 1))):
        extra ^= m.bits[i]
    at = draw(st.integers(0, m.rows))
    return BinMatrix(m.rows + 1, m.cols, m.bits[:at] + (extra,) + m.bits[at:])


def fold_weights(m: BinMatrix) -> tuple[int, list[int], list[int]]:
    """rank(M), and per subset size the summed rank deficits rank(M) - rank(M_J)
    and the number of rank-deficient subsets, from exact integer counts."""
    profile = column_value_profile(m)
    rnk = profile[m.cols].index(1)
    deficits = [sum((rnk - r) * c for r, c in enumerate(row)) for row in profile]
    return rnk, deficits, [sum(row[:m.rows]) for row in profile]


def exact_fold(weights: list[int], a: Fraction, b: Fraction) -> Fraction:
    """sum_s a^s b^(n-s) weights[s] in exact rationals, n = len(weights) - 1."""
    n = len(weights) - 1
    return sum((a**s * b ** (n - s) * w for s, w in enumerate(weights)), Fraction(0))


def close(got: float, want: float, rel: float) -> bool:
    # Below 1e-290 a product of normal factors may have gone subnormal and
    # lost its relative precision.
    return abs(got - want) <= rel * abs(want) + 1e-290


def profile_law(m: BinMatrix, delta: float) -> list[float]:
    """_kept_rank_law from the weighted subset-sum profile, whatever k is."""
    with mock.patch.object(leakage, "_VALUE_DP_MAX_ROWS", -1):
        return _kept_rank_law(m, delta)


class TestSpanLaw:
    """Erasure queries fold one float law of the kept rank per query: the span
    law for k <= 5, the weighted rank profile above."""

    # Up to 3 rows and 26 columns, or 4 to 9 rows and 12 columns.
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(st.one_of(pooled_matrices(0, 3, 26), pooled_matrices(4, 9, 12)), st.floats(0.0, 1.0))
    @example(BinMatrix(1, 24, ((1 << 24) - 1,)), 0.8)
    @example(from_columns(3, [0, 7, 7, 1, 0, 6] * 4), 1e-300)
    @example(from_columns(2, [3] * 26), 1.0 - 2.0**-53)
    @example(from_columns(6, [0, 63, 63, 1, 0, 62, 5, 9]), 1e-300)
    @example(from_columns(5, [31] * 12), 1.0 - 2.0**-53)
    @example(from_columns(9, [1 << j for j in range(9)] + [0, 3, 511]), 0.3)
    def test_matches_exact_rational_fold(self, m, eps):
        _, deficits, errors = fold_weights(m)
        # The bound is n * P_ML at the float delta = 1 - eps that
        # p_ml_erasure(m, 1 - eps) receives.
        e, delta = Fraction(eps), Fraction(1.0 - eps)
        leakage = LN2 * float(exact_fold(deficits, e, 1 - e))
        bound = m.cols * min(float(exact_fold(errors, 1 - delta, delta)), 1.0)
        rep = exact_leakage_bec(m, eps)
        assert close(rep.leakage_nats, leakage, 1e-13)
        assert close(rep.bound_nats, bound, 1e-13)
        assert rep.bound_nats == m.cols * p_ml_erasure(m, 1.0 - eps).value

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pooled_matrices(0, 5, 14), st.floats(0.0, 1.0))
    def test_matches_the_profile_fold(self, m, eps):
        # The weighted profile that k >= 6 takes, on the same k <= 5 matrices:
        # the law's rank deficit and its mass below k, as the leakage and the
        # bound read them.
        rnk, k, delta = rank(m), m.rows, 1.0 - eps
        span, profile = _span_law(m, delta), profile_law(m, delta)
        assert _kept_rank_law(m, delta) == span
        for law in (span, profile):
            assert len(law) == k + 1 and min(law) >= 0.0
        deficit = [math.fsum((rnk - d) * p for d, p in enumerate(law)) for law in (span, profile)]
        assert close(deficit[0], deficit[1], 1e-12)
        assert close(math.fsum(span[:k]), math.fsum(profile[:k]), 1e-12)

    @pytest.mark.parametrize("m", [
        BinMatrix(0, 3, ()),
        from_columns(1, [1, 0, 1]),
        from_columns(2, [1, 2, 3, 0, 3]),
        from_columns(3, [5, 5, 0]),  # rank 1 < k
        from_columns(4, [1, 2, 4, 8, 15, 0]),
        from_columns(6, [1, 2, 4, 8, 16, 32, 63, 0]),  # the profile path
        from_columns(7, [1, 2, 4, 8, 16, 3, 0]),  # the profile path, rank 5 < k
    ])
    def test_probabilities_at_zero_and_one(self, m):
        n, k, rnk = m.cols, m.rows, rank(m)
        deficient = float(rnk < k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nothing_erased = exact_leakage_bec(m, 0.0)
            all_erased = exact_leakage_bec(m, 1.0)
            assert p_ml_erasure(m, 0.0).value == deficient
            assert p_ml_erasure(m, 1.0).value == float(k > 0)
        assert nothing_erased.leakage_nats == nothing_erased.hash_entropy_nats == rnk * LN2
        assert nothing_erased.bound_nats == n * float(k > 0)
        assert all_erased.leakage_nats == 0.0
        assert all_erased.bound_nats == n * deficient

    @pytest.mark.parametrize("k", range(6))
    def test_subspace_table_matches_the_translate_rule(self, k):
        # Every subspace of F_2^k, with every v added, and its rank.
        masks, grown, ranks = _subspace_table(k)
        assert len(masks) == (1, 2, 5, 16, 67, 374)[k]
        assert list(masks) == sorted(set(masks)) and masks[0] == 1
        index = {span: i for i, span in enumerate(masks)}
        for i, span in enumerate(masks):
            assert 1 << ranks[i] == span.bit_count()
            for v in range(1 << k):
                joined = translate(span, v, k)
                # A mask closed under adding its own vectors is a subspace.
                assert (joined == span) == bool((span >> v) & 1)
                assert grown[v][i] == index[joined]

    @pytest.mark.parametrize("sizes, trailing", [
        ((1, 2, 3, 4), 0),
        ((6, 6, 7, 7), 0),  # n = 26
        ((1, 1, 2, 3), 15),  # columns in no row
        ((1, 2, 3, 4, 5), 2),
        ((2, 3, 5, 7, 9), 0),  # n = 26
    ])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 0.8, 0.97])
    def test_disjoint_parity_rows_closed_forms(self, sizes, trailing, eps):
        # Row i is the parity of its own w_i columns: it leaks unless one of
        # them is erased, and decoding fails when all of them are.
        rows, start = [], 0
        for w in sizes:
            rows.append(((1 << w) - 1) << start)
            start += w
        m = BinMatrix(len(sizes), start + trailing, tuple(rows))
        leak = LN2 * math.fsum((1.0 - eps) ** w for w in sizes)
        delta = 1.0 - eps
        p_ml = -math.expm1(math.fsum(math.log1p(-(delta**w)) for w in sizes))
        assert exact_leakage_bec(m, eps).leakage_nats == pytest.approx(leak, rel=1e-13, abs=0.0)
        assert p_ml_erasure(m, delta).value == pytest.approx(p_ml, rel=1e-13, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rank_deficient_matrices(), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    @example(parse_matrix("3 13\n0100000110011\n1011001001000\n1111001111011\n"), 0.3)
    def test_rank_deficient_codes_always_fail(self, m, delta):
        # The kept rank never reaches k, so P_ML is 1 and the bound n exactly,
        # though the law's terms need not sum to 1 in floats. First from the
        # law's own source (the span law up to k = 5), then the transform.
        for split in (leakage._VALUE_DP_MAX_ROWS, -1):
            with mock.patch.object(leakage, "_VALUE_DP_MAX_ROWS", split):
                assert p_ml_erasure(m, delta).value == 1.0
                assert exact_leakage_bec(m, 1.0 - delta).bound_nats == m.cols

    def test_law_sums_to_one_over_the_dimensions(self):
        m = from_columns(3, [1, 2, 2, 4, 3, 0, 7])
        for out in (0.0, 1e-9, 0.3, 0.5, 0.999, 1.0):
            law = _span_law(m, out)
            assert len(law) == 4 and min(law) >= 0.0
            assert math.fsum(law) == pytest.approx(1.0, abs=1e-15)


class TestRowSpaceInvariance:
    """Invertible row operations keep the row space, and every exact result
    with it, to the last bit: the span law for k <= 5, the rank profile from
    k = 6 and the bit-flip transform all read the row space alone."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(pooled_matrices(1, 5, 18), pooled_matrices(6, 10, 18)),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30),
        st.permutations(range(10)),
    )
    @example(from_columns(3, [1, 2, 4, 3, 5, 6, 7, 0, 3]), [(1, 0), (2, 1)], range(9, -1, -1))
    @example(from_columns(7, [1, 2, 4, 8, 16, 3, 0, 5]), [(0, 6), (6, 0)], range(10))
    def test_row_operations_keep_every_bit(self, m, additions, order):
        # Row i += row j for each distinct pair (i, j) mod k, then a shuffle.
        k, bits = m.rows, list(m.bits)
        for i, j in additions:
            if i % k != j % k:
                bits[i % k] ^= bits[j % k]
        moved = BinMatrix(k, m.cols, tuple(bits[i] for i in order if i < k))
        for eps in (1e-3, 0.11, 0.4):
            for got, want in zip(self.results(moved, eps), self.results(m, eps)):
                assert got.hex() == want.hex()

    @staticmethod
    def results(m: BinMatrix, eps: float) -> list[float]:
        bec, bsc = exact_leakage_bec(m, eps), exact_leakage_bsc(m, eps)
        return [bec.leakage_nats, bec.bound_nats, bsc.leakage_nats, bsc.hash_entropy_nats,
                p_ml_erasure(m, eps).value]


class TestBestMatrixSearch:
    def test_matches_replayed_trials(self):
        k, n, eps, trials, seed = 2, 5, 0.5, 30, 77
        best, report = best_matrix_search(k, n, ChannelSpec("bec", eps), trials, seed)
        seeds = np.random.default_rng(seed).integers(0, 2**63, size=trials, dtype=np.int64)
        candidates = [random_matrix(k, n, int(s)) for s in seeds]
        full = [
            exact_leakage_bec(c, eps).leakage_nats
            for c in candidates
            if rank(c) == k
        ]
        assert full, "seeded trial set should contain full-rank matrices"
        assert rank(best) == k
        assert abs(report.leakage_nats - min(full)) <= 1e-15

    @staticmethod
    def draw_in_order(monkeypatch, rows):
        # Trial i draws the i-th matrix of `rows`, whatever its seed.
        drawn = iter([BinMatrix.from_rows(r) for r in rows])
        monkeypatch.setattr(leakage, "random_matrix", lambda k, n, seed: next(drawn))

    def test_ties_keep_the_first_trial(self, monkeypatch):
        # Weight-2 parities leak ln 2 (1 - eps)^2 whatever their support; the
        # weight-1 one leaks more.
        rows = [[[1, 0, 0]], [[1, 1, 0]], [[0, 1, 1]], [[1, 0, 1]]]
        self.draw_in_order(monkeypatch, rows)
        best, report = best_matrix_search(1, 3, ChannelSpec("bec", 0.5), len(rows), 0)
        assert best == BinMatrix.from_rows(rows[1])
        assert report.leakage_nats == exact_leakage_bec(best, 0.5).leakage_nats

    def test_without_full_rank_falls_back_to_the_least_leakage(self, monkeypatch):
        # Every trial has rank 1; the weight-3 parity leaks least.
        rows = [
            [[1, 1, 0], [1, 1, 0]],
            [[1, 1, 1], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0]],
        ]
        self.draw_in_order(monkeypatch, rows)
        best, report = best_matrix_search(2, 3, ChannelSpec("bec", 0.5), len(rows), 0)
        assert best == BinMatrix.from_rows(rows[1])
        assert report.hash_entropy_nats == LN2
        assert abs(report.leakage_nats - LN2 * 0.5**3) <= 1e-15

    def test_deterministic(self):
        a = best_matrix_search(2, 6, ChannelSpec("bec", 0.4), 10, 3)
        b = best_matrix_search(2, 6, ChannelSpec("bec", 0.4), 10, 3)
        assert a[0] == b[0] and a[1].leakage_nats == b[1].leakage_nats

    def test_bsc_channel(self):
        best, report = best_matrix_search(2, 5, ChannelSpec("bsc", 0.2), 10, 9)
        assert report.bound_nats is None
        assert report.leakage_nats <= 2 * LN2

    def test_trial_seeds_come_a_block_at_a_time(self):
        # Blocks of one generator's int64 draws equal one draw of them all,
        # and a count too large to draw at once costs nothing up front.
        rng = np.random.default_rng(3)
        whole = rng.integers(0, 2**63, size=3 * leakage._CHUNK + 7, dtype=np.int64)
        assert list(trial_seeds(3, len(whole))) == whole.tolist()
        seeds = trial_seeds(3, 10**13)
        assert [next(seeds) for _ in range(5)] == list(trial_seeds(3, 5))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            trial_seeds(0, 0)
        with pytest.raises(ValueError):
            best_matrix_search(2, 5, ChannelSpec("bec", 0.2), 0, 0)
        with pytest.raises(ValueError):
            best_matrix_search(2, 5, ChannelSpec("awgn", 0.2), 5, 0)
