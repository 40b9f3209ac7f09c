"""The rank-profile builder against two oracles.

The subset-sum transform shares no code with the exact-integer column-value
DP of column_sets or with the per-mask oracle, which counts every column
subset with gf2.rank on an explicit column submatrix.
The word-parallel subset-sum kernel is checked against the one-bit-per-pass
loop, and the profiles that need more than one histogram chunk (n > 16), that
fill a uint8 or uint16 count lane (rank 8 or 16) or take a uint32 one (rank
> 16), that pair subsets whose ranks always or never differ, or whose table
is shorter than one 64-bit word (n <= 2), against closed forms and the DP.
"""
import itertools
import math
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leakexp.leakage as leakage
from leakexp.gf2 import BinMatrix, random_matrix, rank
from leakexp.leakage import _subset_sum, _subset_sum_profile

from column_sets import (
    IndexSet, by_rank, column_value_profile, from_columns, from_rows, identity,
    submatrix_cols,
)


def per_mask_profile(m: BinMatrix) -> tuple[tuple[int, ...], ...]:
    counts = [[0] * (m.rows + 1) for _ in range(m.cols + 1)]
    for mask in range(1 << m.cols):
        cols = IndexSet(m.cols, {j + 1 for j in range(m.cols) if (mask >> j) & 1})
        counts[len(cols)][rank(submatrix_cols(m, cols))] += 1
    return tuple(map(tuple, counts))


@st.composite
def matrices(draw) -> BinMatrix:
    """Up to 12 columns and up to one row more than columns; columns are drawn
    partly from a small pool, so zero and repeated columns are common."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, n + 1))
    column = st.integers(0, (1 << k) - 1)
    pool = draw(st.lists(column, min_size=1, max_size=3))
    cols = draw(st.lists(st.one_of(column, st.sampled_from(pool)), min_size=n, max_size=n))
    return from_columns(k, cols)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(matrices())
@example(BinMatrix(0, 0, ()))
@example(BinMatrix(0, 5, ()))
@example(BinMatrix(3, 0, (0, 0, 0)))
@example(identity(6))
@example(BinMatrix(4, 7, (0,) * 4))
@example(from_columns(5, [3, 3, 0, 5, 6, 3, 0, 5]))
@example(from_rows(((1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0))))
@example(BinMatrix(3, 2, (1, 2, 3)))
# The shapes that were slowest for a depth-first walk: only zero and repeated
# columns, and every value of F_2^3 with repeats.
@example(from_columns(2, [0, 3, 3, 0, 3, 0, 0, 3, 3, 0, 0, 3]))
@example(from_columns(3, [7, 0, 1, 2, 3, 4, 5, 6, 0, 1, 6, 7]))
def test_builders_match_per_mask_ranks(m):
    dp = column_value_profile(m)
    assert tuple(map(tuple, dp)) == per_mask_profile(m)
    assert _subset_sum_profile(m) == by_rank(dp)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_order_is_invisible_at_26_columns(k):
    rng = random.Random(k)
    cols = [rng.randrange(1 << k) for _ in range(26)]
    profile = column_value_profile(from_columns(k, cols))
    rng.shuffle(cols)
    assert column_value_profile(from_columns(k, cols)) == profile
    assert [sum(row) for row in profile] == [math.comb(26, s) for s in range(27)]
    assert profile[26] == [0] * k + [1]  # 26 random columns span F_2^k


def textbook_subset_sum(values: list[int], n: int) -> list[int]:
    """Yates's loop: pass i adds entry S without bit i onto each S with bit i."""
    out = list(values)
    for i in range(n):
        for s in range(1 << n):
            if (s >> i) & 1:
                out[s] += out[s ^ (1 << i)]
    return out


@pytest.mark.parametrize("dtype", ["<u1", "<u2", "<u4"])
@pytest.mark.parametrize("n", range(13))
def test_word_parallel_subset_sum_matches_textbook_loop(dtype, n):
    rng = np.random.default_rng(n)
    # The largest transformed entry, at the full set, is the sum of all
    # entries; drawing them to sum to the lane maximum keeps every count in
    # its lane with no room to spare.
    values = rng.multinomial(np.iinfo(dtype).max, rng.dirichlet(np.full(1 << n, 0.3)))
    # Tables shorter than one 64-bit word (n = 0, 1, 2) are zero-padded to one.
    a = np.zeros(max(1 << n, 8 // np.dtype(dtype).itemsize), dtype=dtype)
    a[:1 << n] = values
    _subset_sum(a, n)
    assert a[:1 << n].tolist() == textbook_subset_sum(values.tolist(), n)
    assert not a[1 << n:].any()


def block_diagonal(t: int, b: BinMatrix) -> tuple[BinMatrix, tuple[tuple[int, ...], ...]]:
    """diag(I_t, B) and its profile: rank and size add over the two blocks."""
    m = BinMatrix(
        t + b.rows, t + b.cols, tuple(1 << i for i in range(t)) + tuple(v << t for v in b.bits)
    )
    want = [[0] * (m.rows + 1) for _ in range(m.cols + 1)]
    for s, (u, row) in itertools.product(range(t + 1), enumerate(per_mask_profile(b))):
        for rb, c in enumerate(row):
            want[s + u][s + rb] += math.comb(t, s) * c
    return m, by_rank(want)


def test_block_diagonal_profile_is_a_convolution():
    """diag(I_14, B): n = 20, rank 18."""
    b = random_matrix(4, 6, 11)
    assert rank(b) == 4
    m, want = block_diagonal(14, b)
    assert _subset_sum_profile(m) == want


def invertible(n: int) -> BinMatrix:
    return next(m for s in itertools.count() if rank(m := random_matrix(n, n, s)) == n)


def lane_bytes(monkeypatch, m: BinMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A fresh, uncached profile of `m` and the bytes per count of its table."""
    seen = []

    def spy(a, n):
        seen.append(a.itemsize)
        _subset_sum(a, n)

    monkeypatch.setattr(leakage, "_subset_sum", spy)
    return _subset_sum_profile.__wrapped__(m), *seen


@pytest.mark.parametrize("n, lane", [(8, 1), (16, 2)])
def test_invertible_profile_fills_its_lane(monkeypatch, n, lane):
    """Rank 8 and 16 count 2^r - 1 = 255 and 65535 nonzero codewords inside
    the full set, the largest count of a uint8 and of a uint16 lane."""
    want = [[math.comb(n, s) * (r == s) for r in range(n + 1)] for s in range(n + 1)]
    assert lane_bytes(monkeypatch, invertible(n)) == (by_rank(want), lane)


@pytest.mark.parametrize("t, b_cols, lane", [(4, 13, 1), (12, 6, 2)])
def test_block_diagonal_profile_fills_its_lane(monkeypatch, t, b_cols, lane):
    """diag(I_4, B) at n = 17, two chunks, has rank 8; diag(I_12, B) at
    n = 18 has rank 16."""
    b = random_matrix(4, b_cols, 0)
    assert rank(b) == 4
    m, want = block_diagonal(t, b)
    assert lane_bytes(monkeypatch, m) == (want, lane)


def test_invertible_17x17_profile():
    want = [[math.comb(17, s) * (r == s) for r in range(18)] for s in range(18)]
    assert _subset_sum_profile(invertible(17)) == by_rank(want)


@pytest.mark.parametrize("column_0, others", [(0, 16), (8, 8)])
def test_column_0_at_its_extremes(column_0, others):
    """The histogram pairs each even set S with S + 1, which adds column 0.
    A zero column 0 adds no codeword vanishing outside the larger set, so
    every pair's two ranks are equal. Column 0 = 0b1000 next to columns
    inside F_2^3 is a coloop, the unit word on column 0 a codeword, so every
    pair's ranks differ by one. k = 4, n = 17."""
    rng = random.Random(column_0)
    m = from_columns(4, [column_0] + [rng.randrange(others) for _ in range(16)])
    assert rank(m) == 4
    assert _subset_sum_profile(m) == by_rank(column_value_profile(m))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tables_shorter_than_a_word(n):
    """Below n = 3 the table is zero-padded to one 64-bit word, and only its
    2^n entries are subsets: every matrix with k <= 3 rows."""
    for k in range(4):
        for cols in itertools.product(range(1 << k), repeat=n):
            m = from_columns(k, list(cols))
            assert _subset_sum_profile(m) == by_rank(per_mask_profile(m))


@pytest.mark.parametrize("n", [17, 20])
def test_four_row_profile_past_one_chunk_matches_dp(n):
    m = random_matrix(4, n, n)
    assert _subset_sum_profile(m) == by_rank(column_value_profile(m))


@pytest.mark.parametrize("seed", range(5))
def test_transform_profile_matches_dp_on_three_to_five_rows(seed):
    # k runs over 3, 4 and 5, rows that queries take to the span law, at n = 10-14.
    m = random_matrix(3 + seed % 3, 10 + seed, 800 + seed)
    assert _subset_sum_profile(m) == by_rank(column_value_profile(m))
