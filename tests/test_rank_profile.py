"""The two rank-profile builders against each other and a per-mask oracle.

The column-value DP and the subset-sum transform share no code; the oracle
counts every column subset with gf2.rank on an explicit column submatrix.
"""
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakexp.gf2 import BinMatrix, rank
from leakexp.leakage import _column_value_profile, _rank_profile, _subset_sum_profile

from column_sets import IndexSet, from_columns, submatrix_cols


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
@example(BinMatrix.identity(6))
@example(BinMatrix(4, 7, (0,) * 4))
@example(from_columns(5, [3, 3, 0, 5, 6, 3, 0, 5]))
@example(BinMatrix.from_rows(((1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0))))
@example(BinMatrix(3, 2, (1, 2, 3)))
# The shapes that were slowest for a depth-first walk: only zero and repeated
# columns, and every value of F_2^3 with repeats.
@example(from_columns(2, [0, 3, 3, 0, 3, 0, 0, 3, 3, 0, 0, 3]))
@example(from_columns(3, [7, 0, 1, 2, 3, 4, 5, 6, 0, 1, 6, 7]))
def test_builders_match_per_mask_ranks(m):
    dp = tuple(map(tuple, _column_value_profile(m)))
    transform = tuple(map(tuple, _subset_sum_profile(m)))
    assert dp == transform
    assert dp == per_mask_profile(m)
    assert _rank_profile(m) == dp


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_order_is_invisible_at_26_columns(k):
    rng = random.Random(k)
    cols = [rng.randrange(1 << k) for _ in range(26)]
    profile = _column_value_profile(from_columns(k, cols))
    rng.shuffle(cols)
    assert _column_value_profile(from_columns(k, cols)) == profile
    assert [sum(row) for row in profile] == [math.comb(26, s) for s in range(27)]
    assert profile[26] == [0] * k + [1]  # 26 random columns span F_2^k
