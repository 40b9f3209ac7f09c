"""The vectorised Monte Carlo P_ML against the per-sample elimination oracle
(column_sets.per_sample_errors) on generated matrices and edge cases."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakexp.gf2 import BinMatrix, random_matrix
from leakexp.leakage import mc_p_ml_erasure

from column_sets import from_columns, per_sample_errors


@st.composite
def cases(draw):
    """Up to 140 columns and up to 10 rows (more than n when n is small);
    columns are drawn partly from a small pool, so zero and repeated
    columns are common."""
    n = draw(st.one_of(st.sampled_from([0, 1, 31, 32, 33, 63, 64, 65, 130]), st.integers(0, 140)))
    k = draw(st.integers(0, min(n + 1, 10)))
    column = st.integers(0, (1 << k) - 1)
    pool = draw(st.lists(column, min_size=1, max_size=3))
    cols = draw(st.lists(st.one_of(column, st.sampled_from(pool)), min_size=n, max_size=n))
    delta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return from_columns(k, cols), delta, draw(st.integers(1, 200)), draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
@example((BinMatrix(0, 0, ()), 0.5, 10, 1))
@example((BinMatrix(2, 0, (0, 0)), 0.5, 10, 1))
@example((BinMatrix(0, 5, ()), 0.5, 10, 1))
@example((BinMatrix(3, 2, (1, 2, 3)), 0.2, 100, 2))  # k > n
@example((random_matrix(1, 1, 3), 0.5, 100, 3))
@example((random_matrix(6, 63, 4), 0.9, 300, 4))
@example((random_matrix(6, 64, 5), 0.9, 300, 5))
@example((random_matrix(6, 65, 6), 0.9, 300, 6))
@example((random_matrix(8, 130, 7), 0.95, 300, 7))
@example((BinMatrix(3, 130, (1 << 129 | 1, 1 << 64, 1 << 129 | 1 << 64 | 1)), 0.5, 300, 8))
@example((from_columns(3, [0, 5, 5, 0, 3, 5, 6, 0]), 0.4, 200, 9))  # zero, repeated
@example((random_matrix(4, 70, 10), 0.0, 50, 10))
@example((random_matrix(4, 70, 11), 1.0, 50, 11))
@example((from_columns(3, [1, 2, 4, 3, 5]), 0.3, (1 << 16) + 3, 12))  # two blocks
@example((random_matrix(3, 300, 14), 0.99, 4000, 14))  # three blocks of draws
# Row 0 is zero in its first word whenever column 3 is erased, and then takes
# its pivot in a later word, where rows 1-3 also have bits.
@example((BinMatrix(4, 200, (1 << 3 | 1 << 70 | 1 << 150, 1 << 70 | 1 << 150 | 1 << 199,
                             1 << 3 | 1 << 150 | 1 << 199, 1 << 150 | 1 << 199)), 0.3, 400, 13))
def test_error_count_equals_per_sample_oracle(case):
    m, delta, samples, seed = case
    got = mc_p_ml_erasure(m, delta, samples, seed)
    assert got.value == per_sample_errors(m, delta, samples, seed) / samples

