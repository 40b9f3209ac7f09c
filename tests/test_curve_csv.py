"""The curve CSV emitter against a row-by-row reference.

CurveTable.to_csv formats a block of rows per % call. The reference formats
each value on its own with f"{x:.12g}", and the two must agree byte for byte
at the float extremes and on both sides of the block boundary.
"""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from leakexp.channels import ChannelSpec
from leakexp.exponents import _CSV_ROWS, CurveTable, curve

LN2 = math.log(2.0)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, LN2)


def reference_csv(r, value, theta):
    lines = ["R_nats,value_nats,R_bits,value_bits,theta_star"]
    for a, b, c in zip(r, value, theta):
        lines.append(",".join(f"{x:.12g}" for x in (a, b, a / LN2, b / LN2, c)))
    return "\n".join(lines) + "\n"


def random_column(rng, n):
    """Floats of every exponent up to 1e308 from random bits, half of them in
    [0, 1). Their values in bits stay finite, as every curve's do."""
    col = rng.integers(0, 1 << 64, n, dtype=np.uint64).view(np.float64)
    col = np.where(abs(col) <= 1e308, col, 0.5)
    return np.where(rng.random(n) < 0.5, col, rng.random(n))


@st.composite
def columns(draw):
    n = draw(st.sampled_from([1, 2, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [random_column(rng, n) for _ in range(3)]
    plants = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.sampled_from(EDGES)),
        max_size=12,
    ))
    for row, col, x in plants:
        cols[col][row] = x
    cols[2][draw(st.integers(0, n - 1))] = math.inf
    return cols


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(columns())
def test_to_csv_matches_row_by_row_reference(cols):
    r, value, theta = (c.tolist() for c in cols)
    table = CurveTable(*cols)
    assert "".join(table.to_csv()) == reference_csv(r, value, theta)
    # The table keeps its own copies.
    cols[0][0] = 7.0
    assert table.r_nats.tolist() == r


def test_columns_are_read_only():
    tables = [
        CurveTable(np.array([0.0, 0.5]), np.array([0.3, 0.1]), np.array([math.inf, 1.0])),
        curve("ex-bec", ChannelSpec("bec", 0.5), 0.0, LN2, 5),
    ]
    for table in tables:
        for col in (table.r_nats, table.value_nats, table.theta_star):
            assert col.dtype == np.float64 and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1.0
