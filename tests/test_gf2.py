"""Tests for the packed GF(2) matrix layer.

Rank is checked against a small independent oracle that enumerates the row
space directly, with no pivoting or packing shared with the implementation.
The column-subset helpers the oracles of the other test modules use
(tests/column_sets.py) are checked here too.
"""
import numpy as np
import pytest

from leakexp.errors import InputParseError
from leakexp.gf2 import (
    BinMatrix,
    insert_reduced,
    parse_matrix,
    random_matrix,
    rank,
)

from column_sets import IndexSet, format_matrix, identity, submatrix_cols, to_rows


def row_space(m: BinMatrix) -> set[int]:
    space = {0}
    for b in m.bits:
        space |= {v ^ b for v in space}
    return space


def rank_oracle(m: BinMatrix) -> int:
    return len(row_space(m)).bit_length() - 1


class TestBinMatrix:
    def test_from_rows_round_trip(self):
        rows = ((1, 0, 1), (0, 1, 1))
        m = BinMatrix.from_rows(rows)
        assert (m.rows, m.cols) == (2, 3)
        assert to_rows(m) == rows
        assert m.to_bit_strings() == ("101", "011")

    def test_identity(self):
        m = identity(4)
        assert to_rows(m) == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        )
        assert rank(m) == 4

    def test_column_ints(self):
        m = BinMatrix.from_rows(((1, 1, 0), (0, 1, 1)))
        # column j packs entry (i, j) into bit i
        assert m.column_ints() == (0b01, 0b11, 0b10)

    def test_empty_matrix_allowed(self):
        m = BinMatrix(0, 5, ())
        assert rank(m) == 0

    def test_row_overflow_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            BinMatrix(1, 2, (4,))

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError, match="packed rows"):
            BinMatrix(2, 3, (1,))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            BinMatrix.from_rows(((1, 0), (1,)))

    def test_non_binary_entry_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            BinMatrix.from_rows(((0, 2),))


class TestIndexSet:
    def test_membership_and_len(self):
        s = IndexSet(5, {1, 3})
        assert len(s) == 2
        assert 3 in s and 2 not in s

    def test_complement(self):
        s = IndexSet(4, {2, 4})
        assert s.complement().members == frozenset({1, 3})
        assert s.complement().complement().members == s.members

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            IndexSet(3, {0})
        with pytest.raises(ValueError, match="outside"):
            IndexSet(3, {4})


class TestRank:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_row_space_oracle(self, seed):
        k = 1 + seed % 6
        n = k + seed % 5
        m = random_matrix(k, n, seed)
        assert rank(m) == rank_oracle(m)

    def test_insert_reduced_grows_a_basis(self):
        pivots: dict[int, int] = {}
        assert insert_reduced(pivots, 0b0110)
        assert insert_reduced(pivots, 0b0101)
        assert not insert_reduced(pivots, 0b0011)  # sum of the first two
        assert not insert_reduced(pivots, 0)
        assert insert_reduced(pivots, 0b1000)
        assert len(pivots) == 3
        assert rank_oracle(BinMatrix(3, 4, tuple(pivots.values()))) == 3

    def test_known_values(self):
        assert rank(BinMatrix.from_rows(((1, 1), (1, 1)))) == 1
        assert rank(BinMatrix.from_rows(((1, 1, 0), (0, 1, 1), (1, 0, 1)))) == 2
        assert rank(identity(6)) == 6


class TestSubmatrixCols:
    def test_selects_in_original_order(self):
        m = BinMatrix.from_rows(((1, 0, 1, 1), (0, 1, 1, 0)))
        sub = submatrix_cols(m, IndexSet(4, {1, 3, 4}))
        assert to_rows(sub) == ((1, 1, 1), (0, 1, 0))

    def test_empty_selection(self):
        m = BinMatrix.from_rows(((1, 0),))
        sub = submatrix_cols(m, IndexSet(2))
        assert (sub.rows, sub.cols) == (1, 0)
        assert rank(sub) == 0

    def test_ambient_mismatch_rejected(self):
        m = BinMatrix.from_rows(((1, 0, 1),))
        with pytest.raises(ValueError, match="does not match"):
            submatrix_cols(m, IndexSet(4, {1}))

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_monotone_under_column_removal(self, seed):
        m = random_matrix(3, 6, 100 + seed)
        full = rank(m)
        sub = submatrix_cols(m, IndexSet(6, {1, 2, 5}))
        assert 0 <= rank(sub) <= full


class TestRandomMatrix:
    def test_deterministic(self):
        assert random_matrix(3, 7, 5).bits == random_matrix(3, 7, 5).bits

    def test_seed_sensitivity(self):
        mats = {random_matrix(4, 8, s).bits for s in range(16)}
        assert len(mats) > 1

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="k <= n"):
            random_matrix(3, 2, 0)

    @pytest.mark.parametrize("k, n", [
        (k, n) for n in (0, 1, 7, 8, 9, 63, 64, 65, 130) for k in (0, 1, 3) if k <= n
    ])
    def test_rows_are_the_drawn_bits_in_column_order(self, k, n):
        # The draws packed one entry at a time: bit j of row i is entry (i, j).
        for seed in (0, 1, 2**62 + 5):
            ent = np.random.default_rng(seed).integers(0, 2, size=(k, n), dtype=np.uint8)
            rows = tuple(sum(int(ent[i, j]) << j for j in range(n)) for i in range(k))
            assert random_matrix(k, n, seed).bits == rows


class TestMatrixText:
    def test_round_trip(self):
        m = random_matrix(3, 9, 7)
        assert parse_matrix(format_matrix(m)) == m

    def test_parse_example(self):
        m = parse_matrix("2 3\n101\n011\n")
        assert m.to_bit_strings() == ("101", "011")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "line 1"),
            ("2\n10\n01\n", "two integers"),
            ("a b\n", "two integers"),
            ("1 3\n10\n", "line 2: expected 3 characters"),
            ("1 3\n102\n", "line 2, column 3"),
            ("2 2\n10\n", "line 3"),
            ("1 2\n10\n11\n", "line 3: unexpected content"),
        ],
    )
    def test_errors_name_position(self, text, fragment):
        with pytest.raises(InputParseError, match=fragment):
            parse_matrix(text)

    def test_format_ends_with_newline(self):
        assert format_matrix(identity(2)) == "2 2\n10\n01\n"
