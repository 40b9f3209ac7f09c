"""Tests for the packed GF(2) matrix layer.

Rank is checked against a small independent oracle that enumerates the row
space directly, with no pivoting or packing shared with the implementation.
The column-subset helpers the oracles of the other test modules use
(tests/column_sets.py) are checked here too.
"""
import random
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakexp.errors import InputParseError
from leakexp.gf2 import (
    BinMatrix,
    parse_matrix,
    random_matrix,
    rank,
    reduced_basis,
)

from column_sets import (
    IndexSet, format_matrix, from_rows, identity, submatrix_cols, to_rows,
)


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
        m = from_rows(rows)
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
        m = from_rows(((1, 1, 0), (0, 1, 1)))
        # column j packs entry (i, j) into bit i
        assert m.column_ints() == (0b01, 0b11, 0b10)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="negative dimension"):
            BinMatrix(-1, 0, ())

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
            from_rows(((1, 0), (1,)))

    def test_non_binary_entry_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            from_rows(((0, 2),))


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

    def test_reduced_basis_known_value(self):
        # 0011 is the sum of the first two rows; reduced against it, 0110 becomes 0101.
        m = BinMatrix(5, 4, (0b0110, 0b0101, 0b0011, 0, 0b1000))
        assert reduced_basis(m) == [0b0011, 0b0101, 0b1000]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.lists(
        st.one_of(st.integers(0, (1 << n) - 1), st.sampled_from([0, (1 << n) - 1])),
        max_size=8,
    ).map(lambda bits: BinMatrix(len(bits), n, tuple(bits)))))
    @example(BinMatrix(0, 4, ()))
    @example(BinMatrix(3, 0, (0, 0, 0)))
    @example(BinMatrix(8, 3, (1, 2, 3, 4, 5, 6, 7, 7)))  # k > n
    @example(BinMatrix(4, 6, (0b101100,) * 4))
    def test_reduced_basis_is_the_echelon_form_of_the_row_space(self, m):
        basis = reduced_basis(m)
        leads = [b.bit_length() - 1 for b in basis]
        assert basis == sorted(basis) and len(set(leads)) == len(leads)
        assert 0 not in basis
        for b in basis:
            assert all(b == c or not (b >> lead) & 1 for c, lead in zip(basis, leads))
        assert row_space(BinMatrix(len(basis), m.cols, tuple(basis))) == row_space(m)
        assert len(basis) == rank_oracle(m) == rank(m)

    def test_known_values(self):
        assert rank(from_rows(((1, 1), (1, 1)))) == 1
        assert rank(from_rows(((1, 1, 0), (0, 1, 1), (1, 0, 1)))) == 2
        assert rank(identity(6)) == 6


class TestSubmatrixCols:
    def test_selects_in_original_order(self):
        m = from_rows(((1, 0, 1, 1), (0, 1, 1, 0)))
        sub = submatrix_cols(m, IndexSet(4, {1, 3, 4}))
        assert to_rows(sub) == ((1, 1, 1), (0, 1, 0))

    def test_empty_selection(self):
        m = from_rows(((1, 0),))
        sub = submatrix_cols(m, IndexSet(2))
        assert (sub.rows, sub.cols) == (1, 0)
        assert rank(sub) == 0

    def test_ambient_mismatch_rejected(self):
        m = from_rows(((1, 0, 1),))
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

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    def test_round_trip_across_word_sizes(self, n):
        # All zeros, all ones and random bits; column 1 is the first character.
        bits = (0, (1 << n) - 1, random.Random(n).getrandbits(n))
        m = BinMatrix(3, n, bits)
        assert m.to_bit_strings() == tuple(
            "".join(str(b >> j & 1) for j in range(n)) for b in bits
        )
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
            # int(..., 2) reads each of these rows; the format takes only 0 and 1.
            ("1 3\n1_0\n", "line 2, column 2: invalid character '_'"),
            ("1 3\n+10\n", "line 2, column 1: invalid character '+'"),
            ("1 3\n-10\n", "line 2, column 1: invalid character '-'"),
            ("1 3\n 10\n", "line 2, column 1: invalid character ' '"),
            ("1 3\n10 \n", "line 2, column 3: invalid character ' '"),
            ("1 3\n1\t0\n", "line 2, column 2: invalid character '\\t'"),
            ("1 3\n0b1\n", "line 2, column 2: invalid character 'b'"),
            ("1 2\n１0\n", "line 2, column 1: invalid character '１'"),
            ("1 2\n٠1\n", "line 2, column 1: invalid character '٠'"),
            ("1 3\n1\x000\n", "line 2, column 2: invalid character '\\x00'"),
        ],
    )
    def test_errors_name_position(self, text, fragment):
        with pytest.raises(InputParseError, match=re.escape(fragment)):
            parse_matrix(text)

    def test_format_ends_with_newline(self):
        assert format_matrix(identity(2)) == "2 2\n10\n01\n"
