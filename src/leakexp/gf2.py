"""GF(2) matrices with packed-bit rows.

Rows are Python ints; bit j of a row int is the entry in column j+1.
External column indices are 1-based, the packed representation is private.
`reduced_basis` is the one elimination kernel over such rows: `rank` is its
length, and the exact leakage paths take their row bases from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputParseError

__all__ = [
    "BinMatrix",
    "rank",
    "random_matrix",
    "parse_matrix",
]


@dataclass(frozen=True)
class BinMatrix:
    """Immutable k x n matrix over GF(2). `rows`/`cols` are counts."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.bits) != self.rows:
            raise ValueError(f"expected {self.rows} packed rows, got {len(self.bits)}")
        for i, b in enumerate(self.bits):
            # bit_length, not b < 2^cols: a huge cols must not build 2^cols.
            if b < 0 or b.bit_length() > self.cols:
                raise ValueError(f"row {i + 1} does not fit in {self.cols} columns")

    def to_bit_strings(self) -> tuple[str, ...]:
        # bin() under a sentinel bit 1 << cols, reversed without its "0b1".
        return tuple(bin(b | 1 << self.cols)[:2:-1] for b in self.bits)

    def column_ints(self) -> tuple[int, ...]:
        """Columns packed the other way: bit i of column j is entry (i+1, j+1)."""
        cols = [0] * self.cols
        for i, b in enumerate(self.bits):
            while b:
                low = b & -b
                cols[low.bit_length() - 1] |= 1 << i
                b ^= low
        return tuple(cols)


def reduced_basis(m: BinMatrix) -> list[int]:
    """The row space of `m` in reduced echelon form, sorted by leading bit.

    No vector has another's leading bit set. A row space has exactly one such
    basis, so whatever is computed from it depends on the row space alone.
    """
    basis: list[int] = []
    for v in m.bits:
        for b in basis:
            if v ^ b < v:  # exactly when v has b's leading bit
                v ^= b
        if v:
            basis = [b ^ v if b ^ v < b else b for b in basis] + [v]
    return sorted(basis)


def rank(m: BinMatrix) -> int:
    """Rank over GF(2); the empty matrix has rank 0."""
    return len(reduced_basis(m))


def check_shape(k: int, n: int) -> None:
    """Raise ValueError unless a k x n hash has 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k} n={n}")


def random_matrix(k: int, n: int, seed: int) -> BinMatrix:
    """I.i.d. uniform k x n matrix; identical (k, n, seed) is bit-identical everywhere."""
    check_shape(k, n)
    rng = np.random.default_rng(seed)
    ent = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    rows = np.packbits(ent, axis=1, bitorder="little")
    return BinMatrix(k, n, tuple(int.from_bytes(row.tobytes(), "little") for row in rows))


def parse_matrix(text: str) -> BinMatrix:
    """Parse the on-disk format: a 'k n' header line, then k rows of n chars in {0,1}.

    Raises InputParseError naming the offending line (and column where it
    applies); any shape other than exactly k+1 lines is rejected.
    """
    lines = text.splitlines()
    if not lines:
        raise InputParseError("line 1: missing 'k n' header")
    head = lines[0].split()
    if len(head) != 2:
        raise InputParseError("line 1: header must be two integers 'k n'")
    try:
        k, n = int(head[0]), int(head[1])
    except ValueError:
        raise InputParseError("line 1: header must be two integers 'k n'") from None
    if k < 0 or n < 0:
        raise InputParseError("line 1: dimensions must be >= 0")
    if len(lines) < k + 1:
        raise InputParseError(
            f"line {len(lines) + 1}: expected {k} row lines, file ends after {len(lines) - 1}"
        )
    if len(lines) > k + 1:
        raise InputParseError(f"line {k + 2}: unexpected content after {k} rows")
    packed = []
    for i in range(k):
        row = lines[i + 1]
        if len(row) != n:
            raise InputParseError(f"line {i + 2}: expected {n} characters, got {len(row)}")
        # Only 0s and 1s reach int(), whose grammar also takes signs and '_'.
        j = n - len(row.lstrip("01"))
        if j < n:
            raise InputParseError(f"line {i + 2}, column {j + 1}: invalid character {row[j]!r}")
        packed.append(int(row[::-1] or "0", 2))
    return BinMatrix(k, n, tuple(packed))
