"""GF(2) matrices with packed-bit rows.

Rows are Python ints; bit j of a row int is the entry in column j+1.
External column indices are 1-based, the packed representation is private.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinMatrix":
        """Build from nested 0/1 sequences (row-major)."""
        k = len(rows)
        n = len(rows[0]) if k else 0
        packed = []
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
            v = 0
            for j, b in enumerate(r):
                if b not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                v |= b << j
            packed.append(v)
        return cls(k, n, tuple(packed))

    def to_bit_strings(self) -> tuple[str, ...]:
        return tuple(
            "".join("1" if (b >> j) & 1 else "0" for j in range(self.cols))
            for b in self.bits
        )

    def column_ints(self) -> tuple[int, ...]:
        """Columns packed the other way: bit i of column j is entry (i+1, j+1)."""
        cols = [0] * self.cols
        for i, b in enumerate(self.bits):
            while b:
                low = b & -b
                cols[low.bit_length() - 1] |= 1 << i
                b ^= low
        return tuple(cols)


def insert_reduced(pivots: dict[int, int], v: int) -> bool:
    """Reduce `v` against `pivots` (vectors keyed by their leading bit).

    A nonzero remainder joins `pivots` and the call returns True; False means
    `v` already lay in their span. Insertion order is kept, so the dict's
    values are a basis in the order it was found.
    """
    while v:
        p = v.bit_length() - 1
        b = pivots.get(p)
        if b is None:
            pivots[p] = v
            return True
        v ^= b
    return False


def rank(m: BinMatrix) -> int:
    """Rank over GF(2) via row elimination; the empty matrix has rank 0."""
    pivots: dict[int, int] = {}
    return sum(insert_reduced(pivots, v) for v in m.bits)


def random_matrix(k: int, n: int, seed: int) -> BinMatrix:
    """I.i.d. uniform k x n matrix; identical (k, n, seed) is bit-identical everywhere."""
    if k > n:
        raise ValueError(f"need k <= n, got k={k} n={n}")
    if k < 0:
        raise ValueError("k must be >= 0")
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
            raise InputParseError(
                f"line {i + 2}: expected {n} characters, got {len(row)}"
            )
        v = 0
        for j, ch in enumerate(row):
            if ch == "1":
                v |= 1 << j
            elif ch != "0":
                raise InputParseError(
                    f"line {i + 2}, column {j + 1}: invalid character {ch!r}"
                )
        packed.append(v)
    return BinMatrix(k, n, tuple(packed))
