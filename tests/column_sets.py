"""Oracles' helpers for the tests: column subsets of a GF(2) matrix, spans
grown by a vector, (size, rank) counts by a DP over the column values and
regrouped by rank, matrices built from their rows or columns or as
identities, rows and text of a matrix, and Monte Carlo errors decided sample
by sample."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from leakexp.gf2 import BinMatrix, rank


@dataclass(frozen=True)
class IndexSet:
    """Subset of column positions {1, ..., n} with its ambient length n."""

    n: int
    members: frozenset[int]

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        ms = frozenset(members)
        if n < 0:
            raise ValueError("ambient length must be >= 0")
        for i in ms:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} outside 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", ms)

    def complement(self) -> "IndexSet":
        return IndexSet(self.n, frozenset(range(1, self.n + 1)) - self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members


def submatrix_cols(m: BinMatrix, j: IndexSet) -> BinMatrix:
    """Columns of `m` selected by `j` in ascending original order."""
    if j.n != m.cols:
        raise ValueError(f"index set over 1..{j.n} does not match {m.cols} columns")
    sel = sorted(j.members)
    packed = []
    for b in m.bits:
        v = 0
        for t, col in enumerate(sel):
            v |= ((b >> (col - 1)) & 1) << t
        packed.append(v)
    return BinMatrix(m.rows, len(sel), tuple(packed))


def translate(span: int, v: int, k: int) -> int:
    """The span of a set of vectors in F_2^k, keyed as the set of its vectors
    (bit x for vector x), with v added: its vectors and their translates by v."""
    return span | sum(1 << (x ^ v) for x in range(1 << k) if (span >> x) & 1)


def column_value_profile(m: BinMatrix) -> list[list[int]]:
    """Count column subsets by (size, rank) by a DP over the distinct column values.

    Per span of the columns chosen so far, keyed as the set of its vectors (bit
    x for vector x, so the rank is log2 of its size), the scan keeps subset
    counts by size. Taking t >= 1 of the c copies of a value v (C(c, t) ways)
    adds v to the span. Exact integers, O(#values * #spans * n^2) big-int
    work whatever 2^n is; F_2^k has at most 16 subspaces for k <= 3.
    """
    n, k = m.cols, m.rows
    states: dict[int, list[int]] = {1: [1]}  # the span {0} of the empty set
    for v, c in Counter(m.column_ints()).items():
        ways = [math.comb(c, t) for t in range(c + 1)]
        nxt: dict[int, list[int]] = {}
        for span, counts in states.items():
            grown = translate(span, v, k)
            for key, taken in ((span, range(1)), (grown, range(1, c + 1))):
                out = nxt.setdefault(key, [0] * (len(counts) + c))
                for s, a in enumerate(counts):
                    for t in taken:
                        out[s + t] += a * ways[t]
        states = nxt
    profile = [[0] * (k + 1) for _ in range(n + 1)]
    for span, counts in states.items():
        for s, a in enumerate(counts):
            profile[s][span.bit_count().bit_length() - 1] += a
    return profile


def by_rank(profile: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Counts by (size, rank) regrouped by rank, then size: the layout of the
    profile that leakage._subset_sum_profile caches."""
    return tuple(zip(*profile))


def from_rows(rows: Sequence[Sequence[int]]) -> BinMatrix:
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
    return BinMatrix(k, n, tuple(packed))


def from_columns(k: int, cols: list[int]) -> BinMatrix:
    """The k-row matrix whose column j is cols[j], bit i being its entry in row i."""
    rows = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(k))
    return BinMatrix(k, len(cols), rows)


def identity(n: int) -> BinMatrix:
    return BinMatrix(n, n, tuple(1 << i for i in range(n)))


def to_rows(m: BinMatrix) -> tuple[tuple[int, ...], ...]:
    """Entries of `m` as nested 0/1 tuples, row-major: the inverse of from_rows."""
    return tuple(tuple((b >> j) & 1 for j in range(m.cols)) for b in m.bits)


def format_matrix(m: BinMatrix) -> str:
    """The text parse_matrix reads: a 'k n' header, then one line per row."""
    return f"{m.rows} {m.cols}\n" + "".join(s + "\n" for s in m.to_bit_strings())


def per_sample_errors(m: BinMatrix, delta: float, samples: int, seed: int) -> int:
    """Errors among mc_p_ml_erasure's samples, decided one sample at a time.

    Replays the draws in one block and takes the rank of each sample's kept
    columns, as Python ints: it holds at any n and shares neither the word
    packing nor the blocks with the function it checks.
    """
    colints = m.column_ints()
    draws = np.random.default_rng(seed).random((samples, m.cols))
    decided: dict[tuple[int, ...], bool] = {}
    errors = 0
    for u in draws:
        kept = tuple(j for j in range(m.cols) if u[j] >= delta)
        if kept not in decided:
            kept_cols = BinMatrix(len(kept), m.rows, tuple(colints[j] for j in kept))
            decided[kept] = rank(kept_cols) < m.rows
        errors += decided[kept]
    return errors
