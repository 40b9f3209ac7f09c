"""Column subsets of a GF(2) matrix, for the per-mask oracles in the tests."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from leakexp.gf2 import BinMatrix


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
