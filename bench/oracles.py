"""Reference computations for checking leakexp output, written apart from its source.

Nothing here imports leakexp. Matrices are lists of row strings over {0,1}
(the form `search` prints), and every quantity is computed by a different
algorithm than the program uses:

- erasure leakage and P_ML count, for every column set, the codewords whose
  support lies inside it (a subset-sum transform over 2^n sets), instead of
  ranks of column submatrices;
- bit-flip leakage is a KL divergence from the uniform law, with the
  syndrome law taken from a Walsh-Hadamard transform of codeword weights;
- exponent curves are dense-grid maximisations of the tilted objectives.

All amounts are in nats.
"""
from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

_CHUNK = 1 << 18


def pack_rows(rows: list[str]) -> tuple[int, list[int]]:
    """Row strings to (n, packed row ints); column j is bit j."""
    n = len(rows[0]) if rows else 0
    packed = []
    for row in rows:
        if len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"bad matrix row {row!r}")
        packed.append(sum(1 << j for j, ch in enumerate(row) if ch == "1"))
    return n, packed


def codewords(packed: list[int]) -> np.ndarray:
    """Entry u is the codeword u·M, for every message bitmask u."""
    cw = np.zeros(1, dtype=np.int64)
    for row in packed:
        cw = np.concatenate([cw, cw ^ row])
    return cw


def rank(rows: list[str]) -> int:
    """GF(2) rank, as k minus log2 of the number of messages mapped to 0."""
    _, packed = pack_rows(rows)
    zeros = int(np.count_nonzero(codewords(packed) == 0))
    return len(packed) - (zeros.bit_length() - 1)


def _support_counts(rows: list[str]) -> tuple[int, np.ndarray]:
    """A[S] = number of messages u with supp(u·M) inside the column set S."""
    n, packed = pack_rows(rows)
    if len(packed) > 15:
        raise ValueError("support counts are kept in uint16: k <= 15")
    a = np.zeros(1 << n, dtype=np.uint16)
    np.add.at(a, codewords(packed), 1)
    for i in range(n):
        view = a.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return n, a


def _popcounts(n: int) -> np.ndarray:
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


def _joint_counts(n: int, k: int, a: np.ndarray) -> np.ndarray:
    """counts[w, c]: column sets of size w whose support count A is c."""
    pc = _popcounts(n)
    width = (1 << k) + 1
    counts = np.zeros((n + 1) * width, dtype=np.int64)
    for lo in range(0, len(a), _CHUNK):
        key = pc[lo:lo + _CHUNK].astype(np.int32) * width + a[lo:lo + _CHUNK]
        counts += np.bincount(key, minlength=len(counts))
    return counts.reshape(n + 1, width)


def bec_leakage(rows: list[str], eps: float) -> float:
    """I(S; Z^n) for erasure probability eps.

    Given the kept set K, S is uniform on a coset of the messages whose
    codeword vanishes on K; relative to the kernel of M that leaves
    ln(A[K]/A[0]) nats known. The sum is of nonnegative terms only.
    """
    n, a = _support_counts(rows)
    counts = _joint_counts(n, len(rows), a)
    base = int(a[0])
    terms = []
    for w in range(n + 1):
        p_w = (1.0 - eps) ** w * eps ** (n - w)
        for c in np.flatnonzero(counts[w]):
            if c > base:
                terms.append(p_w * int(counts[w, c]) * math.log(c / base))
    return math.fsum(terms)


def bec_pml(rows: list[str], delta: float) -> float:
    """ML erasure decoding error at erasure probability delta: the erased set
    E holds the support of some nonzero codeword (ties count as errors)."""
    n, a = _support_counts(rows)
    counts = _joint_counts(n, len(rows), a)
    terms = []
    for w in range(n + 1):
        bad = int(counts[w, 2:].sum())
        if bad:
            terms.append(delta ** w * (1.0 - delta) ** (n - w) * bad)
    return min(1.0, math.fsum(terms))


def _phi(e: np.ndarray) -> np.ndarray:
    """(1+e)·ln(1+e) - e >= 0, by its series where the closed form cancels."""
    e = np.asarray(e, dtype=float)
    out = np.empty_like(e)
    small = np.abs(e) < 1e-2
    x = e[small]
    series = np.zeros_like(x)
    for m in range(9, 1, -1):
        series = series * x + (-1.0) ** m / (m * (m - 1))
    out[small] = series * x * x
    y = e[~small]
    inside = y > -1.0
    safe = np.where(inside, y, 0.0)
    # phi(-1) = 1: the limit of (1+e) ln(1+e) at a syndrome of zero mass.
    out[~small] = np.where(inside, (1.0 + safe) * np.log1p(safe) - safe, 1.0)
    return out


def _walsh_hadamard(f: np.ndarray) -> np.ndarray:
    f = f.astype(float).copy()
    h = 1
    while h < len(f):
        view = f.reshape(-1, 2, h)
        lo = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] = lo - view[:, 1, :]
        h *= 2
    return f


def bsc_leakage(rows: list[str], eps: float) -> float:
    """I(S; Z^n) for flip probability eps and a full-rank k x n matrix.

    The syndrome law is q = 2^-k (1 + e) with e the Walsh-Hadamard transform
    of (1-2eps)^wt(u·M) over nonzero u, and the leakage is
    KL(q || uniform) = 2^-k sum_s phi(e_s).
    """
    _, packed = pack_rows(rows)
    k = len(packed)
    if rank(rows) != k:
        raise ValueError("bit-flip oracle needs a full-rank matrix")
    weights = np.bitwise_count(codewords(packed))
    f = (1.0 - 2.0 * eps) ** weights.astype(float)
    f[0] = 0.0
    e = _walsh_hadamard(f)
    return math.fsum(_phi(e)) / (1 << k)


def parity_leakage_bec(n: int, eps: float) -> float:
    """All-ones 1 x n hash on an erasure channel: the parity is known only
    when nothing is erased."""
    return LN2 * (1.0 - eps) ** n


def parity_leakage_bsc(n: int, eps: float) -> float:
    """All-ones 1 x n hash on a bit-flip channel: the observed parity is
    flipped with probability (1 - (1-2eps)^n)/2."""
    c = (1.0 - 2.0 * eps) ** n
    return 0.5 * float(_phi(np.array([c, -c])).sum())


# ----------------------------------------------------------------- exponents

def _grid_max(objective, lo: float, hi: float, rates: np.ndarray,
              extra: np.ndarray | None = None) -> np.ndarray:
    """Per rate, the maximum of objective(x, rate) over x in [lo, hi]: a dense
    grid, then twice a dense grid over the two cells around the best point."""
    grid = np.linspace(lo, hi, 4001)
    if extra is not None:
        grid = np.union1d(grid, extra)
    r = rates[:, None]
    vals = objective(grid[None, :], r)
    best = np.argmax(vals, axis=1)
    x = grid[best]
    step = np.diff(grid).max()
    for _ in range(2):
        local = np.clip(x[:, None] + np.linspace(-step, step, 2001)[None, :], lo, hi)
        vals = objective(local, r)
        best = np.argmax(vals, axis=1)
        x = local[np.arange(len(rates)), best]
        step = 2.0 * step / 2000
    return vals[np.arange(len(rates)), best]


def er_bec(rates: np.ndarray, eps: float) -> np.ndarray:
    """max over theta in [0, 1] of -ln(1 - eps + eps 2^-theta) - theta R."""
    def obj(t, r):
        return -np.log(1.0 - eps + eps * np.exp2(-t)) - t * r
    return _grid_max(obj, 0.0, 1.0, rates)


def er_bsc(rates: np.ndarray, eps: float) -> np.ndarray:
    """max over theta in [0, 1] of -ln((1-eps)^(1+theta) + eps^(1+theta)) - theta R."""
    def obj(t, r):
        return -np.log((1.0 - eps) ** (1.0 + t) + eps ** (1.0 + t)) - t * r
    return _grid_max(obj, 0.0, 1.0, rates)


def ex_bec(rates: np.ndarray, delta: float) -> np.ndarray:
    """sup over theta >= 1 of theta (ln 2 - R - ln(1 + delta^(1/theta))),
    searched on u = 1/theta in [1e-9, 1]; -(1/2) ln delta at R = 0."""
    def obj(u, r):
        return (LN2 - r - np.log1p(delta ** u)) / u
    # Geometric points resolve the optimum near u -> 0 at small rates.
    out = _grid_max(obj, 1e-9, 1.0, rates, np.geomspace(1e-9, 1.0, 2001))
    return np.where(rates == 0.0, -0.5 * math.log(delta), out)


def ex_bsc_reduction(rates: np.ndarray, eps: float) -> np.ndarray:
    return ex_bec(rates, (1.0 - 2.0 * eps) ** 2)


def critical_rate_bsc(eps: float) -> float:
    """Slope at theta = 1 of the bit-flip random-coding objective, by a
    central difference."""
    def e0(t):
        return -math.log((1.0 - eps) ** (1.0 + t) + eps ** (1.0 + t))
    h = 1e-5
    return (e0(1.0 + h) - e0(1.0 - h)) / (2.0 * h)


def expurgation_rate(delta: float) -> float:
    """Rate at which d/dtheta of the expurgation objective vanishes at
    theta = 1, by a central difference."""
    def f(t):
        return -t * math.log1p(delta ** (1.0 / t))
    h = 1e-5
    return LN2 + (f(1.0 + h) - f(1.0 - h)) / (2.0 * h)
