"""Exact eavesdropper-leakage accounting for linear hashes over binary side channels.

The secret is S = X @ M^T for a uniform n-bit string X observed by the
eavesdropper through a memoryless channel. Both channels see M through the
2^r codewords of its row space (r = rank(M)). Erasure quantities reduce to
the ranks of random column subsets of M. For k <= 3 rows each query takes
the law of that rank in floats, by a DP over the distinct column values
whose states are the at most 16 subspaces of F_2^k: O(#values * 16) float
operations, nothing built or cached per matrix, and 1e-13 relative
precision. Above that a profile counting the subsets by (size, rank) is
built once per matrix by a subset-sum transform over the codeword supports,
O(n 2^n) additions done 2 to 8 counts at a time in 64-bit words.
Bit-flip leakage needs only the codeword weights and one Walsh-Hadamard
transform, O(r 2^r).
The Monte Carlo decoding error decides a chunk of samples at once, by k pivot
steps over the rows of M packed into ceil(n/64) words per sample.

Limits: n <= 26 for the exact paths, none for Monte Carlo.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantViolationError, SizeLimitError
# No exact path calls rank (the span law and the transform find ranks
# themselves), but bench/spans.py wraps leakage.rank, so the name stays here.
from .gf2 import BinMatrix, insert_reduced, random_matrix, rank  # noqa: F401

__all__ = [
    "LeakageReport",
    "PmlResult",
    "exact_leakage_bec",
    "exact_leakage_bsc",
    "p_ml_erasure",
    "mc_p_ml_erasure",
    "verify_leakage_bound",
    "best_matrix_search",
]

LN2 = math.log(2.0)

_ENUM_MAX_COLS = 26
_SLACK_FLOOR = -1e-9
# The most draws or packed words one Monte Carlo chunk's arrays may hold:
# 65536 samples for n <= 32 columns, fewer for wider matrices.
_MC_CHUNK_ENTRIES = 1 << 21
# Entries, or 64-bit words, of a 2^n or 2^r table handled per numpy block.
_CHUNK = 1 << 16
# Up to this many rows each erasure query takes the span law, above it the
# rank profile that the subset-sum transform builds once per matrix. Medians on
# random matrices (2-vCPU VM, numpy 2.4): one law takes 0.03-0.04 ms at 2x16 to
# 2x24 and 0.15 ms at 3x26. Past k = 3 its states are the 67, 374 and 2825
# subspaces of F_2^k; law/transform 4x12 0.48/0.24 ms, 4x24 0.98/104, 5x24
# 7.3/82, 6x20 29/5.9.
_VALUE_DP_MAX_ROWS = 3
# Walsh-Hadamard levels per pass, as products with a 16 x 16 Hadamard matrix
# (a pass per level takes the 2^r table through memory r times), each over at
# most 2^7 rows or columns: BLAS keeps products that small on one thread, and
# handing them to threads cost more than it saved, up to 10x on a busy host.
_WHT_LEVELS = 4
_WHT_COLS_BITS = 7
# phi(e) = e^2 sum_{j>=2} (-e)^(j-2) / (j (j-1)) below |e| = 0.01, where
# (1+e) log1p(e) - e cancels; eight terms give 1e-17 relative.
_PHI_SERIES = [1.0 / (j * (j - 1)) for j in range(9, 1, -1)]  # for np.polyval

@dataclass(frozen=True)
class LeakageReport:
    """Leakage I(S; Z^n) in nats plus the hash output entropy rank(M)*ln 2.

    For erasure side channels the report carries the decoding-error bound
    n * P_ML and its slack (bound - leakage); both are None otherwise.
    """

    leakage_nats: float
    hash_entropy_nats: float
    bound_nats: float | None = None
    slack_nats: float | None = None

    def __post_init__(self) -> None:
        if self.leakage_nats < 0.0:
            raise ValueError("leakage cannot be negative")
        if self.leakage_nats > self.hash_entropy_nats + 1e-9:
            raise ValueError("leakage cannot exceed the hash output entropy")


@dataclass(frozen=True)
class PmlResult:
    """Maximum-likelihood erasure decoding error probability estimate."""

    value: float
    method: str
    ci_halfwidth: float = 0.0
    samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0, 1]")
        if self.method not in ("exact-enumeration", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")


def check_enum_cols(n: int) -> None:
    """Raise SizeLimitError unless n columns are within the exact paths' cap."""
    if n > _ENUM_MAX_COLS:
        raise SizeLimitError(
            f"matrix has {n} columns; 2^n enumeration capped at n={_ENUM_MAX_COLS}"
        )


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name}={p} outside [0, 1]")


def _pow_table(x: float, n: int) -> list[float]:
    # Iterated products, never libm pow: keeps summation inputs platform-stable.
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _erasure_fold(weights: list[int], a: float, b: float) -> float:
    """sum_s a^s * b^(n-s) * weights[s] over s = 0..n, n = len(weights) - 1."""
    n = len(weights) - 1
    a_pows = _pow_table(a, n)
    b_pows = _pow_table(b, n)
    total = 0.0
    for s, w in enumerate(weights):
        if w:
            total += a_pows[s] * b_pows[n - s] * w
    return total


def _span_law(m: BinMatrix, out: float) -> list[float]:
    """law[d]: the chance that a random set of the columns of `m` spans d
    dimensions, each column staying out of the set independently with
    probability `out`.

    A DP over the distinct column values. Per span of the values taken so far,
    keyed as the set of its vectors (bit x for vector x, so the rank is log2
    of its size), it carries the span's probability. A value v with c copies
    joins unless all c stay out, which has probability out^c. F_2^k has at
    most 16 subspaces for k <= 3: O(#values * 16) float operations, whatever
    2^n is. Each probability is a sum of products of nonnegative factors.
    Only 1 - out^c can lose relative precision, when out^c is near 1, but the
    same product with v left out, no higher in rank, then outweighs it; so
    sums weighted by a rank deficit or by rank < k keep theirs.
    """
    k = m.rows
    states = {1: 1.0}  # the span {0} of the empty set
    for v, c in Counter(m.column_ints()).items():
        p_out = out**c
        p_in = 1.0 - p_out
        nxt: dict[int, float] = {}
        for span, p in states.items():
            grown = span | sum(1 << (x ^ v) for x in range(1 << k) if (span >> x) & 1)
            nxt[span] = nxt.get(span, 0.0) + p * p_out
            nxt[grown] = nxt.get(grown, 0.0) + p * p_in
        states = nxt
    law = [0.0] * (k + 1)
    for span, p in states.items():
        law[span.bit_count().bit_length() - 1] += p
    return law


def _subset_sum(a: np.ndarray, n: int) -> None:
    """In place, a[S] becomes the sum of a[T] over the subsets T of S (Yates).

    `a` is a little-endian unsigned table, zero past its 2^n entries up to at
    least one 64-bit word. It is transformed as words of 2, 4 or 8 lanes, so no
    sum may overflow its lane, else it would carry into the next lane.
    """
    lane = 8 * a.itemsize
    words = a.view("<u8")
    in_word = min(n, (64 // lane).bit_length() - 1)
    tmp = np.empty(min(len(words), _CHUNK), dtype=np.uint64)
    for lo in range(0, len(words), _CHUNK):
        w, t = words[lo:lo + _CHUNK], tmp[:len(words) - lo]
        for s in (lane << i for i in range(in_word)):
            # Pass i adds each lane whose index has bit i clear onto the lane
            # 2^i above it: the low s bits of every 2s-bit block, shifted by s.
            mask = np.uint64(sum(((1 << s) - 1) << b for b in range(0, 64, 2 * s)))
            w += np.left_shift(np.bitwise_and(w, mask, out=t), np.uint64(s), out=t)
    # The other passes add whole words, in runs of 2^(i - in_word). Runs of up
    # to 4 words go one offset at a time, so each numpy call is one long loop.
    for i in range(in_word, n):
        run = 1 << (i - in_word)
        v = words.reshape(-1, 2, run)
        for j in range(run) if run <= 4 else [slice(None)]:
            v[:, 1, j] += v[:, 0, j]


def _subset_sum_profile(m: BinMatrix) -> list[list[int]]:
    """Count column subsets by (size, rank) from the supports of the codewords.

    With r = rank(M), the codewords whose support lies inside a column set S
    are those vanishing on its complement J, a subspace of 2^(r - rank(M_J))
    words. One subset-sum (zeta) transform over the 2^n sets counts them for
    every S at once (Yates; Bjorklund et al., STOC 2007).
    """
    n, k = m.cols, m.rows
    # In reduced echelon form, sorted by leading bit, the basis spans its
    # codewords in increasing order, so the scatter writes memory in order.
    basis = sorted(_row_basis(m))
    for i, b in enumerate(basis):
        top = 1 << (b.bit_length() - 1)
        basis[i + 1:] = [v ^ b if v & top else v for v in basis[i + 1:]]
    r = len(basis)
    # No count a[S] exceeds 2^r, so none overflows this lane type.
    lane = np.dtype(np.min_scalar_type(1 << r)).newbyteorder("<")
    a = np.zeros(max(1 << n, 8 // lane.itemsize), dtype=lane)
    a[_xor_span(basis)] = 1
    _subset_sum(a, n)
    # Histogram chunk by chunk (a chunk starts at a multiple of its length),
    # per popcount of the high bits of S, keyed popcount(low bits) * 32 +
    # log2 a[S]; a[S] is a power of two <= 2^r, so log2 a[S] = popcount(a[S] - 1) < 32.
    chunk = min(1 << n, _CHUNK)
    low_bits = chunk.bit_length() - 1
    low = np.bitwise_count(np.arange(chunk, dtype=np.uint32)).astype(np.uint16) * 32
    key = np.empty(chunk, dtype=np.uint16)
    counts = np.zeros((n - low_bits + 1, low_bits + 1, 32), dtype=np.int64)
    for lo in range(0, 1 << n, chunk):
        np.add(low, np.bitwise_count(a[lo:lo + chunk] - 1), out=key)
        row = counts[lo.bit_count()]
        row += np.bincount(key, minlength=row.size).reshape(row.shape)
    profile = [[0] * (k + 1) for _ in range(n + 1)]
    for hi, low_kept, log_a in zip(*np.nonzero(counts)):
        profile[n - hi - low_kept][r - log_a] += int(counts[hi, low_kept, log_a])
    return profile


@lru_cache(maxsize=128)
def _rank_profile(m: BinMatrix) -> tuple[tuple[int, ...], ...]:
    """profile[s][r]: the number of s-column subsets J with rank(M_J) = r."""
    return tuple(tuple(row) for row in _subset_sum_profile(m))


def p_ml_erasure(m: BinMatrix, delta: float) -> PmlResult:
    """Exact ML decoding error probability of the code generated by `m` on an
    erasure channel with erasure probability `delta`.

    A received word decodes wrongly (ties included) exactly when the surviving
    columns have rank below the message length k.
    """
    check_enum_cols(m.cols)
    _check_prob("delta", delta)
    k = m.rows
    if k <= _VALUE_DP_MAX_ROWS:
        total = math.fsum(_span_law(m, delta)[:k])
    else:
        errors = [sum(row[:k]) for row in _rank_profile(m)]
        total = _erasure_fold(errors, 1.0 - delta, delta)
    return PmlResult(value=min(total, 1.0), method="exact-enumeration")


def _wilson_halfwidth(value: float, samples: int) -> float:
    """Larger distance from `value` to an end of its 1.96-sigma (95%) Wilson
    score interval; unlike the normal approximation it stays positive at 0
    and 1 errors."""
    z = 1.96
    z2n = z * z / samples
    center = (value + z2n / 2.0) / (1.0 + z2n)
    spread = value * (1.0 - value) / samples + z2n / (4.0 * samples)
    half = z * math.sqrt(spread) / (1.0 + z2n)
    return max(value - (center - half), center + half - value)


def _dependent_rows(a: np.ndarray) -> np.ndarray:
    """Which samples s have linearly dependent rows a[:, :, s].

    `a` holds k rows of `words` packed 64-bit words per sample. Step i takes the
    lowest set bit of the first nonzero word of row i as its pivot and XORs row
    i into each later row that has the pivot bit, so no later row keeps it.
    The rows are dependent exactly when one of them is zero at its own step.
    Modifies `a`.
    """
    dependent = np.zeros(a.shape[2], dtype=bool)
    for i, row in enumerate(a):
        nonzero = row != 0
        dependent |= ~nonzero.any(axis=0)
        # The lowest set bit of each word, kept in the first nonzero word only.
        pivot = row & -row
        pivot[1:][np.logical_or.accumulate(nonzero[:-1], axis=0)] = 0
        rest = a[i + 1:]
        rest ^= row * (rest & pivot).any(axis=1)[:, None, :]
    return dependent


def mc_p_ml_erasure(m: BinMatrix, delta: float, samples: int, seed: int) -> PmlResult:
    """Monte Carlo estimate of p_ml_erasure with the half-width of its 1.96-sigma
    Wilson interval; identical (matrix, delta, samples, seed) reproduces exactly.

    Each sample keeps column j when its uniform draw u_j >= delta and is an
    error when the kept columns have rank below k. A chunk of samples is
    decided at once: the kept columns, packed into ceil(n/64) words, mask the
    rows of M, and _dependent_rows runs k pivot steps over all samples. The
    cost is O(k^2 ceil(n/64)) word operations per sample, at any n.
    """
    _check_prob("delta", delta)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, k = m.cols, m.rows
    words = max(1, -(-n // 64))
    packed = b"".join(b.to_bytes(8 * words, "little") for b in m.bits)
    rows = np.frombuffer(packed, dtype="<u8").reshape(k, words, 1)
    # The generator fills its output in order, so the chunk size never
    # changes the draws; it shrinks only to bound a chunk's arrays.
    chunk = max(1, _MC_CHUNK_ENTRIES // max(32, n, k * words))
    kept = np.zeros((chunk, 8 * words), dtype=np.uint8)  # bytes past ceil(n/8) stay 0
    rng = np.random.default_rng(seed)
    errors = 0
    for done in range(0, samples, chunk):
        c = min(chunk, samples - done)
        bits = np.packbits(rng.random((c, n)) >= delta, axis=1, bitorder="little")
        kept[:c, :bits.shape[1]] = bits
        a = rows & np.ascontiguousarray(kept[:c].view("<u8").T)
        errors += int(np.count_nonzero(_dependent_rows(a)))
    value = errors / samples
    return PmlResult(
        value=value,
        method="monte-carlo",
        ci_halfwidth=_wilson_halfwidth(value, samples),
        samples=samples,
    )


def exact_leakage_bec(m: BinMatrix, eps: float) -> LeakageReport:
    """Exact leakage in nats for an erasure side channel, with the decoding bound.

    Conditioned on the erased set J, the hash output entropy is rank of the
    J-columns times ln 2, so the leakage is

        ln 2 * sum_J eps^|J| (1-eps)^(n-|J|) (rank(M) - rank(M_J)),

    a sum of nonnegative terms, so small leakages keep their relative precision.

    The report also carries bound = n * p_ml_erasure(m, 1-eps) and its slack.
    """
    check_enum_cols(m.cols)
    _check_prob("eps", eps)
    n, k = m.cols, m.rows
    if k <= _VALUE_DP_MAX_ROWS:
        # The erased columns at eps have the law of the kept ones at delta =
        # 1 - eps: one law gives both, the bound as p_ml_erasure(m, 1 - eps).
        rnk = len(_row_basis(m))
        law = _span_law(m, 1.0 - eps)
        leakage = LN2 * math.fsum((rnk - d) * p for d, p in enumerate(law))
        bound = n * min(math.fsum(law[:k]), 1.0)
    else:
        profile = _rank_profile(m)
        rnk = profile[n].index(1)  # the one n-column subset has rank rank(M)
        deficits = [sum((rnk - r) * c for r, c in enumerate(row)) for row in profile]
        leakage = LN2 * _erasure_fold(deficits, eps, 1.0 - eps)
        bound = n * p_ml_erasure(m, 1.0 - eps).value
    return LeakageReport(
        leakage_nats=leakage,
        hash_entropy_nats=rnk * LN2,
        bound_nats=bound,
        slack_nats=bound - leakage,
    )


def _row_basis(m: BinMatrix) -> list[int]:
    pivots: dict[int, int] = {}
    for v in m.bits:
        insert_reduced(pivots, v)
    return list(pivots.values())


def _xor_span(values: list[int]) -> np.ndarray:
    """Entry u is the XOR of values[j] over the set bits j of u, as uint32:
    under the n <= 26 cap every codeword fits in 32 bits."""
    out = np.zeros(1 << len(values), dtype=np.uint32)
    for i, v in enumerate(values):
        np.bitwise_xor(out[:1 << i], v, out=out[1 << i:2 << i])
    return out


def _walsh_hadamard(a: np.ndarray) -> None:
    """In place, entry s of the 2^r floats becomes sum_u (-1)^popcount(s & u) a[u]."""
    r = len(a).bit_length() - 1
    for lo in range(0, r, _WHT_LEVELS):
        g = min(_WHT_LEVELS, r - lo)
        bits = np.arange(1 << g)
        h = 1.0 - 2.0 * (np.bitwise_count(bits[:, None] & bits) & 1)
        if lo == 0:  # runs of 2^g adjacent entries, as the rows of each product
            v = a.reshape(-1, 1, 1 << min(_WHT_COLS_BITS, r - g), 1 << g)
        else:  # 2^g entries 2^lo apart, as the columns
            cols = min(lo, _WHT_COLS_BITS)
            v = a.reshape(-1, 1 << g, 1 << (lo - cols), 1 << cols).swapaxes(1, 2)
        step_i = max(1, _CHUNK // v[0].size)
        step_j = max(1, _CHUNK // v[0, 0].size)
        for i in range(0, len(v), step_i):
            for j in range(0, v.shape[1], step_j):
                blk = v[i:i + step_i, j:j + step_j]
                blk[...] = np.matmul(blk, h) if lo == 0 else np.matmul(h, blk)


def exact_leakage_bsc(m: BinMatrix, eps: float) -> LeakageReport:
    """Exact leakage in nats for a bit-flip side channel.

    With X uniform, Z is uniform and the flip pattern V is independent of Z,
    so the leakage is the divergence from uniform of the law q of the
    syndrome V @ B^T, B a row basis. Its Walsh-Hadamard coefficients are
    (1-2eps)^wt(uB) (MacWilliams and Sloane, ch. 5); with e the transform of
    those over the nonzero u, q = 2^-r (1 + e) and the leakage is
    2^-r sum_s phi(e_s), phi(e) = (1+e) ln(1+e) - e >= 0: a sum of
    nonnegative terms, so small leakages keep their relative precision.
    """
    check_enum_cols(m.cols)
    _check_prob("eps", eps)
    basis = _row_basis(m)
    r = len(basis)
    weights = np.bitwise_count(_xor_span(basis))
    e = np.array(_pow_table(1.0 - 2.0 * eps, m.cols))[weights]
    e[0] = 0.0
    _walsh_hadamard(e)
    total = 0.0
    for lo in range(0, len(e), _CHUNK):
        x = e[lo:lo + _CHUNK]
        small = np.abs(x) < 0.01
        s, y = x[small], x[~small]
        with np.errstate(divide="ignore", invalid="ignore"):
            # At e = -1 (or rounded below) a syndrome has no mass: phi's limit 1.
            big = np.where(y > -1.0, (1.0 + y) * np.log1p(y) - y, 1.0)
        total += float(np.sum(s * s * np.polyval(_PHI_SERIES, -s)) + np.sum(big))
    return LeakageReport(leakage_nats=math.ldexp(total, -r), hash_entropy_nats=r * LN2)


def verify_leakage_bound(m: BinMatrix, eps: float) -> LeakageReport:
    """Exact erasure leakage with the n * P_ML bound checked; raises
    InvariantViolationError if the slack drops below -1e-9."""
    report = exact_leakage_bec(m, eps)
    assert report.slack_nats is not None
    if report.slack_nats < _SLACK_FLOOR:
        raise InvariantViolationError(
            f"leakage {report.leakage_nats} exceeds bound {report.bound_nats} "
            f"(slack {report.slack_nats})"
        )
    return report


def trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial random_matrix seeds drawn from one master seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63, size=trials, dtype=np.int64)]


def best_matrix_search(
    k: int,
    n: int,
    eps: float,
    trials: int,
    seed: int,
    channel: str = "bec",
) -> tuple[BinMatrix, LeakageReport]:
    """Smallest exact leakage over `trials` seeded random k x n matrices.

    Candidates of full rank k are preferred (a rank-deficient hash trivially
    leaks little but wastes output bits); ties keep the first occurrence.
    Falls back to the overall best only if no trial has full rank.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if channel not in ("bec", "bsc"):
        raise ValueError(f"channel must be 'bec' or 'bsc', got {channel!r}")
    check_enum_cols(n)
    evaluate = exact_leakage_bec if channel == "bec" else exact_leakage_bsc

    def trial(s: int) -> tuple[BinMatrix, LeakageReport]:
        cand = random_matrix(k, n, s)
        return cand, evaluate(cand, eps)

    # rank(cand) == k exactly when its hash entropy is k ln 2; min keeps the
    # first of equal keys.
    return min(
        map(trial, trial_seeds(seed, trials)),
        key=lambda t: (t[1].hash_entropy_nats != k * LN2, t[1].leakage_nats),
    )
