"""Exact eavesdropper-leakage accounting for linear hashes over binary side channels.

The secret is S = X @ M^T for a uniform n-bit string X observed by the
eavesdropper through a memoryless channel. Both channels see M through the
2^r codewords of its row space (r = rank(M)). Erasure quantities reduce to
column-subset ranks of M, aggregated once per matrix into a profile counting
subsets by (size, rank): for k <= 3 rows by a DP over the distinct column
values whose states are the at most 16 subspaces of F_2^k, at a cost
independent of 2^n; above that by a subset-sum transform over the codeword
supports in O(n 2^n). Bit-flip leakage needs only the codeword weights and
one Walsh-Hadamard transform, O(r 2^r).

Limits: n <= 26 for the exact paths; the brute-force oracle costs |Z|^n 2^n
(n <= 12 for erasure observations, n <= 14 for bit-flip ones).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import JointSource
from .errors import InvariantViolationError, SizeLimitError
# bench/spans.py wraps leakage.rank, so the name stays importable here.
from .gf2 import BinMatrix, insert_reduced, random_matrix, rank  # noqa: F401

__all__ = [
    "LeakageReport",
    "PmlResult",
    "exact_leakage_bec",
    "exact_leakage_bsc",
    "brute_force_leakage",
    "p_ml_erasure",
    "mc_p_ml_erasure",
    "verify_leakage_bound",
    "best_matrix_search",
]

LN2 = math.log(2.0)

_ENUM_MAX_COLS = 26
_BRUTE_MAX_COLS = {2: 14, 3: 12}
_SLACK_FLOOR = -1e-9
_MC_CHUNK = 1 << 16
# Entries of a 2^n or 2^r table handled per numpy block.
_CHUNK = 1 << 16
# Up to this many rows the column-value DP builds the profile, above it the
# subset-sum transform. Median single builds on random matrices (2-vCPU VM,
# numpy 2.4): 2x24 DP 0.16 ms, transform 260 ms; 3x26 DP 0.77 ms; 4x12 1.1 and
# 0.19 ms; 6x12 11 and 0.19 ms.
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


def _column_value_profile(m: BinMatrix) -> list[list[int]]:
    """Count column subsets by (size, rank) by a DP over the distinct column values.

    Per span of the columns chosen so far, keyed as the set of its vectors (bit
    x for vector x, so the rank is log2 of its size), the scan keeps subset
    counts by size. Taking t >= 1 of the c copies of a value v (C(c, t) ways)
    adds v to the span. F_2^k has at most 16 subspaces for k <= 3: O(#values *
    16 * n^2) big-int work, whatever 2^n is.
    """
    n, k = m.cols, m.rows
    states: dict[int, list[int]] = {1: [1]}  # the span {0} of the empty set
    for v, c in Counter(m.column_ints()).items():
        ways = [math.comb(c, t) for t in range(c + 1)]
        nxt: dict[int, list[int]] = {}
        for span, counts in states.items():
            grown = span | sum(1 << (x ^ v) for x in range(1 << k) if (span >> x) & 1)
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


def _subset_sum_profile(m: BinMatrix) -> list[list[int]]:
    """Count column subsets by (size, rank) from the supports of the codewords.

    With r = rank(M), the codewords whose support lies inside a column set S
    are those vanishing on its complement J, a subspace of 2^(r - rank(M_J))
    words. One subset-sum (zeta) transform over the 2^n sets counts them for
    every S at once (Yates; Bjorklund et al., STOC 2007).
    """
    n, k = m.cols, m.rows
    basis = _row_basis(m)
    r = len(basis)
    a = np.zeros(1 << n, dtype=np.min_scalar_type(1 << r))
    a[_xor_span(basis, np.uint32)] = 1
    for i in range(n):
        v = a.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    # Histogram (|J|, rank(M_J)) chunk by chunk. A chunk starts at a multiple
    # of its power-of-two length, so popcount(lo + j) = popcount(lo) +
    # popcount(j); a[S] is a power of two, so its log2 is popcount(a[S] - 1).
    width = k + 1
    chunk = min(len(a), _CHUNK)
    low_kept = np.bitwise_count(np.arange(chunk, dtype=np.uint32)).astype(np.intp)
    counts = np.zeros((n + 1) * width, dtype=np.int64)
    for lo in range(0, len(a), chunk):
        erased = (n - lo.bit_count()) - low_kept
        rnk = r - np.bitwise_count(a[lo:lo + chunk] - 1).astype(np.intp)
        counts += np.bincount(erased * width + rnk, minlength=len(counts))
    return counts.reshape(n + 1, width).tolist()


@lru_cache(maxsize=128)
def _rank_profile(m: BinMatrix) -> tuple[tuple[int, ...], ...]:
    """profile[s][r]: the number of s-column subsets J with rank(M_J) = r."""
    build = _column_value_profile if m.rows <= _VALUE_DP_MAX_ROWS else _subset_sum_profile
    return tuple(tuple(row) for row in build(m))


def p_ml_erasure(m: BinMatrix, delta: float) -> PmlResult:
    """Exact ML decoding error probability of the code generated by `m` on an
    erasure channel with erasure probability `delta`.

    A received word decodes wrongly (ties included) exactly when the surviving
    columns have rank below the message length k.
    """
    check_enum_cols(m.cols)
    _check_prob("delta", delta)
    n, k = m.cols, m.rows
    profile = _rank_profile(m)
    keep_pows = _pow_table(1.0 - delta, n)
    lose_pows = _pow_table(delta, n)
    total = 0.0
    for s in range(n + 1):
        err = sum(profile[s][r] for r in range(k))
        if err:
            total += keep_pows[s] * lose_pows[n - s] * err
    return PmlResult(value=min(total, 1.0), method="exact-enumeration")


def _wilson_halfwidth(value: float, samples: int, z: float = 1.96) -> float:
    """Larger distance from `value` to an end of its Wilson score interval;
    unlike the normal approximation it stays positive at 0 and 1 errors."""
    z2n = z * z / samples
    center = (value + z2n / 2.0) / (1.0 + z2n)
    spread = value * (1.0 - value) / samples + z2n / (4.0 * samples)
    half = z * math.sqrt(spread) / (1.0 + z2n)
    return max(value - (center - half), center + half - value)


def mc_p_ml_erasure(m: BinMatrix, delta: float, samples: int, seed: int) -> PmlResult:
    """Monte Carlo estimate of p_ml_erasure with the half-width of its 1.96-sigma
    Wilson interval; identical (matrix, delta, samples, seed) reproduces exactly."""
    _check_prob("delta", delta)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, k = m.cols, m.rows
    colints = m.column_ints()
    rng = np.random.default_rng(seed)
    shifts = np.arange(n, dtype=np.uint64)
    errors = 0
    done = 0
    while done < samples:
        c = min(_MC_CHUNK, samples - done)
        u = rng.random((c, n))
        kept = (u >= delta).astype(np.uint64)
        masks = (kept << shifts[None, :]).sum(axis=1) if n else np.zeros(c, np.uint64)
        uniq, inverse = np.unique(masks, return_inverse=True)
        bad = np.empty(len(uniq), dtype=bool)
        for idx, mask in enumerate(uniq):
            mask = int(mask)
            pivots: dict[int, int] = {}
            r = 0
            while mask and r < k:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                r += insert_reduced(pivots, colints[j])
            bad[idx] = r < k
        errors += int(bad[inverse].sum())
        done += c
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
    n = m.cols
    profile = _rank_profile(m)
    rnk = profile[n].index(1)  # the one n-column subset has rank rank(M)
    erase_pows = _pow_table(eps, n)
    keep_pows = _pow_table(1.0 - eps, n)
    deficit = 0.0
    for s in range(n + 1):
        inner = sum((rnk - r) * c for r, c in enumerate(profile[s]))
        if inner:
            deficit += erase_pows[s] * keep_pows[n - s] * inner
    leakage = LN2 * deficit
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


def _xor_span(values: list[int], dtype) -> np.ndarray:
    """Entry u is the XOR of values[j] over the set bits j of u."""
    out = np.zeros(1 << len(values), dtype=dtype)
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
    weights = np.bitwise_count(_xor_span(basis, np.uint32))
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


def brute_force_leakage(m: BinMatrix, src: JointSource) -> float:
    """Ground-truth leakage I(S; Z^n) by direct enumeration.

    Builds the joint distribution of (S, Z^n) by summing the product source
    over hash preimages, then returns H(S) + H(Z^n) - H(S, Z^n). No rank or
    symmetry shortcuts; cost is |Z|^n * 2^n.
    """
    n, k = m.cols, m.rows
    d = len(src.z_alphabet)
    limit = _BRUTE_MAX_COLS.get(d)
    if limit is None:
        raise ValueError(f"unsupported side alphabet size {d}")
    if n > limit:
        raise SizeLimitError(
            f"brute force enumerates {d}^n * 2^n patterns; n={n} exceeds {limit}"
        )
    if k > 62:
        raise SizeLimitError("packed syndromes support at most 62 rows")
    w_rows = [np.array(src.probs[0]), np.array(src.probs[1])]
    syn = _xor_span(list(m.column_ints()), np.int64)
    order = np.argsort(syn, kind="stable")
    sorted_syn = syn[order]
    # Group x-patterns by syndrome; accumulate each group's conditional mass
    # over all |Z|^n observation words.
    starts = [0] + list(np.flatnonzero(np.diff(sorted_syn)) + 1) + [len(order)]
    z_count = d**n
    p_z = np.zeros(z_count)
    p_s = []
    h_sz = 0.0
    for g in range(len(starts) - 1):
        acc = np.zeros(z_count)
        for x in order[starts[g]:starts[g + 1]]:
            x = int(x)
            vec = np.ones(1)
            for i in range(n):
                vec = (vec[:, None] * w_rows[(x >> i) & 1][None, :]).ravel()
            acc += vec
        mass = acc[acc > 0.0]
        h_sz -= float(np.sum(mass * np.log(mass)))
        p_z += acc
        p_s.append(float(acc.sum()))
    mass = p_z[p_z > 0.0]
    h_z = -float(np.sum(mass * np.log(mass)))
    h_s = -sum(p * math.log(p) for p in p_s if p > 0.0)
    return max(0.0, h_s + h_z - h_sz)


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
    best_full: tuple[float, BinMatrix, LeakageReport] | None = None
    best_any: tuple[float, BinMatrix, LeakageReport] | None = None
    for s in trial_seeds(seed, trials):
        cand = random_matrix(k, n, s)
        report = evaluate(cand, eps)
        entry = (report.leakage_nats, cand, report)
        if best_any is None or entry[0] < best_any[0]:
            best_any = entry
        full = report.hash_entropy_nats == k * LN2  # rank(cand) == k
        if full and (best_full is None or entry[0] < best_full[0]):
            best_full = entry
    chosen = best_full if best_full is not None else best_any
    assert chosen is not None
    return chosen[1], chosen[2]
