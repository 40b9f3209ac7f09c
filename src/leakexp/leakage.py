"""Exact eavesdropper-leakage accounting for linear hashes over binary side channels.

The secret is S = X @ M^T for a uniform n-bit string X observed by the
eavesdropper through a memoryless channel. Both channels see M through the
2^r codewords of its row space (r = rank(M)), and every exact result depends
on M through that space alone, bit for bit. Erasure quantities reduce to
the ranks of random column subsets of M: each query takes the law of that
rank once, in floats, and reads both leakage and decoding error from it, to
1e-13 relative precision. For k <= 5 rows the law comes from a DP over the
distinct column values whose states are subspaces of F_2^k, at most 374,
stepped through a table built once per k: O(#values * #subspaces) float
operations, nothing built or cached per matrix. Above that it weights a
profile counting the subsets by (rank, size), which a subset-sum transform
over the codeword supports builds once per matrix, on the code or, above
half rate, its dual, whichever has the lower rank: O(min(r, n - r) 2^n)
additions of nonzero-codeword counts, 8 or 4 at a time in 64-bit words as
that rank <= 8 or <= 13 needs, then one histogram key per two sets.
Bit-flip leakage needs only the codeword weights, listed from B the reduced
row basis (unique to the row space), and one Walsh-Hadamard transform,
O(r 2^r).
The Monte Carlo decoding error takes its samples in cache-sized blocks, each
drawn, packed and decided before the next, by k branch-free pivot steps over
the rows of M packed into one 32-bit word per sample for n <= 32, ceil(n/64)
64-bit words above.

Reports check their invariants when built (leakage in [0, entropy], slack
>= -1e-9, P_ML in [0, 1]), raising InvariantViolationError on an internal fault.

Limits: exact_method holds the caps of the exact paths, none for Monte Carlo.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChannelSpec
from .errors import InvariantViolationError, SizeLimitError
from .gf2 import BinMatrix, random_matrix, rank, reduced_basis

__all__ = [
    "LeakageReport",
    "PmlResult",
    "exact_method",
    "exact_leakage_bec",
    "exact_leakage_bsc",
    "p_ml_erasure",
    "mc_p_ml_erasure",
    "best_matrix_search",
]

LN2 = math.log(2.0)

_SLACK_FLOOR = -1e-9
# Words (k rows times the words of a sample) in one Monte Carlo block, which is
# drawn, packed and takes all k pivot steps before the next block starts. A
# block of 2^17 words and the temporary of a step stay in a 2 MB per-core L2
# cache: at 10x20, 50 000 samples, the steps took 2.4-2.7 ms blocked against
# 3.0-3.4 ms unblocked (2-vCPU VM; 4.5-5.7 against 6.6-7.7 ms in 64-bit lanes).
# A block also holds at most 4 * 2^17 draws (4 MB of floats) and 2^15 samples,
# so a call's arrays stay within about 5 MB at any n.
_MC_BLOCK_WORDS = 1 << 17
# Entries, or 64-bit words, of a 2^n or 2^r table handled per numpy block.
_CHUNK = 1 << 16
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
            raise InvariantViolationError("leakage cannot be negative")
        if self.leakage_nats > self.hash_entropy_nats + 1e-9:
            raise InvariantViolationError("leakage cannot exceed the hash output entropy")
        if self.slack_nats is not None and self.slack_nats < _SLACK_FLOOR:
            raise InvariantViolationError(
                f"leakage {self.leakage_nats} exceeds bound {self.bound_nats} "
                f"(slack {self.slack_nats})"
            )


@dataclass(frozen=True)
class PmlResult:
    """Maximum-likelihood erasure decoding error probability estimate."""

    value: float
    method: str
    ci_halfwidth: float = 0.0
    samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise InvariantViolationError(f"probability {self.value} outside [0, 1]")
        if self.method not in ("exact-enumeration", "monte-carlo"):
            raise InvariantViolationError(f"unknown method {self.method!r}")


def exact_method(family: str, k: int, n: int, trials: int = 1) -> str:
    """The algorithm the exact paths take for a k x n matrix on a `family`
    channel, k unchecked against n. Raises SizeLimitError past n = 26, or when
    `trials` matrices cost more than 2^46, 2^17 each plus the algorithm's."""
    if n > 26:
        raise SizeLimitError(f"matrix has {n} columns; 2^n enumeration capped at n=26")
    # bec splits at k = 5. Best of five on full-rank random matrices (2-vCPU VM,
    # numpy 2.4), span law/cold transform: 4x12 0.027/0.086 ms, 4x24 0.11/26,
    # 5x12 0.048/0.13, 5x24 0.57/28, the k = 5 table 2.7 ms once; at k = 6 the
    # table takes 47 ms and the law wins nothing: 6x12 0.10/0.105 ms, 6x16
    # 0.52/0.21.
    if family == "bsc":
        method, cost = "walsh-hadamard", min(k, n) * 2 ** min(k, n)
    elif k <= 5:
        method, cost = "span-law", 374 * 64 * n
    else:
        method, cost = "subset-sum", n * 2**n
    # A trial took 0.04 ms at 1x2 bec, 0.07 ms at 1x2 bsc, 0.46 ms at 5x26, 1.9
    # ms at 6x20, 0.13 s at 8x26, 0.23 s at 13x26 (the slowest profile), 18-20
    # ms at 20x24 bsc and 0.8-1.1 s at 26x26 bsc (2-vCPU VM), so the largest
    # run the cap admits takes about 2.6-20 h.
    if trials * (2**17 + cost) > 2**46:
        raise SizeLimitError(f"{trials} trials at {k}x{n} exceed the work cap of 2^46")
    return method


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name}={p} outside [0, 1]")


def _pow_table(x: float, n: int) -> list[float]:
    # Iterated products, never libm pow: keeps summation inputs platform-stable.
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


@lru_cache(maxsize=None)
def _subspace_table(k: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The subspaces of F_2^k as sorted 2^k-bit masks (bit x for vector x),
    grown[v][i] the index of the span of subspace i and v, and the ranks.
    Translating a mask by v swaps bits x and x ^ v, one butterfly swap per set
    bit of v, so the translates by all 2^k vectors double up from the mask;
    the span with v is the mask ORed with its translate by v."""
    lows = [sum(1 << x for x in range(1 << k) if not (x >> i) & 1) for i in range(k)]

    def grown(spans: list[int]) -> np.ndarray:
        t = np.array([spans], dtype=np.uint64)
        for i, low in enumerate(map(np.uint64, lows)):
            s = np.uint64(1 << i)
            t = np.concatenate([t, ((t >> s) & low) | ((t & low) << s)])
        return t | t[0]

    spans, new = {1}, {1}  # from the span {0}, one more vector per round
    while new:
        new = set(grown(list(new)).ravel().tolist()) - spans
        spans |= new
    masks = sorted(spans)
    table = np.searchsorted(np.array(masks, dtype=np.uint64), grown(masks)).tolist()
    ranks = tuple(s.bit_count().bit_length() - 1 for s in masks)
    return tuple(masks), tuple(map(tuple, table)), ranks


def _span_law(m: BinMatrix, out: float) -> list[float]:
    """law[d]: the chance that a random set of the columns of `m` spans d
    dimensions, each column staying out of the set independently with
    probability `out`.

    A DP over the distinct column values. Per span of the values taken so far,
    an index into _subspace_table(k), it carries the span's probability. A
    value v with c copies joins unless all c stay out, which has probability
    out^c. Only the spans reached are kept, at most the 374 subspaces of
    F_2^5 for k <= 5: O(#values * #spans) float operations, whatever 2^n is.
    Each probability is a sum of products of nonnegative factors.
    Only 1 - out^c can lose relative precision, when out^c is near 1, but the
    same product with v left out, no higher in rank, then outweighs it; so
    sums weighted by a rank deficit or by rank < k keep theirs.
    """
    _, grown, ranks = _subspace_table(m.rows)
    states = {0: 1.0}  # the span {0} of the empty set
    for v, c in Counter(m.column_ints()).items():
        p_out = out**c
        p_in = 1.0 - p_out
        row = grown[v]
        nxt: dict[int, float] = {}
        for span, p in states.items():
            nxt[span] = nxt.get(span, 0.0) + p * p_out
            joined = row[span]
            nxt[joined] = nxt.get(joined, 0.0) + p * p_in
        states = nxt
    law = [0.0] * (m.rows + 1)
    for span, p in states.items():
        law[ranks[span]] += p
    return law


def _subset_sum(a: np.ndarray, n: int, lo_bit: int = 0) -> None:
    """In place, a[S] becomes the sum of a[T] over the subsets T of S that
    agree with S on bits 0 .. lo_bit - 1: Yates's passes over bits lo_bit .. n - 1.

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
        for s in (lane << i for i in range(lo_bit, in_word)):
            # Pass i adds each lane whose index has bit i clear onto the lane
            # 2^i above it: the low s bits of every 2s-bit block, shifted by s.
            mask = np.uint64(sum(((1 << s) - 1) << b for b in range(0, 64, 2 * s)))
            w += np.left_shift(np.bitwise_and(w, mask, out=t), np.uint64(s), out=t)
    # The other passes add whole words, in runs of 2^(i - in_word). Runs of up
    # to 4 words go one offset at a time, so each numpy call is one long loop.
    for i in range(max(lo_bit, in_word), n):
        run = 1 << (i - in_word)
        v = words.reshape(-1, 2, run)
        for j in range(run) if run <= 4 else [slice(None)]:
            v[:, 1, j] += v[:, 0, j]


@lru_cache(maxsize=None)
def _pair_size_keys(pairs: int, pair_type: np.dtype) -> np.ndarray:
    """popcount(p) * (8 * pair_type.itemsize + 1) for the pair indices
    p < pairs, in the pair's type: the size part of each pair's histogram
    key, with a width one above the largest sum of byte popcounts. Read-only."""
    out = np.bitwise_count(np.arange(pairs, dtype=pair_type)).astype(pair_type)
    out *= 8 * pair_type.itemsize + 1
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _up_sets(bits: int, lane: np.dtype) -> np.ndarray:
    """up[x][q] = 1 when the set bits of x are set in q, for x, q < 2^bits,
    in `lane`. Read-only."""
    q = np.arange(1 << bits, dtype=np.uint32)
    out = ((q[:, None] & ~q) == 0).astype(lane)
    out.flags.writeable = False
    return out


def _systematic_profile(tails: list[int], f: int) -> list[list[int]]:
    """counts[d][s]: the number of s-column subsets J with rank(G_J) = d, for
    the r x (r + f) matrix G = [I_r | T] whose row i has tail T_i = tails[i],
    d <= r.

    The codewords whose support lies inside a column set S are those vanishing
    on its complement J, a subspace of 2^L(S) words, L(S) = r - rank(G_J).
    S takes G's pivot columns on its high r index bits and the tail columns
    on its low f bits. Codeword u (bit i picking row i) is u on the pivots and
    w(u), the XOR of its tails, on the tail columns, so its support lies
    inside S = (P, Q) when u is a subset of P and w(u) of Q. Entry (u, Q)
    of the table is 1 for u != 0 and w(u) inside Q: one AND of the up-sets of
    w(u)'s low 8 bits and of the rest. A subset-sum (zeta) transform over the r
    pivot bits then counts the nonzero codewords inside every S, 2^L(S) - 1
    (Yates; Bjorklund et al., STOC 2007), in the narrowest lane that holds
    2^r - 1.
    """
    r = len(tails)
    n = r + f
    lane = np.dtype(np.min_scalar_type((1 << r) - 1)).newbyteorder("<")
    a = np.zeros(max(1 << n, 8 // lane.itemsize), dtype=lane)
    # The up-set rows of the low <= 8 tail bits come from a cached table, and
    # 2^8 entries a row keep the broadcast's inner loops long.
    lo_bits, hi_bits = min(f, 8), max(f - 8, 0)
    w = _xor_span(tails)[1:]  # u = 0, the zero codeword, keeps its zero row
    up_hi = ((w >> lo_bits)[:, None] & ~np.arange(1 << hi_bits, dtype=np.uint32)) == 0
    np.bitwise_and(
        up_hi.astype(lane)[:, :, None],
        _up_sets(lo_bits, lane)[w & ((1 << lo_bits) - 1), None, :],
        out=a[1 << f:1 << n].reshape(len(w), 1 << hi_bits, 1 << lo_bits),
    )
    _subset_sum(a, n, lo_bit=f)
    # Histogram chunk by chunk (a chunk starts at a multiple of its length),
    # per popcount of the high bits of S. L(S) = popcount(a[S]), the sum of
    # its lane's byte popcounts. An even S and S + 1 differ in column 0 only,
    # so L(S + 1) - L(S) is 0 or 1 and sigma = L(S) + L(S + 1) fixes both.
    # The pair's byte popcounts, each <= 8, read as one integer times
    # 0x01..01 sum into its top byte with no carry. The pair's key is sigma
    # plus popcount(S / 2 within the chunk) times a width above any sigma.
    chunk = min(1 << n, _CHUNK)
    low_bits = chunk.bit_length() - 1
    pair_type = np.dtype(f"<u{2 * lane.itemsize}")
    sizes = _pair_size_keys(chunk // 2, pair_type)
    pop = np.empty(chunk * lane.itemsize, dtype=np.uint8)
    keys = pop.view(pair_type)
    ones, shift = (1 << 8 * pair_type.itemsize) // 255, 8 * pair_type.itemsize - 8
    counts = np.zeros((n - low_bits + 1, low_bits, 8 * pair_type.itemsize + 1), dtype=np.int64)
    for lo in range(0, 1 << n, chunk):
        np.bitwise_count(a[lo:lo + chunk].view(np.uint8), out=pop)
        keys *= ones
        keys >>= shift
        keys += sizes
        row = counts[lo.bit_count()]
        row += np.bincount(keys, minlength=row.size).reshape(row.shape)
    profile = [[0] * (n + 1) for _ in range(r + 1)]
    nonzero = np.nonzero(counts)
    for hi, low_kept, sigma, c in zip(*(i.tolist() for i in nonzero), counts[nonzero].tolist()):
        out = n - hi - low_kept  # |J| for J outside S; one less outside S + 1
        profile[r - sigma // 2][out] += c
        profile[r - (sigma + 1) // 2][out - 1] += c
    return profile


@lru_cache(maxsize=128)
def _subset_sum_profile(m: BinMatrix) -> tuple[tuple[int, ...], ...]:
    """profile[d][s]: the number of s-column subsets J with rank(M_J) = d.

    A profile does not depend on column order, so M counts as [I_r | T]: the
    reduced basis's r pivot columns, then its tails on the n - r others.
    _systematic_profile transforms over the pivot bits, O(r 2^n). Above half
    rate, 2r > n, it takes the dual code instead: the parity-check matrix
    [I_{n-r} | T^T], one row per non-pivot column j, e_j plus the pivots of
    the basis vectors with bit j set. Its matroid is M's dual, rank*(X) =
    |X| - r + rank(E - X) (Oxley, Matroid Theory, ch. 2), so
    profile[d][s] = profile_H[d + n - r - s][n - s], 0 outside H's ranks.
    The transformed side has rank min(r, n - r) <= 13 under exact_method's
    cap, so its counts fit 8- or 16-bit lanes.
    """
    n, k = m.cols, m.rows
    if n == 0:  # only the empty set, of rank 0
        return ((1,),) + ((0,),) * k
    basis = reduced_basis(m)
    r = len(basis)
    pivots = {b.bit_length() - 1 for b in basis}
    others = [j for j in range(n) if j not in pivots]
    tails = [sum((b >> j & 1) << t for t, j in enumerate(others)) for b in basis]
    if 2 * r <= n:
        profile = _systematic_profile(tails, n - r)
        return tuple(map(tuple, profile)) + ((0,) * (n + 1),) * (k - r)
    # Row j of the parity-check matrix has tail bit i when basis vector i has
    # bit j of its own tail: T transposed.
    dual = _systematic_profile(
        [sum((t >> j & 1) << i for i, t in enumerate(tails)) for j in range(n - r)], r
    )
    return tuple(
        tuple(dual[e][n - s] if 0 <= (e := d + n - r - s) <= n - r else 0 for s in range(n + 1))
        for d in range(k + 1)
    )


def _profile_law(m: BinMatrix, delta: float) -> list[float]:
    """law[d]: the chance that the columns of `m` kept at erasure probability
    `delta` span d dimensions, from the cached profile weighted per query: an
    s-column subset is the kept set with probability (1-delta)^s delta^(n-s),
    and each law[d] is an fsum of nonnegative products.
    """
    n = m.cols
    kept, out = _pow_table(1.0 - delta, n), _pow_table(delta, n)
    w = [kept[s] * out[n - s] for s in range(n + 1)]
    return [math.fsum(map(operator.mul, w, counts)) for counts in _subset_sum_profile(m)]


def _kept_rank_law(m: BinMatrix) -> Callable[[BinMatrix, float], list[float]]:
    """The kept-rank law, _span_law or _profile_law, that exact_method names for `m`."""
    return _span_law if exact_method("bec", m.rows, m.cols) == "span-law" else _profile_law


def _error_mass(law: list[float], rnk: int) -> float:
    """P_ML, the kept-rank law's mass below k = len(law) - 1: exactly 1 when
    rank `rnk` < k, which the float sum could miss by a few ulps."""
    k = len(law) - 1
    return 1.0 if rnk < k else min(math.fsum(law[:k]), 1.0)


def p_ml_erasure(m: BinMatrix, delta: float) -> PmlResult:
    """Exact ML decoding error probability of the code generated by `m` on an
    erasure channel with erasure probability `delta`.

    A received word decodes wrongly (ties included) exactly when the surviving
    columns have rank below the message length k: the kept-rank law's mass
    below k.
    """
    law_of = _kept_rank_law(m)
    _check_prob("delta", delta)
    law = law_of(m, delta)
    return PmlResult(value=_error_mass(law, rank(m)), method="exact-enumeration")


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

    `a` holds k rows of `words` packed unsigned words per sample. Step i takes
    the lowest set bit of the first nonzero word of row i as its pivot and XORs
    row i into each later row that has the pivot bit, so no later row keeps it.
    No step changes row i after its own, so the rows are dependent exactly when
    one of them ends up zero. Each step is branch-free: a later row's word ANDed
    with the pivot is 0 or the pivot. With one word its negative has every bit
    from the pivot up set, so ANDing it with row i gives row i or 0; with more
    words it is first reduced over the words and widened to all ones.
    Modifies `a`.
    """
    words, top = a.shape[1], 8 * a.itemsize - 1
    for i in range(len(a) - 1):
        row, rest = a[i], a[i + 1:]
        pivot = np.negative(row)
        pivot &= row  # the lowest set bit of each word
        if words == 1:
            hit = rest & pivot
            np.negative(hit, out=hit)
            hit &= row
        else:
            # Keep the pivot in the first nonzero word only. The pivots kept
            # so far, ORed into `seen`, are 0 or one power of two, whose
            # negative has the top bit set: (-seen >> top) - 1 is all ones
            # while seen is 0.
            seen = pivot[0].copy()
            for word in pivot[1:]:
                word &= (-seen >> top) - 1
                seen |= word
            hit = rest & pivot
            flag = hit[:, 0] | hit[:, 1]
            for j in range(2, words):
                flag |= hit[:, j]
            np.negative(flag, out=flag)
            flag >>= top
            np.negative(flag, out=flag)  # all ones where the later row has the pivot
            np.bitwise_and(row, flag[:, None, :], out=hit)
        rest ^= hit
    return ~a.any(axis=1).all(axis=0)


def mc_p_ml_erasure(m: BinMatrix, delta: float, samples: int, seed: int) -> PmlResult:
    """Monte Carlo estimate of p_ml_erasure with the half-width of its 1.96-sigma
    Wilson interval; identical (matrix, delta, samples, seed) reproduces exactly.

    Each sample keeps column j when its uniform draw u_j >= delta and is an
    error when the kept columns have rank below k. One loop takes a block of
    samples at a time: it draws them, packs the kept columns into one 32-bit
    word for n <= 32 and ceil(n/64) 64-bit words above, masks the rows of M
    with them, and _dependent_rows runs k pivot steps over the block. A block
    holds at most _MC_BLOCK_WORDS masked words, 4 * _MC_BLOCK_WORDS draws and
    _MC_BLOCK_WORDS / 4 samples, so memory does not grow with `samples`. The cost is O(k^2 ceil(n/64))
    word operations per sample, at any n.
    """
    _check_prob("delta", delta)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, k = m.cols, m.rows
    # 32-bit lanes halve the bytes each step moves where one holds a row;
    # wider rows take 64-bit words, which beat twice as many 32-bit ones.
    lane = np.dtype("<u4" if n <= 32 else "<u8")
    words = max(1, -(-n // (8 * lane.itemsize)))
    packed = b"".join(b.to_bytes(lane.itemsize * words, "little") for b in m.bits)
    rows = np.frombuffer(packed, dtype=lane).reshape(k, words, 1)
    # The generator fills its output in order, so the block size never
    # changes the draws; it only bounds a block's words, floats and samples
    # (each sample also holds its flags and lanes).
    block = min(samples, max(1, _MC_BLOCK_WORDS // max(4, k * words, -(-n // 4))))
    # Each sample's flags padded to whole bytes, so one flat packbits packs
    # them all; flags past n and bytes past ceil(n/8) stay 0.
    n_bytes = -(-n // 8)
    keep = np.zeros((block, 8 * n_bytes), dtype=bool)
    kept = np.zeros((block, lane.itemsize * words), dtype=np.uint8)
    rng = np.random.default_rng(seed)
    errors = 0
    for done in range(0, samples, block):
        c = min(block, samples - done)
        np.greater_equal(rng.random((c, n)), delta, out=keep[:c, :n])
        kept[:c, :n_bytes] = np.packbits(keep[:c], bitorder="little").reshape(c, n_bytes)
        # order="C" keeps each row's words contiguous over the samples.
        a = np.bitwise_and(rows, kept[:c].view(lane).T, order="C")
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
    The erased columns at eps have the law of the kept ones at delta = 1 - eps,
    so one kept-rank law gives both, the bound bit for bit as p_ml_erasure's.
    """
    law_of = _kept_rank_law(m)
    _check_prob("eps", eps)
    n = m.cols
    rnk = rank(m)
    law = law_of(m, 1.0 - eps)
    leakage = LN2 * math.fsum((rnk - d) * p for d, p in enumerate(law))
    bound = n * _error_mass(law, rnk)
    return LeakageReport(
        leakage_nats=leakage,
        hash_entropy_nats=rnk * LN2,
        bound_nats=bound,
        slack_nats=bound - leakage,
    )


def _xor_span(values: list[int]) -> np.ndarray:
    """Entry u is the XOR of values[j] over the set bits j of u, as uint32:
    under exact_method's cap on n every codeword fits in 32 bits."""
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
    syndrome V @ B^T, B the reduced row basis. Its Walsh-Hadamard
    coefficients are (1-2eps)^wt(uB) (MacWilliams and Sloane, ch. 5); with e
    the transform of those over the nonzero u, q = 2^-r (1 + e) and the
    leakage is 2^-r sum_s phi(e_s), phi(e) = (1+e) ln(1+e) - e >= 0: a sum
    of nonnegative terms, so small leakages keep their relative precision.
    """
    exact_method("bsc", m.rows, m.cols)
    _check_prob("eps", eps)
    basis = reduced_basis(m)
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


def trial_seeds(seed: int, trials: int) -> Iterator[int]:
    """Per-trial random_matrix seeds drawn from one master seed, a block at a
    time: the top 63 bits of each raw PCG64(seed) word, the values of
    default_rng(seed).integers(0, 2**63, dtype=np.int64). The raw stream is
    the same however it is split, so no trial count costs memory up front."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bits = np.random.PCG64(seed)
    blocks = (bits.random_raw(min(_CHUNK, trials - lo)) >> 1 for lo in range(0, trials, _CHUNK))
    return (s for block in blocks for s in block.tolist())


def best_matrix_search(
    k: int,
    n: int,
    channel: ChannelSpec,
    trials: int,
    seed: int,
) -> tuple[BinMatrix, LeakageReport]:
    """Smallest exact leakage over `trials` seeded random k x n matrices.

    Candidates of full rank k are preferred (a rank-deficient hash trivially
    leaks little but wastes output bits). Ties are decided on the rounded
    leakages, the first of equal floats kept; on a bit-flip channel,
    equivalent codes of equal exact leakage can round tens of ulps apart, so
    a later one can win. Falls back to the overall best only if no trial has
    full rank.
    """
    exact_method(channel.family, k, n, trials)
    evaluate = exact_leakage_bec if channel.family == "bec" else exact_leakage_bsc

    def trial(s: int) -> tuple[BinMatrix, LeakageReport]:
        cand = random_matrix(k, n, s)
        return cand, evaluate(cand, channel.eps)

    # rank(cand) == k exactly when its hash entropy is k ln 2; min keeps the
    # first of equal keys.
    return min(
        map(trial, trial_seeds(seed, trials)),
        key=lambda t: (t[1].hash_entropy_nats != k * LN2, t[1].leakage_nats),
    )
