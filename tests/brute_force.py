"""Ground-truth leakage by direct enumeration, the oracle for both exact paths
in leakexp.leakage; it shares no code with them.

Cost is |Z|^n * 2^n: n <= 12 for erasure observations, n <= 14 for bit-flip
ones.
"""
import math

import numpy as np

from leakexp.errors import SizeLimitError

from closed_forms import joint_table

_BRUTE_MAX_COLS = {2: 14, 3: 12}


def _syndromes(m) -> np.ndarray:
    """syn[x] = M x^T packed as an int, bit i of x standing for column i + 1."""
    syn = np.zeros(1, dtype=np.int64)
    for col in m.column_ints():
        syn = np.concatenate([syn, syn ^ col])
    return syn


def brute_force_leakage(m, family: str, eps: float) -> float:
    """I(S; Z^n) for the hash S = X M^T of a uniform X observed through the
    memoryless 'bec' or 'bsc' channel `family` with probability `eps`.

    Builds the joint distribution of (S, Z^n) by summing the product source
    over hash preimages, then returns H(S) + H(Z^n) - H(S, Z^n). No rank or
    symmetry shortcuts.
    """
    n, k = m.cols, m.rows
    table = joint_table(family, eps)
    d = len(table[0])
    limit = _BRUTE_MAX_COLS.get(d)
    if limit is None:
        raise ValueError(f"unsupported side alphabet size {d}")
    if n > limit:
        raise SizeLimitError(
            f"brute force enumerates {d}^n * 2^n patterns; n={n} exceeds {limit}"
        )
    if k > 62:
        raise SizeLimitError("packed syndromes support at most 62 rows")
    w_rows = [np.array(table[0]), np.array(table[1])]
    syn = _syndromes(m)
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
