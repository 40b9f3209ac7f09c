"""Peak memory of one Monte Carlo estimate, of one long curve written as CSV
and of one high-rate rank profile, traced by tracemalloc, which sees numpy's
buffers. The first two work a block at a time, so neither peak grows with the
sample or rate count. A curve holds its three columns once: the table takes
over the arrays `curve` solved into. A profile's count table takes the lane
of the lower-rank side, the code or its dual."""
import itertools
import tracemalloc

import pytest

from leakexp.channels import ChannelSpec
from leakexp.exponents import curve
from leakexp.gf2 import random_matrix, rank
from leakexp.leakage import _subset_sum_profile, mc_p_ml_erasure


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k, n, samples", [(10, 20, 50_000), (1, 1000, 20_000)])
def test_monte_carlo_peak(k, n, samples):
    m = random_matrix(k, n, 3)
    assert traced_peak_mb(lambda: mc_p_ml_erasure(m, 0.5, samples, 1)) < 6.0


def test_long_curve_csv_peak():
    def write():
        for _ in curve("er-bsc", ChannelSpec("bsc", 0.11), 0.0, 0.69, 10**5).to_csv():
            pass

    assert traced_peak_mb(write) < 8.0


def test_longest_curve_holds_its_columns_once():
    # 10^6 rates make three 7.6 MB columns, 22.9 MB in all; a copy of them
    # would take the peak past 45 MB.
    spec = ChannelSpec("bsc", 0.11)
    assert traced_peak_mb(lambda: curve("er-bsc", spec, 0.0, 0.69, 10**6)) < 30.0


def test_high_rate_profile_peak():
    # Full-rank 20 x 22: the dual code has rank 2, so the 2^22 counts take a
    # 4 MB uint8 table; counted on the rank-20 side they would need 16 MB of
    # uint32.
    m = next(m for s in itertools.count() if rank(m := random_matrix(20, 22, s)) == 20)
    assert traced_peak_mb(lambda: _subset_sum_profile.__wrapped__(m)) < 6.0
