"""Peak memory of one Monte Carlo estimate and of one long curve written as
CSV, traced by tracemalloc, which sees numpy's buffers. Both work a block at
a time, so neither peak grows with the sample or rate count."""
import tracemalloc

import pytest

from leakexp.channels import ChannelSpec
from leakexp.exponents import curve
from leakexp.gf2 import random_matrix
from leakexp.leakage import mc_p_ml_erasure


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
