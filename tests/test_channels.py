"""Tests for joint source tables and channel descriptors."""
import math

import pytest

from leakexp.channels import (
    ChannelSpec,
    JointSource,
    Z_ERASED,
    Z_ONE,
    Z_ZERO,
    bec_joint,
    bsc_joint,
    parse_channel,
)
from leakexp.errors import InputParseError

from closed_forms import conditional_entropy_x_given_z, less_noisy_erasure_param, p_x


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestJointTables:
    @pytest.mark.parametrize("eps", [0.0, 0.11, 0.25, 0.5, 0.9, 1.0])
    def test_bec_is_a_distribution(self, eps):
        src = bec_joint(eps)
        assert math.isclose(sum(p_x(src)), 1.0, abs_tol=1e-12)
        assert p_x(src) == (0.5, 0.5)

    @pytest.mark.parametrize("eps", [0.0, 0.11, 0.25, 0.5])
    def test_bsc_is_a_distribution(self, eps):
        src = bsc_joint(eps)
        assert math.isclose(sum(src.p_z()), 1.0, abs_tol=1e-12)
        assert p_x(src) == (0.5, 0.5)

    def test_bec_marginal_on_observation(self):
        src = bec_joint(0.4)
        pz = src.p_z()
        assert math.isclose(pz[Z_ZERO], 0.3, abs_tol=1e-12)
        assert math.isclose(pz[Z_ONE], 0.3, abs_tol=1e-12)
        assert math.isclose(pz[Z_ERASED], 0.4, abs_tol=1e-12)

    def test_bec_conditional_entropy(self):
        # bit known unless erased
        for eps in (0.0, 0.3, 0.5, 1.0):
            src = bec_joint(eps)
            assert math.isclose(
                conditional_entropy_x_given_z(src), eps * math.log(2), abs_tol=1e-12
            )

    def test_bsc_conditional_entropy(self):
        for eps in (0.11, 0.25, 0.5):
            src = bsc_joint(eps)
            assert math.isclose(
                conditional_entropy_x_given_z(src), h2(eps), abs_tol=1e-12
            )

    def test_validation_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            JointSource(z_alphabet=(0, 1), probs=((0.6, 0.6), (0.0, 0.0)))
        with pytest.raises(ValueError):
            JointSource(z_alphabet=(0, 1), probs=((-0.1, 0.6), (0.3, 0.2)))


class TestLessNoisyParam:
    def test_values(self):
        assert math.isclose(less_noisy_erasure_param(0.11), 0.3916, abs_tol=1e-12)
        assert math.isclose(less_noisy_erasure_param(0.25), 0.75, abs_tol=1e-12)
        assert less_noisy_erasure_param(0.5) == 1.0
        assert less_noisy_erasure_param(0.0) == 0.0


class TestParseChannel:
    def test_good_descriptors(self):
        spec = parse_channel("bec:0.4")
        assert (spec.family, spec.eps) == ("bec", 0.4)
        assert spec.describe() == "bec:0.4"
        assert parse_channel("bsc:0.11").family == "bsc"

    @pytest.mark.parametrize("descriptor, text", [
        ("bec:0.4", "bec:0.4"),
        ("bec:1", "bec:1"),
        ("bec:0.5", "bec:0.5"),
        ("bsc:0.11", "bsc:0.11"),
        ("bec:0.1234567", "bec:0.1234567"),  # :g alone gives bec:0.123457
        ("bsc:0.4999999", "bsc:0.4999999"),  # and bsc:0.5
        ("bsc:1e-7", "bsc:1e-07"),
    ])
    def test_describe_names_the_parsed_value(self, descriptor, text):
        spec = parse_channel(descriptor)
        assert spec.describe() == text
        assert parse_channel(spec.describe()) == spec

    def test_joint_dispatch(self):
        assert len(parse_channel("bec:0.2").joint().z_alphabet) == 3
        assert len(parse_channel("bsc:0.2").joint().z_alphabet) == 2

    @pytest.mark.parametrize("family", ["awgn", "BEC", "", "bec "])
    def test_spec_rejects_other_families(self, family):
        # Only the two families exist, so joint() has no third branch to reach.
        with pytest.raises(ValueError, match="channel family must be 'bec' or 'bsc'"):
            ChannelSpec(family, 0.2)

    @pytest.mark.parametrize(
        "bad", ["bez:0.4", "bec", "bec:", "bec:x", "bec:-0.1", "bsc:1.5", ":0.3"]
    )
    def test_bad_descriptors(self, bad):
        with pytest.raises(InputParseError):
            parse_channel(bad)
