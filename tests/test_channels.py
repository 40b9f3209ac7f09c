"""Tests for channel descriptors and the tilt terms the exponents read from
them, checked against the joint tables of tests/closed_forms.py."""
import math

import pytest

from leakexp.channels import ChannelSpec, parse_channel
from leakexp.errors import InputParseError
from leakexp.exponents import _tilt_terms

from closed_forms import (
    conditional_entropy_x_given_z,
    joint_table,
    less_noisy_erasure_param,
    p_x,
    p_z,
)


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def tilt_entropy(channel: ChannelSpec) -> float:
    """H(X|Z) as -sum m*l over the library's tilt terms."""
    return -math.fsum(m * ell for m, ell in _tilt_terms(channel))


class TestJointTables:
    @pytest.mark.parametrize("eps", [0.0, 0.11, 0.25, 0.5, 0.9, 1.0])
    def test_bec_is_a_distribution(self, eps):
        table = joint_table("bec", eps)
        assert math.isclose(sum(p_x(table)), 1.0, abs_tol=1e-12)
        assert p_x(table) == (0.5, 0.5)

    @pytest.mark.parametrize("eps", [0.0, 0.11, 0.25, 0.5])
    def test_bsc_is_a_distribution(self, eps):
        table = joint_table("bsc", eps)
        assert math.isclose(sum(p_z(table)), 1.0, abs_tol=1e-12)
        assert p_x(table) == (0.5, 0.5)

    def test_bec_marginal_on_observation(self):
        pz = p_z(joint_table("bec", 0.4))
        assert all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(pz, (0.3, 0.3, 0.4)))

    def test_bec_conditional_entropy(self):
        # bit known unless erased
        for eps in (0.0, 0.3, 0.5, 1.0):
            expect = eps * math.log(2)
            assert math.isclose(tilt_entropy(ChannelSpec("bec", eps)), expect, abs_tol=1e-12)
            table = joint_table("bec", eps)
            assert math.isclose(conditional_entropy_x_given_z(table), expect, abs_tol=1e-12)

    def test_bsc_conditional_entropy(self):
        for eps in (0.11, 0.25, 0.5):
            assert math.isclose(tilt_entropy(ChannelSpec("bsc", eps)), h2(eps), abs_tol=1e-12)
            table = joint_table("bsc", eps)
            assert math.isclose(conditional_entropy_x_given_z(table), h2(eps), abs_tol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 1e-300, 0.3, 0.5, 1.0])
    def test_bec_erased_cells_merge_into_one_term(self, eps):
        # The two erased cells share P(x|z) = 1/2; the kept cells, with
        # P(x|z) = 1, add nothing to the tilt.
        expect = ((eps, math.log(0.5)),) if eps > 0.0 else ()
        assert _tilt_terms(ChannelSpec("bec", eps)) == expect

    def test_bsc_terms_are_the_two_flip_outcomes(self):
        terms = dict((ell, m) for m, ell in _tilt_terms(ChannelSpec("bsc", 0.25)))
        assert terms == {math.log(0.75): 0.75, math.log(0.25): 0.25}
        # At eps = 1/2 both cells of a row have P(x|z) = 1/2 and merge.
        assert _tilt_terms(ChannelSpec("bsc", 0.5)) == ((1.0, math.log(0.5)),)

    @pytest.mark.parametrize("family", ["bec", "bsc"])
    @pytest.mark.parametrize("eps", [-0.1, -5e-324, 1.0000000000000002, 1.5, math.nan, math.inf])
    def test_spec_rejects_eps_outside_unit_interval(self, family, eps):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ChannelSpec(family, eps)


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

    @pytest.mark.parametrize("family", ["awgn", "BEC", "", "bec "])
    def test_spec_rejects_other_families(self, family):
        # Only the two families exist, so _tilt_terms has no third branch to reach.
        with pytest.raises(ValueError, match="channel family must be 'bec' or 'bsc'"):
            ChannelSpec(family, 0.2)

    @pytest.mark.parametrize(
        "bad",
        ["bez:0.4", "bec", "bec:", "bec:x", "bec:-0.1", "bsc:1.5", ":0.3",
         "bec:nan", "bsc:inf", "bec:-inf"],
    )
    def test_bad_descriptors(self, bad):
        with pytest.raises(InputParseError):
            parse_channel(bad)
