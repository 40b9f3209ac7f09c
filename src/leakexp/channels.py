"""Joint source models for a uniform bit observed through a binary side channel.

Two families are provided: erasure (output alphabet {0, 1, erased}) and
symmetric bit-flip (output alphabet {0, 1}). Tables are exact 2 x |Z|
probability arrays with the input marginal uniform by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputParseError

__all__ = [
    "Z_ZERO",
    "Z_ONE",
    "Z_ERASED",
    "JointSource",
    "ChannelSpec",
    "bec_joint",
    "bsc_joint",
    "parse_channel",
]

Z_ZERO = 0
Z_ONE = 1
Z_ERASED = 2

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class JointSource:
    """Joint distribution of (X, Z): X a bit, Z over `z_alphabet`.

    `probs[x][i]` is P(X = x, Z = z_alphabet[i]). Entries are nonnegative
    and sum to 1 within 1e-12.
    """

    z_alphabet: tuple[int, ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.probs) != 2:
            raise ValueError("expected one probability row per input bit")
        width = len(self.z_alphabet)
        total = 0.0
        for row in self.probs:
            if len(row) != width:
                raise ValueError("probability row width does not match z alphabet")
            for p in row:
                if not (p >= 0.0):
                    raise ValueError(f"negative or NaN probability {p}")
                total += p
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def p_z(self) -> tuple[float, ...]:
        return tuple(
            self.probs[0][i] + self.probs[1][i] for i in range(len(self.z_alphabet))
        )


def bec_joint(eps: float) -> JointSource:
    """Uniform bit through an erasure channel: Z = X with prob 1-eps, erased else."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability {eps} outside [0, 1]")
    keep = (1.0 - eps) / 2.0
    lose = eps / 2.0
    return JointSource(
        z_alphabet=(Z_ZERO, Z_ONE, Z_ERASED),
        probs=((keep, 0.0, lose), (0.0, keep, lose)),
    )


def bsc_joint(eps: float) -> JointSource:
    """Uniform bit through a bit-flip channel: Z = X xor Bernoulli(eps)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"crossover probability {eps} outside [0, 1]")
    keep = (1.0 - eps) / 2.0
    flip = eps / 2.0
    return JointSource(
        z_alphabet=(Z_ZERO, Z_ONE),
        probs=((keep, flip), (flip, keep)),
    )


@dataclass(frozen=True)
class ChannelSpec:
    """Parsed channel descriptor: family 'bec' or 'bsc' plus its probability."""

    family: str
    eps: float

    def __post_init__(self) -> None:
        if self.family not in ("bec", "bsc"):
            raise ValueError(f"channel family must be 'bec' or 'bsc', got {self.family!r}")

    def joint(self) -> JointSource:
        return bec_joint(self.eps) if self.family == "bec" else bsc_joint(self.eps)

    def describe(self) -> str:
        """'family:eps', eps as `:g` writes it where that reads back as the
        same float, else as repr, so the text names the value in use."""
        short = f"{self.eps:g}"
        return f"{self.family}:{short if float(short) == self.eps else repr(self.eps)}"


def parse_channel(descriptor: str) -> ChannelSpec:
    """Parse 'bec:<eps>' or 'bsc:<eps>' with eps a decimal in [0, 1]."""
    family, sep, rest = descriptor.partition(":")
    if not sep or family not in ("bec", "bsc"):
        raise InputParseError(
            f"channel descriptor {descriptor!r} must look like 'bec:<eps>' or 'bsc:<eps>'"
        )
    try:
        eps = float(rest)
    except ValueError:
        raise InputParseError(
            f"channel descriptor {descriptor!r}: {rest!r} is not a number"
        ) from None
    if not math.isfinite(eps) or not 0.0 <= eps <= 1.0:
        raise InputParseError(
            f"channel descriptor {descriptor!r}: probability must lie in [0, 1]"
        )
    return ChannelSpec(family, eps)
