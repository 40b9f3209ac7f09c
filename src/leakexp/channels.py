"""The side channel through which a uniform bit is observed.

Two families are provided: erasure ('bec', output alphabet {0, 1, erased})
and symmetric bit-flip ('bsc', output alphabet {0, 1}), each with its one
probability eps in [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputParseError

__all__ = [
    "ChannelSpec",
    "parse_channel",
]


@dataclass(frozen=True)
class ChannelSpec:
    """Parsed channel descriptor: family 'bec' or 'bsc' plus its probability
    eps in [0, 1], of an erasure or of a flip."""

    family: str
    eps: float

    def __post_init__(self) -> None:
        if self.family not in ("bec", "bsc"):
            raise ValueError(f"channel family must be 'bec' or 'bsc', got {self.family!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"channel probability {self.eps} outside [0, 1]")

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
    if not 0.0 <= eps <= 1.0:
        raise InputParseError(
            f"channel descriptor {descriptor!r}: probability must lie in [0, 1]"
        )
    return ChannelSpec(family, eps)
