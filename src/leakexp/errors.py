"""Exception types shared across the package.

Each class carries the distinct process exit code the CLI returns for it,
so library code should raise the most specific one that applies. Any other
ValueError exits 2.
"""

__all__ = [
    "InputParseError",
    "SizeLimitError",
    "DegenerateParameterError",
    "InvariantViolationError",
]


class InputParseError(ValueError):
    """Malformed user input: matrix file or channel descriptor."""

    exit_code = 2


class SizeLimitError(ValueError):
    """Instance exceeds a documented enumeration limit."""

    exit_code = 3


class DegenerateParameterError(ValueError):
    """Channel parameter outside the open region where the quantity is defined."""

    exit_code = 4


class InvariantViolationError(RuntimeError):
    """A mathematical invariant that must hold was violated at runtime."""

    exit_code = 5
