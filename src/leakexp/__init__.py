"""Exact leakage of linear-hash privacy amplification over binary side
channels, the matching decoding-error bound, and error-exponent curves."""
from .channels import (
    ChannelSpec,
    JointSource,
    bec_joint,
    bsc_joint,
    parse_channel,
)
from .errors import (
    DegenerateParameterError,
    InputParseError,
    InvariantViolationError,
    SizeLimitError,
)
from .exponents import (
    CurveTable,
    OptResult,
    critical_rate,
    curve,
    expurgation_exponent_bec,
    expurgation_exponent_bsc,
    expurgation_rate,
    random_coding_exponent,
)
from .gf2 import (
    BinMatrix,
    parse_matrix,
    random_matrix,
    rank,
)
from .leakage import (
    LeakageReport,
    PmlResult,
    best_matrix_search,
    exact_leakage_bec,
    exact_leakage_bsc,
    mc_p_ml_erasure,
    p_ml_erasure,
)

__version__ = "0.1.0"

__all__ = [
    "BinMatrix",
    "rank",
    "random_matrix",
    "parse_matrix",
    "JointSource",
    "ChannelSpec",
    "bec_joint",
    "bsc_joint",
    "parse_channel",
    "LeakageReport",
    "PmlResult",
    "exact_leakage_bec",
    "exact_leakage_bsc",
    "p_ml_erasure",
    "mc_p_ml_erasure",
    "best_matrix_search",
    "OptResult",
    "CurveTable",
    "random_coding_exponent",
    "expurgation_exponent_bec",
    "expurgation_exponent_bsc",
    "critical_rate",
    "expurgation_rate",
    "curve",
    "InputParseError",
    "SizeLimitError",
    "DegenerateParameterError",
    "InvariantViolationError",
    "__version__",
]
