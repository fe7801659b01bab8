"""Simultaneous smoothing and compression of ordered point sequences.

A curve of N+1 points in any number of dimensions is treated as a chain
of N tangent vectors.  Each smoothing pass merges overlapping runs of
segments with exact rational weights, removing exactly one point while
keeping both endpoints and any equidistant coordinate grid.  The number
of passes is the single tuning parameter.
"""

from .chain import Polyline, TangentChain, build_chain, reconstruct
from .errors import (
    ChainTooShortError,
    InvalidInputError,
    InvalidScalingError,
    ParseError,
    TooManyStepsError,
)
from .io import CsvSchema, emit_svg, read_points, write_points
from .rescale import (
    CoefficientMatrix,
    CoefficientRow,
    overlap_coefficients,
    rescale_fractional,
    rescale_integer,
)
from .smoothing import (
    SmoothingResult,
    SmoothingTrace,
    StepRecord,
    compression_ratio,
    optimal_scaling,
    smooth,
    smooth_to_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Polyline",
    "TangentChain",
    "build_chain",
    "reconstruct",
    "CoefficientRow",
    "CoefficientMatrix",
    "overlap_coefficients",
    "rescale_fractional",
    "rescale_integer",
    "StepRecord",
    "SmoothingTrace",
    "SmoothingResult",
    "optimal_scaling",
    "compression_ratio",
    "smooth",
    "smooth_to_ratio",
    "CsvSchema",
    "read_points",
    "write_points",
    "emit_svg",
    "InvalidInputError",
    "InvalidScalingError",
    "ChainTooShortError",
    "TooManyStepsError",
    "ParseError",
]
