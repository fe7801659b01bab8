"""Simultaneous smoothing and compression of ordered point sequences.

A curve of N+1 points in any number of dimensions is treated as a chain
of N tangent vectors.  Each smoothing pass merges overlapping runs of
segments, each weight rounded once to float64, and removes one point; the
first point stays bit for bit, the last up to rounding, and an equidistant
grid stays equidistant.  The number of passes is the only tuning parameter.
"""

import importlib

from .chain import (ChainTooShortError, InvalidInputError, InvalidScalingError, ParseError,
                    Polyline, TangentChain, TooManyStepsError, build_chain, reconstruct)
from .smoothing import (SmoothingResult, SmoothingTrace, StepRecord, compression_ratio,
                        optimal_scaling, smooth, smooth_to_ratio)

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

# A smoothing call runs neither the CSV/SVG layer nor the exact-rational API, so each loads when
# first named (PEP 562): as a submodule or through one of its names.
_LAZY = {"io": ("CsvSchema", "read_points", "write_points", "emit_svg"),
         "rescale": ("CoefficientRow", "CoefficientMatrix", "overlap_coefficients",
                     "rescale_fractional", "rescale_integer")}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            value = importlib.import_module(f".{module}", __name__)
            globals()[name] = value = value if name == module else getattr(value, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
