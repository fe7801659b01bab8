"""Iterative smoothing driver.

Each pass merges segments at the smallest factor that keeps the segment
count integral, ``n / (n - 1)``, so exactly one point is removed per pass
and no tail is ever lost.  The first and last points are therefore fixed:
the first bit for bit, the last up to float rounding.  The number of
passes is the method's only tuning parameter.

A pass works on the bare tangent array; only the run's input and output
are wrapped as validated curves.  The per-pass schedule depends on
nothing but the input's point count and the number of passes, so a
:class:`SmoothingTrace` stores just those two numbers and builds its
records on first access.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np

from .chain import Polyline, TangentChain, _as_int, build_chain, reconstruct
from .errors import ChainTooShortError, InvalidInputError, TooManyStepsError
from .rescale import _merge


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """What one smoothing pass did.

    ``step`` counts from 1; ``factor`` is the exact merge factor
    ``n_before / (n_before - 1)``; ``compression_ratio_pct`` is relative
    to the original input of the run.
    """

    step: int
    n_before: int
    factor: Fraction
    n_after: int
    compression_ratio_pct: float


@dataclasses.dataclass(frozen=True)
class SmoothingTrace:
    """Per-pass schedule of one smoothing run.

    ``n_points`` is the point count of the run's input and ``n_steps``
    the number of passes.  ``steps``, one :class:`StepRecord` per pass,
    is computed from these two numbers on first access and then kept, so
    a run whose trace is never read pays nothing for it.  ``len()`` needs
    no records.
    """

    n_points: int
    n_steps: int

    @functools.cached_property
    def steps(self) -> tuple[StepRecord, ...]:
        n_original = self.n_points - 1
        records = []
        for step in range(1, self.n_steps + 1):
            n_before = n_original - step + 1
            records.append(
                StepRecord(
                    step=step,
                    n_before=n_before,
                    factor=optimal_scaling(n_before),
                    n_after=n_before - 1,
                    compression_ratio_pct=compression_ratio(n_original, n_before - 1),
                )
            )
        return tuple(records)

    def __len__(self) -> int:
        return self.n_steps

    def __iter__(self):
        return iter(self.steps)


@dataclasses.dataclass(frozen=True)
class SmoothingResult:
    output: Polyline
    trace: SmoothingTrace


def optimal_scaling(n_segments: int) -> Fraction:
    """Smallest merge factor that divides ``n_segments`` into an integer.

    Returns ``n / (n - 1)`` exactly (already reduced: consecutive integers
    are coprime).  Always in (1, 2].
    """
    n = _as_int(n_segments, "segment count")
    if n < 2:
        raise ChainTooShortError(f"need at least 2 segments to smooth further, got {n}")
    return Fraction(n, n - 1)


def compression_ratio(n_original_segments: int, n_current_segments: int) -> float:
    """Percentage of points removed relative to the original curve.

    ``(1 - (n_current + 1) / (n_original + 1)) * 100``.
    """
    n_orig = _as_int(n_original_segments, "original segment count")
    n_cur = _as_int(n_current_segments, "current segment count")
    if not 1 <= n_cur <= n_orig:
        raise InvalidInputError(
            f"current segment count must lie in [1, {n_orig}], got {n_cur}"
        )
    return (1.0 - (n_cur + 1) / (n_orig + 1)) * 100.0


def smooth(polyline: Polyline, steps: int) -> SmoothingResult:
    """Smooth a polyline by ``steps`` one-point-removal passes.

    Parameters
    ----------
    polyline : curve to smooth, at least 2 points.
    steps : number of passes, from 0 (identity) to ``n_segments - 1``
        (single remaining segment).

    Returns
    -------
    SmoothingResult with the smoothed curve and the per-pass trace.  The
    trace's records are built only when read.

    Raises
    ------
    InvalidInputError : negative step count, or a difference or merged
        tangent beyond the float64 range.
    TooManyStepsError : ``steps > n_segments - 1``; carries the maximum.
    """
    steps = _as_int(steps, "step count")
    n_original = polyline.n_segments
    max_steps = n_original - 1
    if steps < 0:
        raise InvalidInputError(f"step count must be non-negative, got {steps}")
    if steps > max_steps:
        raise TooManyStepsError(
            f"{steps} steps requested but a curve of {n_original + 1} points "
            f"allows at most {max_steps}",
            max_steps=max_steps,
        )
    trace = SmoothingTrace(n_points=n_original + 1, n_steps=steps)
    if steps == 0:
        return SmoothingResult(output=polyline, trace=trace)
    # The input is finite, so a non-finite tangent or point here can only
    # come from an overflow; the chain and curve checks report it.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            chain = build_chain(polyline)
            tangents = chain.tangents
            for m in range(n_original, n_original - steps, -1):
                tangents = _merge(tangents, m, m - 1)
            output = reconstruct(TangentChain(base=chain.base, tangents=tangents))
        except InvalidInputError:
            raise InvalidInputError("coordinates overflowed float64 while smoothing") from None
    return SmoothingResult(output=output, trace=trace)


def smooth_to_ratio(polyline: Polyline, target_cr_pct: float) -> SmoothingResult:
    """Smooth just far enough to reach a target compression ratio.

    Picks the smallest step count whose compression ratio is at least
    ``target_cr_pct`` (a percentage in [0, 100)) and runs :func:`smooth`.
    The step count is derived exactly, so a representable target is never
    missed by float noise: k = ceil((n_points) * target / 100).
    """
    target = float(target_cr_pct)
    if not 0.0 <= target < 100.0 or math.isnan(target):
        raise InvalidInputError(f"target compression ratio must lie in [0, 100), got {target}")
    n = polyline.n_segments
    k = math.ceil(Fraction(target) * (n + 1) / 100)
    if k > n - 1:
        best = compression_ratio(n, 1)
        raise TooManyStepsError(
            f"target {target}% is unreachable: {n - 1} steps reach at most {best:.4f}%",
            max_steps=n - 1,
        )
    return smooth(polyline, k)
