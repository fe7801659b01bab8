"""Iterative smoothing driver.

Each pass merges segments at the smallest factor that keeps the segment
count integral, ``m / (m - 1)`` for m segments: new tangent k weighs old
tangents t[k] and t[k+1] by (m-1-k)/(m-1) and (k+1)/(m-1).  Exactly one
point is removed per pass and no tail is ever lost.  The first and last
points are therefore fixed: the first bit for bit, the last up to float
rounding.  The number of passes is the method's only tuning parameter.

A pass works on the bare tangent array; only the run's input and output
are wrapped as validated curves.  The per-pass schedule depends on
nothing but the input's point count and the number of passes, so a
:class:`SmoothingTrace` stores just those two numbers and keeps no
records: indexing it builds the one record asked for.

s passes build output tangent k from input tangents k ... k + s alone,
so long runs smooth blocks of output rows in threads, bit for bit.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .chain import (ChainTooShortError, InvalidInputError, Polyline, TooManyStepsError, _as_int,
                    _as_real, _Frozen, _rebuild)

if TYPE_CHECKING:  # fractions loads decimal; the first Fraction made loads both
    from fractions import Fraction

_MIN_BLOCK_VALUES = 6000  # fewest output coordinates per block for a thread to pay (BENCH_27.json)


class StepRecord(NamedTuple):
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


class SmoothingTrace(_Frozen, Sequence[StepRecord]):
    """Per-pass schedule of one smoothing run: a sequence of :class:`StepRecord`.

    ``n_points`` is the point count of the run's input and ``n_steps``
    the number of passes, from 0 to ``n_points - 2``.  The records follow
    from these two numbers, so the trace keeps none: ``trace[i]`` builds
    record i, a slice builds a tuple of them, and ``len()`` builds none.

    InvalidInputError: a non-integer count, ``n_points`` < 2 or ``n_steps`` < 0.
    TooManyStepsError, carrying the maximum: over ``n_points - 2`` steps.
    """

    __slots__ = ("n_points", "n_steps")

    def __init__(self, n_points: int, n_steps: int) -> None:
        n_points, n_steps = _as_int(n_points, "point count"), _as_int(n_steps, "step count")
        if n_points < 2:
            raise InvalidInputError(f"point count must be at least 2, got {n_points}")
        max_steps = n_points - 2
        if n_steps < 0:
            raise InvalidInputError(f"step count must be non-negative, got {n_steps}")
        if n_steps > max_steps:
            raise TooManyStepsError(
                f"{n_steps} steps requested but a curve of {n_points} points "
                f"allows at most {max_steps}",
                max_steps=max_steps,
            )
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "n_steps", n_steps)

    def __len__(self) -> int:
        return self.n_steps

    def __getitem__(self, index) -> StepRecord | tuple[StepRecord, ...]:
        step = range(1, self.n_steps + 1)[index]
        if isinstance(step, range):
            return tuple(self[s - 1] for s in step)
        n_before = self.n_points - step
        return StepRecord(
            step=step,
            n_before=n_before,
            factor=optimal_scaling(n_before),
            n_after=n_before - 1,
            compression_ratio_pct=compression_ratio(self.n_points - 1, n_before - 1),
        )


class SmoothingResult(NamedTuple):
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
    from fractions import Fraction
    return Fraction(n, n - 1)


def compression_ratio(n_original_segments: int, n_current_segments: int) -> float:
    """Percentage of points removed relative to the original curve.

    ``100 * (n_original - n_current) / (n_original + 1)``, rounded once.
    """
    n_orig = _as_int(n_original_segments, "original segment count")
    n_cur = _as_int(n_current_segments, "current segment count")
    if not 1 <= n_cur <= n_orig:
        raise InvalidInputError(
            f"current segment count must lie in [1, {n_orig}], got {n_cur}"
        )
    return 100 * (n_orig - n_cur) / (n_orig + 1)


def smooth(polyline: Polyline, steps: int) -> SmoothingResult:
    """Smooth a polyline by ``steps`` one-point-removal passes.

    Parameters
    ----------
    polyline : curve to smooth, at least 2 points.
    steps : number of passes, from 0 (identity) to ``n_segments - 1``
        (single remaining segment).

    Returns
    -------
    SmoothingResult with the smoothed curve and the per-pass trace, whose
    records are built only when indexed.

    Raises
    ------
    InvalidInputError : negative step count, or a difference or merged
        tangent beyond the float64 range.
    TooManyStepsError : ``steps > n_segments - 1``; carries the maximum.
    """
    trace = SmoothingTrace(n_points=polyline.n_points, n_steps=steps)
    if trace.n_steps == 0:
        return SmoothingResult(output=polyline, trace=trace)
    n, steps, points = polyline.n_segments, trace.n_steps, polyline.points
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blocks = max(1, min(n - steps, (n - steps) * points.shape[1] // _MIN_BLOCK_VALUES, cores))
    cuts = [(n - steps) * i // blocks for i in range(blocks + 1)]
    t, errors = np.empty((n - steps, points.shape[1])), []

    def run(lo, hi):
        try:
            t[lo:hi] = _passes(points[lo : hi + steps + 1], lo, steps, n)
        except Exception as exc:  # raised again below, in the calling thread
            errors.append(exc)

    # Daemon workers let an interrupt end the run at once; one left running writes only into t.
    workers = [threading.Thread(target=run, args=cuts[i : i + 2], daemon=True) for i in range(1, blocks)]
    for worker in workers:
        worker.start()
    run(0, cuts[1])
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    try:
        output = Polyline(_rebuild(points[0], t))
    except InvalidInputError:
        raise InvalidInputError("coordinates overflowed float64 while smoothing") from None
    return SmoothingResult(output=output, trace=trace)


def _passes(points, lo, steps, n):
    """Run ``steps`` passes on tangents lo, lo + 1, ... of n, the differences of ``points``."""
    h, top = len(points) - 2, n - 1.0 - lo
    # Rows k = lo, ..., lo + r - 1 of a pass over m1 + 1 tangents weigh t[k] and t[k+1] by (m1-k)/m1
    # and (k+1)/m1: the middle 2*r values of this ramp over m1, bit for bit rescale_fractional's.
    pairs = np.arange(2)[:, None] + np.arange(h)
    ramp = np.concatenate([np.arange(top, top - h, -1), np.arange(lo + 1.0, lo + h + 1)])
    # Only an overflow makes a tangent non-finite (the input is finite, every weight in (0, 1]),
    # and nothing makes it finite again.  A new thread starts in numpy's default error state.
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.diff(points, axis=0)
        for r, m1 in zip(range(h, h - steps, -1), range(n - 1, n - 1 - steps, -1)):
            # One gather, not slices or take: the benchmark keeps every job's output, and slices'
            # 2.0x (take's 1.7x) long_track speed read 15 % (11 %) more peak RSS, beyond its 10 %.
            g = t[pairs[:, :r]]
            g *= (ramp[h - r : h + r] / m1).reshape(2, r, 1)
            g[0] += g[1]
            t = g[0]
    return t


def smooth_to_ratio(polyline: Polyline, target_cr_pct: float) -> SmoothingResult:
    """Smooth just far enough to reach a target compression ratio.

    Picks the smallest step count whose compression ratio is at least
    ``target_cr_pct`` (a percentage in [0, 100)) and runs :func:`smooth`.
    The step count is derived exactly, so a representable target is never
    missed by float noise: k = ceil((n_points) * target / 100).
    """
    target = _as_real(target_cr_pct, "target compression ratio")
    if not 0.0 <= target < 100.0:
        raise InvalidInputError(f"target compression ratio must lie in [0, 100), got {target_cr_pct!r}")
    n = polyline.n_segments
    num, den = target.as_integer_ratio()
    k = -(-num * (n + 1) // (100 * den))  # ceil(target * (n + 1) / 100) in integers
    if k > n - 1:
        best = compression_ratio(n, 1)
        raise TooManyStepsError(
            f"target {target}% is unreachable: {n - 1} steps reach at most {best:.4f}%",
            max_steps=n - 1,
        )
    return smooth(polyline, k)
