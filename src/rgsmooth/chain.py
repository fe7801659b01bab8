"""Point-sequence and tangent-chain representations of an ordered curve.

A curve is either a :class:`Polyline` (the points themselves) or a
:class:`TangentChain` (the first point plus the difference vectors between
consecutive points).  The rescaling machinery operates on tangent chains;
:func:`build_chain` and :func:`reconstruct` convert between the two forms.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError


def _as_int(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def _as_point_array(values, min_rows: int, what: str) -> NDArray[np.float64]:
    """Coerce to an owned, read-only (n, d) float64 array."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must form a rectangular numeric array: {exc}") from None
    if arr.ndim == 1:
        # 1-D input is a scalar signal: one coordinate per point.
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise InvalidInputError(f"{what} must be a sequence of points, got a {arr.ndim}-D array")
    if arr.shape[0] < min_rows:
        raise InvalidInputError(f"{what} needs at least {min_rows} rows, got {arr.shape[0]}")
    if arr.shape[1] < 1:
        raise InvalidInputError(f"{what} must have at least one coordinate per point")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} contains non-finite coordinates")
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class Polyline:
    """Ordered sequence of at least two points in d-dimensional space.

    ``points`` is an (n_points, d) float64 array; a 1-D array is accepted
    and treated as a scalar signal of shape (n_points, 1).  Coordinates
    must be finite.  Instances are immutable.
    """

    points: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "points", _as_point_array(self.points, 2, "polyline points"))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1


@dataclasses.dataclass(frozen=True, eq=False)
class TangentChain:
    """A base point plus the tangent (difference) vectors of a curve.

    ``base`` is the (d,) first point; ``tangents`` is an (n_segments, d)
    array, one row per segment.  Zero tangents (repeated points) are
    allowed.  Instances are immutable.
    """

    base: NDArray[np.float64]
    tangents: NDArray[np.float64]

    def __post_init__(self):
        base = _as_point_array([self.base], 1, "chain base")[0]
        tangents = _as_point_array(self.tangents, 1, "chain tangents")
        if tangents.shape[1] != base.shape[0]:
            raise InvalidInputError(
                f"tangent dimension {tangents.shape[1]} does not match base dimension {base.shape[0]}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tangents", tangents)

    @property
    def dimension(self) -> int:
        return self.base.shape[0]

    @property
    def n_segments(self) -> int:
        return self.tangents.shape[0]


def build_chain(polyline: Polyline) -> TangentChain:
    """Convert a polyline to its tangent-chain form.

    The base is the first point and tangent i is ``points[i+1] - points[i]``.
    Translation of the input moves the base but leaves tangents unchanged.
    """
    pts = polyline.points
    return TangentChain(base=pts[0], tangents=np.diff(pts, axis=0))


def reconstruct(chain: TangentChain) -> Polyline:
    """Rebuild the polyline of a tangent chain.

    Point k is the base plus the running sum of the first k tangents, so
    the first output point equals the base bit for bit.
    """
    n, d = chain.tangents.shape
    pts = np.empty((n + 1, d), dtype=np.float64)
    pts[0] = chain.base
    pts[1:] = chain.base + np.cumsum(chain.tangents, axis=0)
    return Polyline(pts)
