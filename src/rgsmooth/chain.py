"""Point-sequence and tangent-chain representations of a curve, and the package's exception types.

A curve is either a :class:`Polyline` (the points themselves) or a :class:`TangentChain` (the first
point plus the difference vectors between consecutive points).  The rescaling machinery operates on
tangent chains; :func:`build_chain` and :func:`reconstruct` convert between the two forms.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # numpy.typing costs import time and is read only by type checkers
    from numpy.typing import NDArray


class InvalidInputError(ValueError):
    """Input data violates a precondition (size, shape, or finiteness)."""


class InvalidScalingError(InvalidInputError):
    """Merge factor lies outside the supported range."""


class ChainTooShortError(InvalidInputError):
    """Chain has too few segments for the requested operation."""


class TooManyStepsError(ValueError):
    """More smoothing steps were requested than the curve allows.

    ``max_steps`` carries the largest step count valid for the input.
    """

    def __init__(self, message: str, max_steps: int):
        super().__init__(message)
        self.max_steps = max_steps


class ParseError(InvalidInputError):
    """Text input could not be parsed as numeric points.

    ``row`` and ``column`` are 1-based positions of the offending cell;
    ``column`` is ``None`` when a whole row is malformed.
    """

    def __init__(self, message: str, row: int, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


def _as_int(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def _as_real(value, what: str) -> float:
    try:
        # Text and bytes go in as None: float() would read them as numbers.
        return float(None if isinstance(value, (str, bytes, bytearray)) else value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{what} must be a real float64 number, got {value!r}") from None


def _as_point_array(values, min_rows: int, what: str, point: bool = False) -> NDArray[np.float64]:
    """Coerce to an owned, read-only (n, d) float64 array; a ``point`` is one (1, d) row."""
    try:
        arr = np.asarray(values)
        text = arr.dtype.kind == "O" and any(isinstance(v, (str, bytes, bytearray)) for v in arr.flat)
        if arr.dtype.kind in "biufO" and not text:
            arr = np.array(arr, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must form a rectangular numeric array: {exc}") from None
    if arr.dtype != np.float64:
        # Only numbers are cast: a cast drops complex parts and reads text, also inside an
        # object array, or dates as numbers.
        raise InvalidInputError(f"{what} must be real, got {arr.dtype} values")
    if point and arr.ndim > 1:
        raise InvalidInputError(f"{what} must be one point, got an array of shape {arr.shape}")
    if arr.ndim == 1 or point:
        # A 1-D point is its coordinates; other 1-D input is a scalar signal, one coordinate per point.
        arr = arr.reshape((1, -1) if point else (-1, 1))
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


class _Frozen:
    """Immutable ``__slots__`` fields, equal by value; a copy or unpickling reruns ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Polyline(_Frozen):
    """Ordered sequence of at least two points in d-dimensional space.

    ``points`` is an (n_points, d) float64 array; a 1-D array is accepted
    and treated as a scalar signal of shape (n_points, 1).  Coordinates
    must be finite and real.  Instances are immutable and compare by identity.
    """

    __slots__ = ("points",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, points):
        self.__post_init__(points)

    def __post_init__(self, points):  # the check that perfbench/tracing.py times as chain.validate
        object.__setattr__(self, "points", _as_point_array(points, 2, "polyline points"))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1


class TangentChain(_Frozen):
    """A base point plus the tangent (difference) vectors of a curve.

    ``base`` is the (d,) first point; ``tangents`` is an (n_segments, d)
    array, one row per segment.  Zero tangents (repeated points) are
    allowed.  Instances are immutable and compare by identity.
    """

    __slots__ = ("base", "tangents")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, base, tangents):
        base = _as_point_array(base, 1, "chain base", point=True)[0]
        tangents = _as_point_array(tangents, 1, "chain tangents")
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
    with np.errstate(over="ignore", invalid="ignore"):
        return TangentChain(base=pts[0], tangents=np.diff(pts, axis=0))


def _rebuild(base: NDArray[np.float64], tangents: NDArray[np.float64]) -> NDArray[np.float64]:
    """The points of :func:`reconstruct` as a bare array, unchecked."""
    pts = np.empty((tangents.shape[0] + 1, tangents.shape[1]))
    pts[0] = base
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(tangents, axis=0, out=pts[1:])
        pts[1:] += base
    return pts


def reconstruct(chain: TangentChain) -> Polyline:
    """Rebuild the polyline of a tangent chain.

    Point k is the base plus the running sum of the first k tangents, so
    the first output point equals the base bit for bit.
    """
    return Polyline(_rebuild(chain.base, chain.tangents))
