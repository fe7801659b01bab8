"""CSV point I/O and a dependency-free SVG overlay plot.

CSV rows are points, one per line, in file order (file order is the curve
order).  Output uses LF line endings and Python's shortest round-trip
float formatting, so ``read_points(write_points(p))`` reproduces every
float64 coordinate exactly.

The SVG writer draws the original and smoothed curves on top of each
other as two polyline elements inside a viewBox fitted to the data, with
the y axis flipped so that data y grows upward.
"""

from __future__ import annotations

import csv
import dataclasses
import io as _stdio
import math
import re

import numpy as np

from .chain import Polyline, _as_int
from .errors import InvalidInputError, ParseError

# Rows per formatting block in write_points and emit_svg.
_BLOCK_ROWS = 4096

# Characters the fast CSV parse leaves to the row parser: a quote starts a
# quoted field for csv.reader, and np.loadtxt strips the separators
# \x1c-\x1f from numbers as whitespace where float() rejects them.
_ROW_PARSER_ONLY = '"\x1c\x1d\x1e\x1f'

_NON_SPACE = re.compile(r"\S")

# Characters a delimiter may not be: those of a written float (repr gives
# forms such as 1e+16 and -1e-05) and the line ending characters.
_NOT_DELIMITERS = "0123456789.+-e\r\n"


@dataclasses.dataclass(frozen=True)
class CsvSchema:
    """How to interpret a CSV point file.

    ``columns`` selects which 0-based columns are coordinates (None means
    all columns, in order).  ``has_header`` (a bool) skips the first row.  The
    delimiter is one character that cannot occur in a written float or
    end a row, so that writing and reading back is lossless.
    """

    delimiter: str = ","
    has_header: bool = False
    columns: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise InvalidInputError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.delimiter in _NOT_DELIMITERS:
            raise InvalidInputError(
                f"delimiter {self.delimiter!r} can occur in a number or end a row; "
                f"it may not be any of {_NOT_DELIMITERS!r}"
            )
        if not isinstance(self.has_header, int) or self.has_header not in (0, 1):
            raise InvalidInputError(f"has_header must be True or False, got {self.has_header!r}")
        object.__setattr__(self, "has_header", bool(self.has_header))
        if self.columns is not None:
            try:
                columns = tuple(_as_int(c, "column index") for c in self.columns)
            except TypeError:
                raise InvalidInputError(f"columns must be a sequence, got {self.columns!r}") from None
            object.__setattr__(self, "columns", columns)
            if not self.columns:
                raise InvalidInputError("columns must select at least one column")
            if any(c < 0 for c in self.columns):
                raise InvalidInputError("column indices must be non-negative")


def read_points(source, schema: CsvSchema = CsvSchema()) -> Polyline:
    """Parse a CSV stream (text, bytes-like, or file-like) into a polyline.

    Bytes-like data is decoded as UTF-8; a leading byte-order mark is ignored.
    Every data row must yield the same number of finite coordinates.
    Raises ParseError at the first offending cell (1-based row and column),
    or InvalidInputError for a source of another type or under 2 points.

    Plain numeric files take one vectorized parse.  Anything that parse
    declines goes through the row parser, which accepts the same files
    with the same values and reports every error.
    """
    text = _decode(source)
    points = _parse_fast(text, schema)
    if points is None:
        points = _parse_rows(text, schema)
    return Polyline(points)


def _decode(source) -> str:
    """Text of a str, bytes-like or file-like source, minus a leading BOM."""
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data)
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"row {row}: byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8",
                row=row,
            ) from None
    elif not isinstance(data, str):
        raise InvalidInputError(f"cannot read points from type {type(data).__name__}")
    return data.removeprefix("\ufeff")


def _parse_fast(text: str, schema: CsvSchema) -> np.ndarray | None:
    """One ``np.loadtxt`` parse, or None where the row parser must decide.

    It declines text holding a character of _ROW_PARSER_ONLY or a bare CR
    (``csv.reader`` rejects a bare CR inside a row, loadtxt ends the row
    there), text with nothing but whitespace after the header line (the
    one input loadtxt warns about), and any input that loadtxt rejects,
    that has fewer than 2 rows, or that holds a non-finite value.
    """
    if any(c in text for c in _ROW_PARSER_ONLY) or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    start = text.find("\n") + 1 if schema.has_header else 0
    if (schema.has_header and not start) or not _NON_SPACE.search(text, start):
        return None
    try:
        points = np.loadtxt(
            _stdio.StringIO(text),
            dtype=np.float64,
            delimiter=schema.delimiter,
            comments=None,
            quotechar=None,
            usecols=schema.columns,
            skiprows=int(schema.has_header),
            ndmin=2,
        )
    except (ValueError, TypeError):
        return None
    if len(points) < 2 or not np.isfinite(points).all():
        return None
    return points


def _parse_rows(text: str, schema: CsvSchema) -> np.ndarray:
    """The row-by-row parser: the reference for what the CSV format means."""
    points: list[list[float]] = []
    rows = csv.reader(_stdio.StringIO(text), delimiter=schema.delimiter)
    row_no = 0
    try:
        for row_no, row in enumerate(rows, 1):
            if (schema.has_header and row_no == 1) or all(cell.strip() == "" for cell in row):
                continue
            columns = schema.columns or range(len(row))
            for col in columns:
                if col >= len(row):
                    raise ParseError(
                        f"row {row_no} has {len(row)} columns, column {col + 1} requested",
                        row=row_no,
                        column=col + 1,
                    )
            coords = [_finite(row[col], row_no, col) for col in columns]
            if points and len(coords) != len(points[0]):
                raise ParseError(
                    f"row {row_no} has {len(coords)} coordinates, expected {len(points[0])}",
                    row=row_no,
                )
            points.append(coords)
    except csv.Error as exc:
        raise ParseError(f"row {row_no + 1}: {exc}", row=row_no + 1) from None
    if len(points) < 2:
        raise InvalidInputError(f"need at least 2 data rows, got {len(points)}")
    return np.array(points, dtype=np.float64)


def _finite(cell: str, row_no: int, col: int) -> float:
    """The finite float in ``cell``, or ParseError at its 1-based row and column."""
    try:
        value = float(cell)
    except ValueError:
        problem = "is not a number"
    else:
        if math.isfinite(value):
            return value
        problem = "is not finite"
    raise ParseError(
        f"row {row_no}, column {col + 1}: {cell!r} {problem}", row=row_no, column=col + 1
    )


def write_points(polyline: Polyline, schema: CsvSchema = CsvSchema()) -> bytes:
    """Serialize a polyline as CSV bytes, one point per row.

    Floats are written with the shortest representation that parses back
    to the same float64, making the CSV round trip lossless.  Only the
    schema's delimiter matters here; no header row is emitted.
    """
    row = schema.delimiter.replace("%", "%%").join(["%r"] * polyline.dimension) + "\n"
    return _format_rows(polyline.points, row).encode("utf-8")


def emit_svg(original: Polyline, smoothed: Polyline, axes: tuple[int, int] = (0, 1)) -> bytes:
    """Render an overlay of two curves as an SVG 1.1 document.

    ``axes`` picks the two coordinate columns to plot (a projection for
    curves with more than two dimensions).  The original curve is drawn
    with a light stroke under the smoothed one, and a text annotation
    reports the point-count reduction.  Raises InvalidInputError when the
    padded plot bounds or the flipped y coordinates overflow float64.
    """
    if not isinstance(axes, (tuple, list)) or len(axes) != 2:
        raise InvalidInputError(f"axes must be a pair of column indices, got {axes!r}")
    ax, ay = (_as_int(a, "axis index") for a in axes)
    for poly, name in ((original, "original"), (smoothed, "smoothed")):
        if not (0 <= ax < poly.dimension and 0 <= ay < poly.dimension):
            raise InvalidInputError(
                f"axes {axes} out of range for {name} polyline of dimension {poly.dimension}"
            )

    xs = np.concatenate([original.points[:, ax], smoothed.points[:, ax]])
    ys = np.concatenate([original.points[:, ay], smoothed.points[:, ay]])
    # Flip y inside the fixed viewBox so data y increases upward.  The
    # bounds are summed first, as in y_lo + y_hi - y, to round the same.
    # Near the float64 limit the padded bounds or the flip overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        x_lo, x_hi = _padded_bounds(xs.min(), xs.max())
        y_lo, y_hi = _padded_bounds(ys.min(), ys.max())
        width = x_hi - x_lo
        height = y_hi - y_lo
        flipped = [y_lo + y_hi - poly.points[:, ay] for poly in (original, smoothed)]
    bounds = [x_lo, x_hi, y_lo, y_hi, width, height]
    if not (np.isfinite(bounds).all() and all(np.isfinite(f).all() for f in flipped)):
        raise InvalidInputError("coordinates too large to plot: the SVG bounds overflow float64")
    stroke = 0.006 * max(width, height)

    # Formatted like _num; the last point's trailing space is cut.
    original_path, smoothed_path = (
        _format_rows(np.column_stack([poly.points[:, ax], fy]), "%.6g,%.6g ")[:-1]
        for poly, fy in zip((original, smoothed), flipped)
    )

    removed = original.n_points - smoothed.n_points
    ratio = (1.0 - smoothed.n_points / original.n_points) * 100.0
    label = f"steps={removed} c.r.={ratio:.2f}%"
    font = 0.045 * max(width, height)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_num(x_lo)} {_num(y_lo)} {_num(width)} {_num(height)}">',
        f'<polyline fill="none" stroke="#b0c4de" stroke-width="{_num(stroke)}" '
        f'points="{original_path}"/>',
        f'<polyline fill="none" stroke="#1a1a2e" stroke-width="{_num(stroke)}" '
        f'points="{smoothed_path}"/>',
        f'<text x="{_num(x_lo + 0.02 * width)}" y="{_num(y_lo + 0.07 * height)}" '
        f'font-family="sans-serif" font-size="{_num(font)}" fill="#1a1a2e">{label}</text>',
        "</svg>",
    ]
    return ("\n".join(parts) + "\n").encode("utf-8")


def _format_rows(points: np.ndarray, row: str) -> str:
    """``row % tuple(point)`` for every row of ``points``, concatenated.

    Each block of at most _BLOCK_ROWS rows takes one ``%`` format, so the
    writers hold the Python floats of one block at a time, never of the
    whole curve.
    """
    blocks = (points[i:i + _BLOCK_ROWS] for i in range(0, len(points), _BLOCK_ROWS))
    return "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def _padded_bounds(lo: float, hi: float) -> tuple[float, float]:
    """Bounds with a 5% margin; a degenerate axis falls back to unit size."""
    span = hi - lo
    if span == 0.0:
        return lo - 0.5, hi + 0.5
    pad = 0.05 * span
    return lo - pad, hi + pad


def _num(value: float) -> str:
    """Compact deterministic number formatting for SVG attributes."""
    return f"{float(value):.6g}"
