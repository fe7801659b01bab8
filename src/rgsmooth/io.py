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
import warnings

import numpy as np

from .chain import Polyline
from .errors import InvalidInputError, ParseError

# Rows per formatting block in write_points and emit_svg.
_BLOCK_ROWS = 4096

# Characters the fast CSV parse leaves to the row parser: a quote starts a
# quoted field for csv.reader, and np.loadtxt strips the separators
# \x1c-\x1f from numbers as whitespace where float() rejects them.
_ROW_PARSER_ONLY = '"\x1c\x1d\x1e\x1f'


@dataclasses.dataclass(frozen=True)
class CsvSchema:
    """How to interpret a CSV point file.

    ``columns`` selects which 0-based columns are coordinates (None means
    all columns, in order).  ``has_header`` skips the first row.
    """

    delimiter: str = ","
    has_header: bool = False
    columns: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise InvalidInputError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))
            if not self.columns:
                raise InvalidInputError("columns must select at least one column")
            if any(c < 0 for c in self.columns):
                raise InvalidInputError("column indices must be non-negative")


def read_points(source, schema: CsvSchema = CsvSchema()) -> Polyline:
    """Parse a CSV stream (text, bytes, or file-like) into a polyline.

    Bytes are decoded as UTF-8; a leading byte-order mark is ignored.
    Every data row must yield the same number of finite coordinates.
    Raises ParseError with the 1-based row and column of the first
    offending cell, or InvalidInputError when fewer than 2 points remain.

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
    """Text of a str, bytes or file-like source, minus a leading BOM."""
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"row {row}: byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8",
                row=row,
            ) from None
    return data.removeprefix("\ufeff")


def _parse_fast(text: str, schema: CsvSchema) -> np.ndarray | None:
    """One ``np.loadtxt`` parse, or None where the row parser must decide.

    It declines text holding a character of _ROW_PARSER_ONLY or a bare CR
    (``csv.reader`` rejects a bare CR inside a row, loadtxt ends the row
    there), and any input that loadtxt rejects or warns about, that has
    fewer than 2 rows, or that holds a non-finite value.
    """
    if any(c in text for c in _ROW_PARSER_ONLY) or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    try:
        # Warnings are recorded rather than raised: the filter is process-wide,
        # and an "error" filter would raise in other threads too.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
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
    if caught or len(points) < 2 or not np.isfinite(points).all():
        return None
    return points


def _parse_rows(text: str, schema: CsvSchema) -> np.ndarray:
    """The row-by-row parser: the reference for what the CSV format means."""
    points: list[list[float]] = []
    dimension = None
    for row_no, row in _csv_rows(text, schema.delimiter):
        if schema.has_header and row_no == 1:
            continue
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if schema.columns is None:
            cells = list(enumerate(row))
        else:
            cells = []
            for col in schema.columns:
                if col >= len(row):
                    raise ParseError(
                        f"row {row_no} has {len(row)} columns, column {col + 1} requested",
                        row=row_no,
                        column=col + 1,
                    )
                cells.append((col, row[col]))
        coords = []
        for col, cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"row {row_no}, column {col + 1}: {cell!r} is not a number",
                    row=row_no,
                    column=col + 1,
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"row {row_no}, column {col + 1}: {cell!r} is not finite",
                    row=row_no,
                    column=col + 1,
                )
            coords.append(value)
        if dimension is None:
            dimension = len(coords)
        elif len(coords) != dimension:
            raise ParseError(
                f"row {row_no} has {len(coords)} coordinates, expected {dimension}",
                row=row_no,
            )
        points.append(coords)
    if len(points) < 2:
        raise InvalidInputError(f"need at least 2 data rows, got {len(points)}")
    return np.array(points, dtype=np.float64)


def _csv_rows(text: str, delimiter: str):
    """Yield (1-based row number, cells); a malformed row raises ParseError."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(_stdio.StringIO(text), delimiter=delimiter), 1):
            yield row_no, row
    except csv.Error as exc:
        raise ParseError(f"row {row_no + 1}: {exc}", row=row_no + 1) from None


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
    ax, ay = axes
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
