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
import io as _stdio
import math

import numpy as np

from .chain import InvalidInputError, ParseError, Polyline, _Frozen
from .smoothing import compression_ratio

# Rows per formatting block in write_points and emit_svg.
_BLOCK_ROWS = 4096

# Characters the fast CSV parse leaves to the row parser: a quote starts a
# quoted field for csv.reader, and np.loadtxt strips the separators
# \x1c-\x1f from numbers as whitespace where float() rejects them.
_ROW_PARSER_ONLY = '"\x1c\x1d\x1e\x1f'

# Characters a delimiter may not be: those of a written float (repr gives
# forms such as 1e+16 and -1e-05) and the line ending characters.
_NOT_DELIMITERS = "0123456789.+-e\r\n"


class CsvSchema(_Frozen):
    """How to interpret a CSV point file.

    Every column of every data row is a coordinate.  ``has_header`` (a
    bool, or an integer 0 or 1) skips the first row.  The delimiter is one
    character that cannot occur in a written float or end a row, so that
    writing and reading back is lossless.
    """

    __slots__ = ("delimiter", "has_header")

    def __init__(self, delimiter: str = ",", has_header: bool = False):
        if not isinstance(delimiter, str) or len(delimiter) != 1:
            raise InvalidInputError(f"delimiter must be a single character, got {delimiter!r}")
        if delimiter in _NOT_DELIMITERS:
            raise InvalidInputError(
                f"delimiter {delimiter!r} can occur in a number or end a row; "
                f"it may not be any of {_NOT_DELIMITERS!r}"
            )
        if not isinstance(has_header, (int, np.bool_, np.integer)) or has_header not in (0, 1):
            raise InvalidInputError(f"has_header must be True or False, got {has_header!r}")
        object.__setattr__(self, "delimiter", delimiter)
        object.__setattr__(self, "has_header", bool(has_header))


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
    read = None if isinstance(source, type) else getattr(source, "read", None)
    data = read() if callable(read) else source
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

    It parses the text after the header line (a header with no line ending
    is parsed as data: at most one row).  It declines text holding a
    character of _ROW_PARSER_ONLY or a bare CR (``csv.reader`` rejects a
    bare CR inside a row, loadtxt ends the row there), text with nothing
    but whitespace after the header line (the one input loadtxt warns
    about), and any input that loadtxt rejects, that has fewer than 2 rows,
    or that holds a non-finite value.
    """
    body = text[text.find("\n") + 1:] if schema.has_header else text
    if any(c in text for c in _ROW_PARSER_ONLY) or not body or body.isspace() or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    try:
        points = np.loadtxt(
            _stdio.StringIO(body),
            dtype=np.float64,
            delimiter=schema.delimiter,
            comments=None,
            quotechar=None,
            ndmin=2,
        )
    except (ValueError, TypeError, OverflowError):
        return None
    if len(points) < 2 or not np.isfinite(points).all():
        return None
    return points


def _parse_rows(text: str, schema: CsvSchema) -> np.ndarray:
    """The row-by-row parser: the reference for what the CSV format means."""
    points: list[list[float]] = []
    lines, rows = text.split("\n"), csv.reader(_stdio.StringIO(text), delimiter=schema.delimiter)
    row_no = 0
    while (start := rows.line_num) < len(lines) - (lines[-1] == ""):
        row_no += 1
        try:
            row = next(rows)
        except csv.Error as exc:
            # A refused line with no quote or bare CR is split as csv would.
            line = lines[start].removesuffix("\r")
            if '"' in line or "\r" in line:
                raise ParseError(f"row {row_no}: {exc}", row=row_no) from None
            row = line.split(schema.delimiter)
        if (schema.has_header and row_no == 1) or all(cell.strip() == "" for cell in row):
            continue
        coords = [_finite(cell, row_no, col) for col, cell in enumerate(row)]
        if points and len(coords) != len(points[0]):
            raise ParseError(f"row {row_no} has {len(coords)} coordinates, expected {len(points[0])}",
                             row=row_no)
        points.append(coords)
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


def emit_svg(original: Polyline, smoothed: Polyline) -> bytes:
    """Render an overlay of two curves as an SVG 1.1 document.

    Plots coordinates 0 and 1 (pass projected curves for another pair):
    the original with a light stroke under the smoothed one, and a text
    annotation of the point-count reduction.  Raises InvalidInputError for
    a curve of under 2 coordinates, a second curve with more points than
    the first, or when the padded plot bounds or the flipped y coordinates
    overflow float64.
    """
    if min(original.dimension, smoothed.dimension) < 2:
        raise InvalidInputError("SVG overlay requires at least 2 coordinate columns")
    if smoothed.n_points > original.n_points:
        raise InvalidInputError(
            f"second curve has {smoothed.n_points} points, more than the first's {original.n_points}"
        )

    # Rows (x, y) of both curves.  Min and max go per column: along axis 0
    # of the (N, 2) array they take over ten times as long.
    xy = np.concatenate([original.points[:, :2], smoothed.points[:, :2]])
    lo = np.array([xy[:, 0].min(), xy[:, 1].min()])
    hi = np.array([xy[:, 0].max(), xy[:, 1].max()])
    # A margin of 5 % of the span, or 0.5 on a flat axis.  y is flipped so
    # data y grows upward, the bounds summed first as in y_lo + y_hi - y to
    # round the same.  Near the float64 limit the frame or the flip overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        pad = np.where(span == 0.0, 0.5, 0.05 * span)
        (x_lo, y_lo), (x_hi, y_hi) = lo - pad, hi + pad
        width, height = x_hi - x_lo, y_hi - y_lo
        xy[:, 1] = (y_lo + y_hi) - xy[:, 1]
    if not (np.isfinite([x_lo, x_hi, y_lo, y_hi, width, height]).all() and np.isfinite(xy).all()):
        raise InvalidInputError("coordinates too large to plot: the SVG bounds overflow float64")
    stroke = _num(0.006 * max(width, height))
    # The original, then the smoothed curve over it; points formatted like _num.
    curves = [
        f'<polyline fill="none" stroke="{colour}" stroke-width="{stroke}" '
        f'points="{_format_rows(curve, "%.6g,%.6g ")[:-1]}"/>'
        for colour, curve in zip(["#b0c4de", "#1a1a2e"], np.split(xy, [original.n_points]))
    ]

    ratio = compression_ratio(original.n_segments, smoothed.n_segments)
    label = f"steps={original.n_points - smoothed.n_points} c.r.={ratio:.2f}%"
    font = 0.045 * max(width, height)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_num(x_lo)} {_num(y_lo)} {_num(width)} {_num(height)}">',
        *curves,
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


def _num(value: float) -> str:
    """Compact deterministic number formatting for SVG attributes."""
    return f"{float(value):.6g}"
