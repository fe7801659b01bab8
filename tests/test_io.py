"""Tests for CSV point I/O and the SVG overlay writer."""

import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgsmooth import (
    CsvSchema,
    InvalidInputError,
    ParseError,
    Polyline,
    emit_svg,
    read_points,
    write_points,
)
from rgsmooth.io import _BLOCK_ROWS, _decode, _padded_bounds, _parse_fast, _parse_rows


class TestReadPoints:
    def test_plain_2d(self):
        p = read_points("0,1\n1,2\n2,3\n")
        assert p.n_points == 3
        assert np.array_equal(p.points, [(0, 1), (1, 2), (2, 3)])

    def test_header_skipped(self):
        p = read_points("x,y\n0,1\n1,2\n", CsvSchema(has_header=True))
        assert p.n_points == 2

    def test_bytes_and_file_like(self):
        content = b"0,1\n1,2\n"
        assert read_points(content).n_points == 2
        assert read_points(io.BytesIO(content)).n_points == 2
        assert read_points(io.StringIO("0,1\n1,2\n")).n_points == 2

    def test_parse_error_location(self):
        with pytest.raises(ParseError) as err:
            read_points("0,abc\n1,2\n")
        assert err.value.row == 1
        assert err.value.column == 2

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError) as err:
            read_points("0,1\n1,nan\n")
        assert (err.value.row, err.value.column) == (2, 2)

    def test_inconsistent_dimension(self):
        with pytest.raises(ParseError) as err:
            read_points("0,1\n1,2,3\n")
        assert err.value.row == 2

    def test_too_few_rows(self):
        with pytest.raises(InvalidInputError):
            read_points("0,1\n")

    def test_empty_input_warns_nothing(self, recwarn):
        with pytest.raises(InvalidInputError):
            read_points("")
        assert not recwarn.list

    def test_column_selection(self):
        p = read_points("a,0,9\nb,1,8\n", CsvSchema(columns=(1, 2)))
        assert np.array_equal(p.points, [(0, 9), (1, 8)])

    def test_missing_selected_column(self):
        with pytest.raises(ParseError) as err:
            read_points("0,1\n2\n", CsvSchema(columns=(0, 1)))
        assert (err.value.row, err.value.column) == (2, 2)

    def test_custom_delimiter(self):
        p = read_points("0;1\n1;2\n", CsvSchema(delimiter=";"))
        assert p.dimension == 2

    def test_blank_lines_skipped(self):
        p = read_points("0,1\n\n1,2\n\n")
        assert p.n_points == 2

    def test_single_column_file(self):
        p = read_points("1\n2\n3\n")
        assert p.dimension == 1

    def test_schema_rejects_bad_delimiter(self):
        with pytest.raises(InvalidInputError):
            CsvSchema(delimiter=",,")
        with pytest.raises(InvalidInputError):
            CsvSchema(columns=(0, -1))
        with pytest.raises(InvalidInputError):
            CsvSchema(columns=())

    @pytest.mark.parametrize(
        "data, row, message",
        [
            (b"0,1\n1,\xff\n", 2, "not UTF-8"),
            (b"1,2\r3,4\n5,6\n", 1, "new-line character seen in unquoted field"),
        ],
        ids=["not-utf8", "bare-cr"],
    )
    def test_malformed_text_is_parse_error(self, data, row, message):
        with pytest.raises(ParseError) as err:
            read_points(data)
        assert err.value.row == row
        assert message in str(err.value)

    @pytest.mark.parametrize("source", [b"\xef\xbb\xbf0,1\n1,2\n", "\ufeff0,1\n1,2\n"])
    def test_leading_bom_ignored(self, source):
        assert np.array_equal(read_points(source).points, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "text",
        ["0,1\r\n1,2\r\n", '0,1\n"1",2\n', "0,1\n1,2"],
        ids=["crlf", "quoted", "no-final-newline"],
    )
    def test_dialect_variants(self, text):
        assert np.array_equal(read_points(text).points, [(0, 1), (1, 2)])

    def test_plain_numbers_take_fast_parse(self):
        assert _parse_fast("0,1\r\n1,2\r\n", CsvSchema()) is not None
        assert _parse_fast("x;y\n0;1;a\n1;2;b\n", CsvSchema(";", True, (0, 1))) is not None
        assert _parse_fast('0,1\n"1",2\n', CsvSchema()) is None


# Text made of the pieces where a vectorized CSV parse and csv.reader plus
# float() could part ways.
_PIECES = st.sampled_from(
    list("0123456789.eE+-_")
    + [" ", "\t", "\n", "\r\n", "\r", '"', "\ufeff", "nan", "inf", "DELIM"]
)
_NUMBERS = st.sampled_from(["0", "1", "-2.5", "3e2", ".5", "7.", "+4", " 6 "])
# Mostly numbers, so that the vectorized parse gets exercised; an empty
# cell makes blank and delimiter-only rows.
_CELLS = st.one_of(*[_NUMBERS] * 6, st.lists(_PIECES, max_size=3).map("".join))
_ENDINGS = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", ""])


@st.composite
def csv_texts(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    width = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        text = "".join(draw(st.lists(_PIECES, max_size=30)))
    else:
        row = st.tuples(st.lists(_CELLS, min_size=width, max_size=width), _ENDINGS)
        rows = draw(st.lists(row, min_size=2, max_size=8))
        text = "".join("DELIM".join(cells) + ending for cells, ending in rows)
    columns = st.lists(st.integers(0, width - 1), min_size=1, max_size=3).map(tuple)
    columns = draw(st.none() | columns)
    schema = CsvSchema(delimiter=delimiter, has_header=draw(st.booleans()), columns=columns)
    return text.replace("DELIM", delimiter), schema


def _outcome(parse):
    try:
        points = parse()
    except (ParseError, InvalidInputError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return points.shape, points.tobytes()


@settings(max_examples=500, deadline=None)
@given(csv_texts())
@example(("x\ry\n0,1\n1,2\n", CsvSchema(has_header=True)))  # bare CR in the header
@example(('"x\n0,1\n1,2\n', CsvSchema(has_header=True)))  # header opens a quoted field
@example(('"a,0\n",1\n2,3\n', CsvSchema(columns=(1,))))  # quoted newline, unused column
def test_fast_read_matches_row_parser(case):
    text, schema = case
    data = text.encode("utf-8")
    fast = _outcome(lambda: read_points(data, schema).points)
    rows = _outcome(lambda: Polyline(_parse_rows(_decode(data), schema)).points)
    assert fast == rows


class TestWritePoints:
    def test_simple_rows(self):
        data = write_points(Polyline([(0, 0), (1, 0)]))
        assert data == b"0.0,0.0\n1.0,0.0\n"

    def test_roundtrip_random_exact(self):
        rng = np.random.default_rng(77)
        pts = rng.normal(scale=1e3, size=(25, 3)) * 10.0 ** rng.integers(-8, 8, size=(25, 1))
        p = Polyline(pts)
        again = read_points(write_points(p))
        assert again.points.tobytes() == p.points.tobytes()

    def test_one_dimensional_single_column(self):
        data = write_points(Polyline([1.0, 2.0]))
        assert data == b"1.0\n2.0\n"

    def test_delimiter_respected(self):
        data = write_points(Polyline([(0, 0), (1, 0)]), CsvSchema(delimiter=";"))
        assert b";" in data and b"," not in data


# Coordinates whose shortest repr or 6-digit form is unusual.
EXTREMES = [-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308]


def writer_cases():
    rng = np.random.default_rng(5)
    n = 2 * _BLOCK_ROWS + 3
    noisy = rng.normal(scale=10.0, size=(n, 3)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
    grid = np.array([(a, b, a) for a in EXTREMES for b in EXTREMES])
    # y_lo + y_hi is 1.0 here, so the flipped y of the point at y=1 is 0
    # only when the bounds are summed before y is subtracted.
    cancelling = np.array([(0.0, 0.0, 0.5), (1.0, 1.0, 0.25), (2.0, 0.3, 0.0)])
    return [noisy, grid, np.vstack([noisy, grid, -grid]), cancelling]


@pytest.mark.parametrize(
    "points", writer_cases(), ids=["random", "extremes", "mixed", "cancelling"]
)
class TestWritersMatchElementwise:
    """The block-wise writers against per-element formatting, the reference
    for their bytes."""

    def test_write_points(self, points):
        for delimiter, dim in itertools.product([",", "\t", ";", "%"], [1, 2, 3]):
            poly, schema = Polyline(points[:, :dim]), CsvSchema(delimiter=delimiter)
            expected = "".join(
                delimiter.join(repr(float(v)) for v in row) + "\n" for row in poly.points
            )
            data = write_points(poly, schema)
            assert data == expected.encode()
            assert read_points(data, schema).points.tobytes() == poly.points.tobytes()

    def test_emit_svg_points(self, points):
        # Near the float64 limit the padded bounds or the flipped y overflow,
        # and emit_svg must raise instead; without those rows the data plots.
        for pts in (points, points[(np.abs(points) < 1e300).all(axis=1)]):
            original = Polyline(pts)
            smoothed = Polyline(pts[::2])
            for ax, ay in ((0, 1), (0, 2), (2, 0)):
                xs = np.concatenate([pts[:, ax], smoothed.points[:, ax]])
                ys = np.concatenate([pts[:, ay], smoothed.points[:, ay]])
                with np.errstate(over="ignore", invalid="ignore"):
                    x_lo, x_hi = _padded_bounds(xs.min(), xs.max())
                    y_lo, y_hi = _padded_bounds(ys.min(), ys.max())
                    sizes = [x_hi - x_lo, y_hi - y_lo]
                    expected = [
                        " ".join(
                            f"{float(p[ax]):.6g},{float(y_lo + y_hi - p[ay]):.6g}"
                            for p in poly.points
                        )
                        for poly in (original, smoothed)
                    ]
                if np.isfinite(sizes).all() and not re.search("inf|nan", "".join(expected)):
                    svg = emit_svg(original, smoothed, axes=(ax, ay)).decode()
                    for path in expected:
                        assert f'points="{path}"' in svg
                else:
                    with pytest.raises(InvalidInputError, match="too large to plot"):
                        emit_svg(original, smoothed, axes=(ax, ay))


def curve_pair():
    x = np.linspace(0.0, 10.0, 21)
    original = Polyline(np.column_stack([x, np.sin(x)]))
    smoothed = Polyline(original.points[::4])
    return original, smoothed


class TestEmitSvg:
    def test_document_structure(self):
        original, smoothed = curve_pair()
        svg = emit_svg(original, smoothed).decode()
        assert svg.startswith("<?xml")
        assert svg.count("<polyline") == 2
        assert 'viewBox="' in svg
        assert "c.r.=" in svg and "steps=15" in svg

    def test_deterministic(self):
        original, smoothed = curve_pair()
        assert emit_svg(original, smoothed) == emit_svg(original, smoothed)

    def test_degenerate_bounding_box(self):
        p = Polyline([(3.0, 4.0), (3.0, 4.0), (3.0, 4.0)])
        svg = emit_svg(p, p).decode()
        assert 'viewBox="2.5 3.5 1 1"' in svg

    def test_3d_projection(self):
        pts = np.column_stack([np.arange(5.0), np.zeros(5), np.arange(5.0) ** 2])
        p = Polyline(pts)
        svg_xz = emit_svg(p, p, axes=(0, 2)).decode()
        svg_xy = emit_svg(p, p, axes=(0, 1)).decode()
        assert svg_xz != svg_xy
        assert "16" in svg_xz  # z values reach 16 in the x-z projection

    def test_axes_out_of_range(self):
        original, smoothed = curve_pair()
        with pytest.raises(InvalidInputError):
            emit_svg(original, smoothed, axes=(0, 2))

    def test_y_axis_flipped(self):
        # Larger data y must map to a smaller SVG y coordinate.
        p = Polyline([(0.0, 0.0), (1.0, 10.0)])
        svg = emit_svg(p, p).decode()
        pts_attr = svg.split('points="')[1].split('"')[0]
        (x0, y0), (x1, y1) = [tuple(map(float, pair.split(","))) for pair in pts_attr.split()]
        assert y1 < y0
