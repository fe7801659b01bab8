"""Tests for CSV point I/O and the SVG overlay writer."""

import io
import itertools
import re
import threading
import types
import warnings

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
from rgsmooth.io import _BLOCK_ROWS, _decode, _parse_fast, _parse_rows


class _ReadReturns:
    """A file-like source whose ``read()`` returns the given object."""

    def __init__(self, data):
        self.data = data

    def read(self):
        return self.data


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

    @pytest.mark.parametrize(
        "source", [bytearray(b"0,1\n1,2\n"), memoryview(b"0,1\n1,2\n")], ids=["bytearray", "memoryview"]
    )
    def test_bytes_like_decoded_as_bytes(self, source):
        for src in (source, _ReadReturns(source)):
            assert np.array_equal(read_points(src).points, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "source, type_name",
        [
            (12345, "int"),
            (None, "NoneType"),
            ([b"0,1", b"1,2"], "list"),
            (1.5, "float"),
            (io.BytesIO, "type"),
            (types.SimpleNamespace(read="0,1\n1,2\n"), "SimpleNamespace"),
        ],
        ids=repr,
    )
    def test_other_sources_rejected_naming_the_type(self, source, type_name):
        for src in (source, _ReadReturns(source)):
            with pytest.raises(InvalidInputError, match=f"type {type_name}$"):
                read_points(src)

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

    def test_short_row_is_inconsistent_dimension(self):
        with pytest.raises(ParseError, match="^row 2 has 1 coordinates, expected 2$") as err:
            read_points("0,1\n2\n")
        assert (err.value.row, err.value.column) == (2, None)

    def test_every_column_is_a_coordinate(self):
        text = "0,9,1\n1,8,2\n"
        # The vectorized parse and the row parser agree, and a quoted cell takes the latter.
        assert np.array_equal(_parse_fast(text, CsvSchema()), [(0, 9, 1), (1, 8, 2)])
        assert np.array_equal(_parse_rows(text, CsvSchema()), [(0, 9, 1), (1, 8, 2)])
        assert np.array_equal(read_points('"0",9,1\n1,8,2\n').points, [(0, 9, 1), (1, 8, 2)])

    def test_text_column_is_parse_error(self):
        with pytest.raises(ParseError, match="^row 1, column 1: 'a' is not a number$") as err:
            read_points("a,0,9\nb,1,8\n")
        assert (err.value.row, err.value.column) == (1, 1)

    def test_projection_selects_columns(self):
        p = Polyline(read_points("5,0,9\n6,1,8\n").points[:, [1, 2]])
        assert np.array_equal(p.points, [(0, 9), (1, 8)])

    def test_too_few_rows(self):
        with pytest.raises(InvalidInputError):
            read_points("0,1\n")

    def test_empty_input_warns_nothing(self, recwarn):
        with pytest.raises(InvalidInputError):
            read_points("")
        assert not recwarn.list

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

    @pytest.mark.parametrize(
        "kwargs",
        [{"delimiter": c} for c in "0123456789.+-e\r\n"]
        + [{"delimiter": None}, {"delimiter": b","}]
        + [{"has_header": 2}, {"has_header": "no"}, {"has_header": 1.0}, {"has_header": "1"}],
        ids=repr,
    )
    def test_schema_rejects_unusable_delimiter_or_column(self, kwargs):
        # Written floats such as 1e+16 and -1e-05 use the digits and ".+-e";
        # CR and LF end a row.
        with pytest.raises(InvalidInputError):
            CsvSchema(**kwargs)

    @pytest.mark.parametrize(
        "flag, has_header",
        [(True, True), (1, True), (np.True_, True), (np.int64(1), True), (np.uint8(0), False)],
        ids=repr,
    )
    def test_schema_accepts_integer_header_flags(self, flag, has_header):
        # numpy's bools and integers pass by the rule of Python's: 0 or 1.
        schema = CsvSchema(has_header=flag)
        assert schema.has_header is has_header
        assert read_points("x,y\n0,1\n1,2\n" if has_header else "0,1\n1,2\n", schema).n_points == 2

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
        assert _parse_fast("x;y\n0;1\n1;2\n", CsvSchema(";", True)) is not None
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
    schema = CsvSchema(delimiter=delimiter, has_header=draw(st.booleans()))
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
@example(('"a,0\n",1\n2,3\n', CsvSchema()))  # quoted newline
@example(("", CsvSchema()))  # nothing but whitespace, with or without a header line
@example(("\n\n", CsvSchema()))
@example(("x\n", CsvSchema(has_header=True)))
@example(("x\n\n\n", CsvSchema(has_header=True)))
@example(("x", CsvSchema(has_header=True)))
@example(("1,2", CsvSchema(has_header=True)))  # a numeric header with no line ending
@example(("0,1\n2,3", CsvSchema(has_header=True)))
@example(("0,1\n2,3\n4,5", CsvSchema(has_header=True)))
def test_fast_read_matches_row_parser(case):
    text, schema = case
    data = text.encode("utf-8")
    fast = _outcome(lambda: read_points(data, schema).points)
    rows = _outcome(lambda: Polyline(_parse_rows(_decode(data), schema)).points)
    assert fast == rows


def test_concurrent_reads_leave_warning_state_alone(monkeypatch):
    # Each np.loadtxt call blocks on its own event, so both threads are
    # inside the fast parse at once and then leave it in a fixed order.
    loadtxt = np.loadtxt
    entered = [threading.Event(), threading.Event()]
    release = [threading.Event(), threading.Event()]
    calls = itertools.count()

    def blocking_loadtxt(*args, **kwargs):
        i = next(calls)
        entered[i].set()
        release[i].wait(timeout=10)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", blocking_loadtxt)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(read_points("0,1\n1,2\n").points))
        for _ in range(2)
    ]
    # The test's own catch_warnings restores whatever a failure leaves behind.
    with warnings.catch_warnings():
        filters, show = list(warnings.filters), warnings._showwarnmsg_impl
        try:
            for thread, event in zip(threads, entered):
                thread.start()
                assert event.wait(timeout=10)
            for thread, event in zip(threads, release):
                event.set()
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            for event in release:
                event.set()
        assert warnings.filters == filters
        assert warnings._showwarnmsg_impl is show
    assert len(results) == 2
    assert all(np.array_equal(points, [(0, 1), (1, 2)]) for points in results)


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
        # The plot spans the data with a margin of 5 % of the span on each
        # side, or of 0.5 on a flat axis.  Near the float64 limit the padded
        # bounds or the flipped y overflow, and emit_svg must raise instead;
        # without those rows the data plots.
        def padded(values):
            lo, hi = values.min(), values.max()
            pad = 0.05 * (hi - lo) if hi > lo else 0.5
            return lo - pad, hi + pad

        for pts in (points, points[(np.abs(points) < 1e300).all(axis=1)]):
            for axes in ([0, 1], [0, 2], [2, 0]):
                original = Polyline(pts[:, axes])
                smoothed = Polyline(pts[::2, axes])
                xs = np.concatenate([original.points[:, 0], smoothed.points[:, 0]])
                ys = np.concatenate([original.points[:, 1], smoothed.points[:, 1]])
                with np.errstate(over="ignore", invalid="ignore"):
                    (x_lo, x_hi), (y_lo, y_hi) = padded(xs), padded(ys)
                    sizes = [x_hi - x_lo, y_hi - y_lo]
                    view = " ".join(f"{float(v):.6g}" for v in [x_lo, y_lo, *sizes])
                    expected = [
                        " ".join(
                            f"{float(p[0]):.6g},{float(y_lo + y_hi - p[1]):.6g}"
                            for p in poly.points
                        )
                        for poly in (original, smoothed)
                    ]
                if np.isfinite(sizes).all() and not re.search("inf|nan", "".join(expected)):
                    svg = emit_svg(original, smoothed).decode()
                    assert f'viewBox="{view}"' in svg
                    for path in expected:
                        assert f'points="{path}"' in svg
                else:
                    with pytest.raises(InvalidInputError, match="too large to plot"):
                        emit_svg(original, smoothed)


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

    @pytest.mark.parametrize(
        "points, view",
        [
            ([(3.0, 0.0), (3.0, 10.0)], "2.5 -0.5 1 11"),
            ([(0.0, 4.0), (10.0, 4.0)], "-0.5 3.5 11 1"),
        ],
        ids=["flat-x", "flat-y"],
    )
    def test_one_flat_axis(self, points, view):
        # The flat axis gets a margin of 0.5, the other 5 % of its span.
        p = Polyline(points)
        assert f'viewBox="{view}"' in emit_svg(p, p).decode()

    def test_3d_projection(self):
        # The x-z view of a 3-D curve is the plot of its x and z columns:
        # z runs 0..16 and is flipped to 16 - z, so x = 4 sits on top.
        pts = np.column_stack([np.arange(5.0), np.zeros(5), np.arange(5.0) ** 2])
        xz = Polyline(pts[:, [0, 2]])
        svg = emit_svg(xz, xz).decode()
        assert 'viewBox="-0.2 -0.8 4.4 17.6"' in svg
        assert svg.count('points="0,16 1,15 2,12 3,7 4,0"') == 2

    def test_longer_second_curve_rejected(self):
        # A label of removed points and compression below zero means nothing.
        short, long = Polyline(np.zeros((2, 2))), Polyline(np.zeros((6, 2)))
        with pytest.raises(InvalidInputError, match="^second curve has 6 points, more than the first's 2$"):
            emit_svg(short, long)

    @pytest.mark.parametrize("one_d", ["original", "smoothed"])
    def test_one_coordinate_rejected(self, one_d):
        original, smoothed = curve_pair()
        curves = {"original": original, "smoothed": smoothed}
        curves[one_d] = Polyline(curves[one_d].points[:, 0])
        message = "^SVG overlay requires at least 2 coordinate columns$"
        with pytest.raises(InvalidInputError, match=message):
            emit_svg(**curves)

    def test_y_axis_flipped(self):
        # Larger data y must map to a smaller SVG y coordinate.
        p = Polyline([(0.0, 0.0), (1.0, 10.0)])
        svg = emit_svg(p, p).decode()
        pts_attr = svg.split('points="')[1].split('"')[0]
        (x0, y0), (x1, y1) = [tuple(map(float, pair.split(","))) for pair in pts_attr.split()]
        assert y1 < y0
