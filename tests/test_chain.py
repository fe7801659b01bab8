"""Tests for the polyline / tangent-chain representations and the package's value types."""

import copy
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgsmooth import (
    CsvSchema,
    InvalidInputError,
    Polyline,
    SmoothingResult,
    SmoothingTrace,
    StepRecord,
    TangentChain,
    build_chain,
    overlap_coefficients,
    reconstruct,
    smooth,
)

# Well-scaled coordinates keep float round-trip noise far below tolerances.
coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def polylines(max_dim=4, max_points=30):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda d: st.lists(
            st.lists(coords, min_size=d, max_size=d), min_size=2, max_size=max_points
        )
    )


class TestPolyline:
    def test_basic_construction(self):
        p = Polyline([(0, 0), (1, 0), (1, 1)])
        assert p.n_points == 3
        assert p.n_segments == 2
        assert p.dimension == 2

    def test_one_dimensional_signal(self):
        p = Polyline([3.0, 2.0, 5.0])
        assert p.dimension == 1
        assert p.points.shape == (3, 1)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError):
            Polyline([(5.0,)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidInputError):
            Polyline([(0, 0), (1,), (2, 2)])

    @pytest.mark.parametrize(
        "shape, message",
        [((3, 0), "at least one coordinate"), ((2, 2, 2), "got a 3-D array")],
        ids=["no-coordinates", "3-d"],
    )
    def test_malformed_shape_rejected(self, shape, message):
        with pytest.raises(InvalidInputError, match=message):
            Polyline(np.zeros(shape))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Polyline([(0, 0), (np.nan, 1)])
        with pytest.raises(InvalidInputError):
            Polyline([(0, 0), (np.inf, 1)])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Polyline(np.array([1 + 2j, 3, 5j])),
            lambda: Polyline(np.array([(0, 0), (1, 1j)], dtype=np.complex64)),
            lambda: Polyline([np.complex128(1 + 2j), np.complex128(3), np.complex128(5j)]),
            lambda: Polyline([1 + 2j, 3, 5j]),
            lambda: TangentChain(base=np.array([1j, 0]), tangents=[(1, 0)]),
            lambda: TangentChain(base=[0, 0], tangents=np.array([(1, 0), (0, 2j)])),
        ],
        ids=["array", "complex64", "numpy-scalars", "python-complex",
             "chain-base", "chain-tangents"],
    )
    def test_complex_rejected(self, make):
        # A float64 cast would drop the imaginary parts and only warn.
        message = r"^[a-z ]+ must be real, got complex(64|128) values$"
        with pytest.raises(InvalidInputError, match=message):
            make()

    @pytest.mark.parametrize(
        "values",
        [["1", "2"], [b"1", b"2"], np.array(["2020-01-01", "2020-01-02"], dtype="M8[D]"),
         np.array([1, 2], dtype="m8[s]"), np.array(["1", 2], dtype=object),
         np.array([b"1", 2], dtype=object)],
        ids=["text", "bytes", "datetime64", "timedelta64", "object-text", "object-bytes"],
    )
    @pytest.mark.parametrize(
        "make, what",
        [
            (lambda v: Polyline(v), "polyline points"),
            (lambda v: TangentChain(base=v[:1], tangents=[0]), "chain base"),
            (lambda v: TangentChain(base=[0], tangents=v), "chain tangents"),
        ],
        ids=["polyline", "chain-base", "chain-tangents"],
    )
    def test_non_numbers_rejected(self, make, what, values):
        # Only numbers are coordinates: a float64 cast would read "1" as 1.0
        # and the date 2020-01-01 as 18262.0.
        dtype = np.asarray(values).dtype
        message = f"^{what} must be real, got {re.escape(str(dtype))} values$"
        with pytest.raises(InvalidInputError, match=message):
            make(values)

    @pytest.mark.parametrize(
        "values", [[10**400, 1], [Fraction(10**400), 1]], ids=["int", "fraction"]
    )
    def test_beyond_float64_range_rejected(self, values):
        with pytest.raises(InvalidInputError, match="^polyline points must form a rectangular"):
            Polyline(values)

    def test_points_are_immutable(self):
        p = Polyline([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            p.points[0, 0] = 9.0

    def test_input_buffer_not_aliased(self):
        raw = np.zeros((3, 2))
        p = Polyline(raw)
        raw[0, 0] = 7.0
        assert p.points[0, 0] == 0.0

    def test_smooth_checks_input_and_output_through_post_init(self, monkeypatch):
        # perfbench/tracing.py times this hook as chain.validate: without it that metric reads 0.
        calls = []
        check = Polyline.__post_init__

        def counted(self, points):
            calls.append(points)
            check(self, points)

        monkeypatch.setattr(Polyline, "__post_init__", counted)
        smooth(Polyline(np.eye(3)), 1)
        assert len(calls) == 2


class TestTangentChain:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            TangentChain(base=(0.0, 0.0), tangents=[(1.0, 0.0, 0.0)])

    def test_empty_tangents_rejected(self):
        with pytest.raises(InvalidInputError):
            TangentChain(base=(0.0,), tangents=np.empty((0, 1)))

    @pytest.mark.parametrize(
        "base, message",
        [("abc", "must be real"), ([[1], [2, 3]], "must form a rectangular"),
         ([[0.0, 0.0]], r"must be one point, got an array of shape \(1, 2\)$")],
        ids=["non-numeric", "ragged", "two-dimensional"],
    )
    def test_malformed_base_rejected(self, base, message):
        with pytest.raises(InvalidInputError, match=f"^chain base {message}"):
            TangentChain(base=base, tangents=[(1.0, 0.0)])

    def test_zero_tangents_allowed(self):
        c = TangentChain(base=(0.0,), tangents=[(0.0,), (0.0,)])
        assert c.n_segments == 2


def test_build_chain_2d():
    c = build_chain(Polyline([(0, 0), (1, 0), (1, 1)]))
    assert np.array_equal(c.base, [0, 0])
    assert np.array_equal(c.tangents, [(1, 0), (0, 1)])


def test_build_chain_3d_axis_aligned():
    c = build_chain(Polyline([(0, 0, 0), (2, 0, 0), (2, 3, 0), (2, 3, 4)]))
    assert np.array_equal(c.tangents, [(2, 0, 0), (0, 3, 0), (0, 0, 4)])


def test_reconstruct_inverse_of_build_chain():
    p = reconstruct(TangentChain(base=(0.0, 0.0), tangents=[(1, 0), (0, 1)]))
    assert np.array_equal(p.points, [(0, 0), (1, 0), (1, 1)])


def test_reconstruct_1d_single_segment():
    p = reconstruct(TangentChain(base=(3.0,), tangents=[(-1.0,)]))
    assert np.array_equal(p.points, [(3.0,), (2.0,)])


def test_roundtrip_well_scaled_tight():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5.0, 5.0, size=(40, 3))
    out = reconstruct(build_chain(Polyline(pts))).points
    np.testing.assert_allclose(out, pts, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(polylines())
def test_roundtrip_points_to_chain_to_points(raw):
    p = Polyline(raw)
    out = reconstruct(build_chain(p)).points
    np.testing.assert_allclose(out, p.points, rtol=1e-12, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(polylines())
def test_roundtrip_chain_to_points_to_chain(raw):
    c = build_chain(Polyline(raw))
    again = build_chain(reconstruct(c))
    assert np.array_equal(again.base, c.base)
    np.testing.assert_allclose(again.tangents, c.tangents, rtol=1e-12, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(polylines(max_dim=3), st.lists(coords, min_size=3, max_size=3))
def test_translation_moves_base_not_tangents(raw, shift):
    p = Polyline(raw)
    offset = np.asarray(shift[: p.dimension])
    moved = build_chain(Polyline(p.points + offset))
    ref = build_chain(p)
    np.testing.assert_allclose(moved.base, ref.base + offset, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(moved.tangents, ref.tangents, rtol=1e-12, atol=1e-9)


def test_translation_exact_on_representable_points():
    # Integer-valued data stays exact under integer translation.
    pts = np.array([[0.0, 1.0], [4.0, 3.0], [2.0, 8.0]])
    ref = build_chain(Polyline(pts))
    moved = build_chain(Polyline(pts + np.array([128.0, -64.0])))
    assert np.array_equal(moved.tangents, ref.tangents)


@given(polylines())
def test_dimension_preserved(raw):
    p = Polyline(raw)
    c = build_chain(p)
    assert c.dimension == p.dimension
    assert reconstruct(c).dimension == p.dimension
    assert c.n_segments == p.n_segments


def step_record():
    return StepRecord(step=1, n_before=4, factor=Fraction(4, 3), n_after=3,
                      compression_ratio_pct=20.0)


# One instance of every public value type, with the names of its fields.
VALUE_TYPES = {
    "Polyline": (lambda: Polyline(points=[(0, 0), (1, 1)]), ("points",)),
    "TangentChain": (lambda: TangentChain(base=(0.0,), tangents=[(1.0,)]), ("base", "tangents")),
    "StepRecord": (step_record, ("step", "n_before", "factor", "n_after", "compression_ratio_pct")),
    "SmoothingTrace": (lambda: SmoothingTrace(n_points=5, n_steps=2), ("n_points", "n_steps")),
    "SmoothingResult": (lambda: smooth(Polyline([0.0, 1.0, 3.0]), 1), ("output", "trace")),
    "CsvSchema": (lambda: CsvSchema(delimiter=";", has_header=True), ("delimiter", "has_header")),
    "CoefficientRow": (lambda: overlap_coefficients(3, Fraction(3, 2)).rows[0], ("entries",)),
    "CoefficientMatrix": (lambda: overlap_coefficients(3, Fraction(3, 2)),
                          ("rows", "n_old", "n_new", "factor")),
}


class TestValueTypes:
    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        make, fields = VALUE_TYPES[name]
        value = make()
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        for field in fields:
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert hasattr(value, field)

    @pytest.mark.parametrize("name", ["StepRecord", "SmoothingTrace", "SmoothingResult", "CsvSchema",
                                      "CoefficientRow", "CoefficientMatrix"])
    def test_records_compare_and_hash_by_value(self, name):
        make, fields = VALUE_TYPES[name]
        a = make()
        b = type(a)(**{field: getattr(a, field) for field in fields})
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_records_with_other_values_differ(self):
        p = Polyline([0.0, 1.0, 3.0])
        assert step_record() != StepRecord(step=2, n_before=4, factor=Fraction(4, 3), n_after=3,
                                           compression_ratio_pct=20.0)
        assert SmoothingTrace(5, 2) != SmoothingTrace(5, 1)
        assert SmoothingTrace(5, 2) != SmoothingTrace(6, 2)
        assert CsvSchema() != CsvSchema(has_header=True)
        assert smooth(p, 0) != smooth(Polyline(p.points), 0)  # equal points, another curve

    @pytest.mark.parametrize("name", ["Polyline", "TangentChain"])
    def test_curves_compare_by_identity(self, name):
        make, _ = VALUE_TYPES[name]
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_repr_names_the_fields(self):
        assert repr(SmoothingTrace(3, 1)) == "SmoothingTrace(n_points=3, n_steps=1)"
        assert repr(CsvSchema()) == "CsvSchema(delimiter=',', has_header=False)"
        assert repr(step_record()) == ("StepRecord(step=1, n_before=4, factor=Fraction(4, 3), "
                                       "n_after=3, compression_ratio_pct=20.0)")
        assert repr(Polyline([0.0, 1.0])).startswith("Polyline(points=array(")

    def test_keyword_construction(self):
        p = Polyline(points=[(0.0, 1.0), (2.0, 3.0)])
        chain = TangentChain(base=p.points[0], tangents=np.diff(p.points, axis=0))
        trace = SmoothingTrace(n_points=p.n_points, n_steps=0)
        result = SmoothingResult(output=p, trace=trace)
        schema = CsvSchema(delimiter=";", has_header=1)
        assert np.array_equal(chain.tangents, [(2.0, 2.0)])
        assert (trace.n_points, trace.n_steps) == (2, 0)
        assert result.output is p and result.trace is trace
        assert (schema.delimiter, schema.has_header) == (";", True)


COPIES = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", COPIES)
def test_copies_keep_values_and_read_only_arrays(how):
    p = Polyline(np.eye(3))
    result = smooth(p, 1)
    chain = build_chain(p)
    p2, chain2, result2 = (COPIES[how](v) for v in (p, chain, result))
    assert np.array_equal(p2.points, p.points)
    assert np.array_equal(chain2.base, chain.base) and np.array_equal(chain2.tangents, chain.tangents)
    assert np.array_equal(result2.output.points, result.output.points)
    assert result2.trace == result.trace
    for arr in (p2.points, chain2.base, chain2.tangents, result2.output.points):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 42.0
    for value in (SmoothingTrace(5, 2), CsvSchema(delimiter=";", has_header=True), step_record()):
        assert COPIES[how](value) == value
