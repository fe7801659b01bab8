"""Tests for the polyline / tangent-chain representations."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgsmooth import (
    InvalidInputError,
    Polyline,
    TangentChain,
    build_chain,
    reconstruct,
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
         np.array([1, 2], dtype="m8[s]")],
        ids=["text", "bytes", "datetime64", "timedelta64"],
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
