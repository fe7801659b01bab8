"""Tests for the polyline / tangent-chain representations."""

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

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Polyline([(0, 0), (np.nan, 1)])
        with pytest.raises(InvalidInputError):
            Polyline([(0, 0), (np.inf, 1)])

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

    @pytest.mark.parametrize("base", ["abc", [[1], [2, 3]]], ids=["non-numeric", "ragged"])
    def test_malformed_base_rejected(self, base):
        with pytest.raises(InvalidInputError):
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
