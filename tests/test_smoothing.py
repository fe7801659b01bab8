"""Tests for the iterative smoothing driver."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rgsmooth import (
    ChainTooShortError,
    InvalidInputError,
    Polyline,
    StepRecord,
    TooManyStepsError,
    build_chain,
    compression_ratio,
    optimal_scaling,
    reconstruct,
    rescale_fractional,
    smooth,
    smooth_to_ratio,
)


def resample_oracle(points, factor):
    """Independent single-pass oracle: vertices of the rescaled chain sit on
    the previous polyline at index-parameters 0, f, 2f, ... (linear
    interpolation per axis), because new tangent k integrates the tangent
    density over [k*f, (k+1)*f]."""
    n = points.shape[0] - 1
    n_new = (n * factor.denominator) // factor.numerator
    u = np.array([float(k * factor) for k in range(n_new + 1)])
    grid = np.arange(n + 1, dtype=np.float64)
    return np.column_stack(
        [np.interp(u, grid, points[:, c]) for c in range(points.shape[1])]
    )


def chain_passes(polyline, steps):
    """Reference for the driver: the same passes through the public chain
    API, one validated chain, one rescale_fractional call and one eagerly
    built record per pass.  Returns the curve after every pass (index 0 is
    the input) and the records."""
    n_original = polyline.n_segments
    chain = build_chain(polyline)
    curves, records = [polyline.points], []
    for step in range(1, steps + 1):
        n_before = chain.n_segments
        factor = optimal_scaling(n_before)
        chain = rescale_fractional(chain, factor)
        curves.append(reconstruct(chain).points)
        records.append(
            StepRecord(
                step=step,
                n_before=n_before,
                factor=factor,
                n_after=chain.n_segments,
                compression_ratio_pct=compression_ratio(n_original, chain.n_segments),
            )
        )
    return curves, records


def smooth_oracle(points, steps):
    out = points
    for _ in range(steps):
        n = out.shape[0] - 1
        out = resample_oracle(out, Fraction(n, n - 1))
    return out


class TestOptimalScaling:
    def test_four_segments(self):
        f = optimal_scaling(4)
        assert f == Fraction(4, 3)
        assert math.floor(4 / f) == 3

    def test_boundary_two_segments(self):
        assert optimal_scaling(2) == Fraction(2)

    def test_hundred_segments(self):
        assert optimal_scaling(100) == Fraction(100, 99)

    def test_always_in_interval_and_reduced(self):
        for n in range(2, 300):
            f = optimal_scaling(n)
            assert Fraction(1) < f <= Fraction(2)
            assert math.gcd(f.numerator, f.denominator) == 1
            assert (n * f.denominator) % f.numerator == 0

    def test_single_segment_rejected(self):
        with pytest.raises(ChainTooShortError):
            optimal_scaling(1)


class TestCompressionRatio:
    def test_no_smoothing_is_zero(self):
        assert compression_ratio(100, 100) == 0.0

    def test_hundred_to_five(self):
        assert compression_ratio(100, 5) == pytest.approx((1 - 6 / 101) * 100, abs=1e-12)

    def test_hundred_to_fifty(self):
        assert compression_ratio(100, 50) == pytest.approx((1 - 51 / 101) * 100, abs=1e-12)

    def test_precondition_violations(self):
        with pytest.raises(InvalidInputError):
            compression_ratio(10, 11)
        with pytest.raises(InvalidInputError):
            compression_ratio(10, 0)


def noisy_curve(n_points=101, x_max=20.0, sigma=0.3, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, x_max, n_points)
    cols = [x]
    for _ in range(dim - 1):
        cols.append(np.sin(x) + rng.normal(0.0, sigma, n_points))
    return Polyline(np.column_stack(cols))


class TestSmooth:
    def test_95_steps_of_101_points_leaves_6(self):
        res = smooth(noisy_curve(), 95)
        assert res.output.n_points == 6
        assert res.input_points == 101
        assert res.output_points == 6
        assert len(res.trace) == 95

    def test_zero_steps_is_identity(self):
        p = noisy_curve(n_points=11)
        res = smooth(p, 0)
        assert res.output is p
        assert len(res.trace) == 0
        assert res.trace.steps == ()

    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidInputError):
            smooth(noisy_curve(n_points=5), -1)

    def test_too_many_steps_reports_maximum(self):
        with pytest.raises(TooManyStepsError) as err:
            smooth(noisy_curve(n_points=5), 4)
        assert err.value.max_steps == 3

    def test_segment_count_law_every_step(self):
        p = noisy_curve(n_points=37, seed=3)
        res = smooth(p, 35)
        for rec in res.trace:
            assert rec.n_after == rec.n_before - 1
            assert rec.n_before == 36 - (rec.step - 1)
            assert rec.factor == Fraction(rec.n_before, rec.n_before - 1)

    def test_trace_ratio_strictly_increases(self):
        res = smooth(noisy_curve(seed=5), 60)
        ratios = [rec.compression_ratio_pct for rec in res.trace]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_first_point_bit_equal_last_point_tight(self):
        p = noisy_curve(seed=9)
        res = smooth(p, 95)
        assert res.output.points[0].tobytes() == p.points[0].tobytes()
        np.testing.assert_allclose(
            res.output.points[-1], p.points[-1], rtol=1e-12, atol=0
        )

    def test_equidistant_grid_spacing_law(self):
        # Constant input spacing d becomes d * n / (n - steps).
        p = noisy_curve(n_points=101, x_max=20.0, seed=1)
        res = smooth(p, 95)
        np.testing.assert_allclose(
            res.output.points[:, 0], [0.0, 4.0, 8.0, 12.0, 16.0, 20.0], rtol=0, atol=1e-9
        )

    def test_matches_interpolation_oracle(self):
        for seed, steps in [(0, 1), (1, 7), (2, 30)]:
            p = noisy_curve(n_points=41, seed=seed, dim=3)
            res = smooth(p, steps)
            expect = smooth_oracle(p.points, steps)
            np.testing.assert_allclose(res.output.points, expect, rtol=1e-10, atol=1e-10)

    def test_collinear_equidistant_input_resampled_exactly(self):
        start = np.array([1.0, -2.0, 0.5])
        direction = np.array([0.25, 1.0, -0.5])
        pts = start + np.arange(13)[:, None] * direction
        res = smooth(Polyline(pts), 9)
        expect = start + np.linspace(0, 12, 4)[:, None] * direction
        np.testing.assert_allclose(res.output.points, expect, rtol=1e-12, atol=1e-12)

    def test_deterministic_bitwise(self):
        p = noisy_curve(seed=42)
        a = smooth(p, 50).output.points
        b = smooth(p, 50).output.points
        assert a.tobytes() == b.tobytes()

    def test_composition_of_runs(self):
        p = noisy_curve(n_points=61, seed=13)
        whole = smooth(p, 40)
        part = smooth(smooth(p, 25).output, 15)
        np.testing.assert_allclose(
            part.output.points, whole.output.points, rtol=1e-11, atol=1e-11
        )
        assert part.output.n_points == whole.output.n_points

    def test_tangent_sum_conserved_each_step(self):
        rng = np.random.default_rng(8)
        pts = np.cumsum(rng.uniform(0.05, 1.0, size=(50, 3)), axis=0)
        res = smooth(Polyline(pts), 48)
        # Endpoint displacement is the tangent sum; it must survive the run.
        np.testing.assert_allclose(
            res.output.points[-1] - res.output.points[0],
            pts[-1] - pts[0],
            rtol=1e-12,
            atol=0,
        )


class TestSmoothToRatio:
    def test_target_94_on_101_points(self):
        res = smooth_to_ratio(noisy_curve(), 94.0)
        assert len(res.trace) == 95
        assert res.trace.steps[-1].compression_ratio_pct == pytest.approx(
            94.0594059405, abs=1e-6
        )
        assert res.trace.steps[-1].compression_ratio_pct >= 94.0

    def test_target_zero_is_identity(self):
        p = noisy_curve(n_points=9)
        res = smooth_to_ratio(p, 0.0)
        assert res.output is p

    def test_unreachable_target(self):
        p = Polyline([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        with pytest.raises(TooManyStepsError):
            smooth_to_ratio(p, 99.0)

    def test_target_out_of_range(self):
        p = noisy_curve(n_points=9)
        for bad in (-1.0, 100.0, float("nan")):
            with pytest.raises(InvalidInputError):
                smooth_to_ratio(p, bad)


class TestArrayLoopAndLazyTrace:
    @pytest.mark.parametrize("n_points", [3, 37, 401])
    def test_matches_chain_passes_bitwise_for_every_step_count(self, n_points):
        p = noisy_curve(n_points=n_points, seed=n_points)
        curves, records = chain_passes(p, n_points - 2)
        for steps in range(n_points - 1):
            res = smooth(p, steps)
            assert res.output.points.tobytes() == curves[steps].tobytes()
            assert res.trace.steps == tuple(records[:steps])
            assert len(res.trace) == steps

    def test_steps_built_once_and_only_when_read(self):
        trace = smooth(noisy_curve(n_points=21), 12).trace
        assert len(trace) == 12
        assert "steps" not in trace.__dict__
        first = trace.steps
        assert trace.steps is first
        assert list(trace) == list(first)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_output_read_only_and_unshared(self, dim):
        shape = (31,) if dim == 1 else (31, dim)
        p = Polyline(np.random.default_rng(2).normal(size=shape))
        for steps in (1, p.n_points - 2):
            out = smooth(p, steps).output.points
            assert not out.flags.writeable
            assert not np.shares_memory(out, p.points)


class TestOverflow:
    @pytest.mark.parametrize(
        "points",
        [[(-1e308, 0.0), (0.0, 0.0), (1e308, 0.0)], [-1e308, 1e308, 0.0]],
        ids=["merged-tangent", "difference"],
    )
    def test_one_error_and_no_warning(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflowed float64 while smoothing"):
                smooth(Polyline(points), 1)
