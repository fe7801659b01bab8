"""Tests for the iterative smoothing driver."""

import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgsmooth import (
    ChainTooShortError,
    InvalidInputError,
    Polyline,
    SmoothingResult,
    SmoothingTrace,
    StepRecord,
    TangentChain,
    TooManyStepsError,
    build_chain,
    compression_ratio,
    optimal_scaling,
    reconstruct,
    rescale_fractional,
    rescale_integer,
    smooth,
    smooth_to_ratio,
)
from rgsmooth import smoothing

from oracles import exact_smooth


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
        assert res.trace.n_points == 101
        assert len(res.trace) == 95

    def test_zero_steps_is_identity(self):
        p = noisy_curve(n_points=11)
        res = smooth(p, 0)
        assert res.output is p
        assert len(res.trace) == 0
        assert tuple(res.trace) == ()

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
        assert res.trace[-1].compression_ratio_pct == pytest.approx(
            94.0594059405, abs=1e-6
        )
        assert res.trace[-1].compression_ratio_pct >= 94.0

    def test_last_record_meets_the_target(self):
        # 3 of 30 points removed is 10 %; with the ratio rounded twice the record read 9.999999999999998.
        res = smooth_to_ratio(noisy_curve(n_points=30), 10.0)
        assert len(res.trace) == 3
        assert res.trace[-1].compression_ratio_pct >= 10.0

    def test_every_reachable_integer_target_met(self, monkeypatch):
        # The trace depends only on the point and pass counts, so the passes are skipped
        # and only smooth_to_ratio's choice of k is run, for 3-1000 points.
        monkeypatch.setattr(
            smoothing, "smooth", lambda p, k: SmoothingResult(p, SmoothingTrace(p.n_points, k))
        )
        met, short = 0, []
        for n_points in range(3, 1001):
            p = Polyline(np.arange(float(n_points))[:, None])
            for target in range(1, 100):
                try:
                    last = smooth_to_ratio(p, target).trace[-1]
                except TooManyStepsError:
                    continue
                if last.compression_ratio_pct >= target:
                    met += 1
                else:
                    short.append((n_points, target))
        assert short == []
        assert met == 98014

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=100.0, exclude_max=True),
           st.integers(min_value=2, max_value=10**6))
    @example(0.0, 2)
    @example(-0.0, 10**6)
    @example(5e-324, 10**6)  # the least subnormal
    @example(2.2250738585072014e-308, 10**6)  # the least normal
    @example(math.nextafter(100.0, 0.0), 10**6)
    @example(math.nextafter(100.0, 0.0), 10**5 + 1)
    @example(99.9, 10**6)
    @example(10.0, 30)
    def test_step_count_is_the_exact_ceiling(self, target, n_points):
        # k = ceil(target * n_points / 100) in exact rationals, Fraction serving only as the oracle.
        k = math.ceil(Fraction(target) * n_points / 100)
        p = Polyline(np.zeros(n_points))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smoothing, "smooth", lambda p, k: k)
            if k > n_points - 2:
                with pytest.raises(TooManyStepsError) as info:
                    smooth_to_ratio(p, target)
                assert info.value.max_steps == n_points - 2
            else:
                assert smooth_to_ratio(p, target) == k

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

    @pytest.mark.parametrize(
        "bad",
        ["abc", "50", b"50", None, [1], 1 + 0j, 10**400],
        ids=["str", "numeric-str", "bytes", "None", "list", "complex", "huge-int"],
    )
    def test_target_not_a_number_rejected_naming_it(self, bad):
        with pytest.raises(InvalidInputError, match=f"got {re.escape(repr(bad))}$"):
            smooth_to_ratio(noisy_curve(n_points=9), bad)


class TestArrayLoopAndLazyTrace:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_points", [3, 37, 401])
    def test_matches_chain_passes_bitwise_for_every_step_count(self, n_points, dim):
        p = noisy_curve(n_points=n_points, seed=n_points, dim=dim)
        curves, records = chain_passes(p, n_points - 2)
        for steps in range(n_points - 1):
            res = smooth(p, steps)
            assert res.output.points.tobytes() == curves[steps].tobytes()
            assert tuple(res.trace) == tuple(records[:steps])
            assert len(res.trace) == steps

    @pytest.mark.parametrize("n_points", [10001, 100001])
    def test_matches_chain_passes_bitwise_at_large_n(self, n_points):
        # The driver's pass and rescale_fractional share no code, so only
        # this holds them to the same bits on long chains.
        p = noisy_curve(n_points=n_points, seed=n_points)
        curves, _ = chain_passes(p, 3)
        assert smooth(p, 3).output.points.tobytes() == curves[3].tobytes()

    def test_matches_chain_passes_bitwise_over_1000_passes(self):
        # Window offsets n - 1 - m1 up to 1000, at long_track's shape.  Only the
        # last curve is kept: chain_passes would hold about 150 MB here.
        p = noisy_curve(n_points=10001, seed=10001)
        chain = build_chain(p)
        for _ in range(1000):
            chain = rescale_fractional(chain, optimal_scaling(chain.n_segments))
        assert smooth(p, 1000).output.points.tobytes() == reconstruct(chain).points.tobytes()

    def test_indexing_builds_chain_passes_records(self):
        _, records = chain_passes(noisy_curve(n_points=21), 19)
        trace = SmoothingTrace(21, 19)
        for i in range(-19, 19):
            assert trace[i] == records[i]
        for cut in [slice(None), slice(None, None, -1), slice(3, 10, 2), slice(-5, None), slice(40, None)]:
            assert trace[cut] == tuple(records[cut])
        assert tuple(trace) == tuple(records)

    @pytest.mark.parametrize("n_steps", [0, 1, 19])
    def test_index_past_either_end_raises(self, n_steps):
        trace = SmoothingTrace(21, n_steps)
        for i in (n_steps, -n_steps - 1):
            with pytest.raises(IndexError):
                trace[i]

    def test_last_record_builds_one_factor(self, monkeypatch):
        calls = []

        def counted(n_segments):
            calls.append(n_segments)
            return optimal_scaling(n_segments)

        monkeypatch.setattr(smoothing, "optimal_scaling", counted)
        assert SmoothingTrace(100001, 99999)[-1].factor == Fraction(2)
        assert calls == [2]

    @pytest.mark.parametrize(
        "n_steps, error", [(-1, InvalidInputError), (1.5, InvalidInputError), (4, TooManyStepsError)]
    )
    def test_direct_construction_checks_steps_as_smooth_does(self, n_steps, error):
        with pytest.raises(error) as direct:
            SmoothingTrace(5, n_steps)
        with pytest.raises(error) as via_smooth:
            smooth(noisy_curve(n_points=5), n_steps)
        assert str(direct.value) == str(via_smooth.value)
        if error is TooManyStepsError:
            assert direct.value.max_steps == via_smooth.value.max_steps == 3

    def test_direct_construction_rejects_non_integer_point_count(self):
        with pytest.raises(InvalidInputError, match="point count must be an integer, got 5.5"):
            SmoothingTrace(5.5, 1)

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_direct_construction_rejects_point_count_below_two(self, n_points):
        # Checked before the steps, so no TooManyStepsError with a negative maximum.
        with pytest.raises(InvalidInputError, match=f"point count must be at least 2, got {n_points}$"):
            SmoothingTrace(n_points, 0)

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build_chain(Polyline([[-1e308], [1e308]])),
            lambda: reconstruct(TangentChain([0.0], [[1e308], [1e308]])),
            lambda: rescale_fractional(TangentChain([0.0], [[1.5e308]] * 3), Fraction(3, 2)),
            lambda: rescale_integer(TangentChain([0.0], [[1e308], [1e308]]), 2),
        ],
        ids=["build_chain", "reconstruct", "rescale_fractional", "rescale_integer"],
    )
    def test_lower_level_api_one_error_and_no_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="non-finite coordinates"):
                call()


@pytest.fixture
def block_starts(monkeypatch):
    """The first output row of every block that smooth's passes run, in any order."""
    starts, passes = [], smoothing._passes

    def recording(points, lo, steps, n):
        starts.append(lo)
        return passes(points, lo, steps, n)

    monkeypatch.setattr(smoothing, "_passes", recording)
    return starts


def set_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def split_small_curves(monkeypatch, cores):
    monkeypatch.setattr(smoothing, "_MIN_BLOCK_VALUES", 1)
    set_cores(monkeypatch, cores)


class TestRowBlocks:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_points", [3, 4, 5, 37, 401])
    def test_block_edges_bit_exact_for_every_step_count(self, monkeypatch, block_starts, n_points, dim):
        p = noisy_curve(n_points=n_points, seed=n_points, dim=dim)
        curves, _ = chain_passes(p, n_points - 2)
        for cores in (2, 3):
            split_small_curves(monkeypatch, cores)
            for steps in range(1, n_points - 1):
                block_starts.clear()
                assert smooth(p, steps).output.points.tobytes() == curves[steps].tobytes()
                # One block per core, never more blocks than output rows, none empty.
                m = n_points - 1 - steps
                blocks = min(cores, m)
                assert sorted(block_starts) == [m * i // blocks for i in range(blocks)]

    @pytest.mark.parametrize("n_points, steps", [(10001, 1000), (100001, 3)])
    def test_long_bitwise_tests_run_two_blocks_on_two_cores(self, monkeypatch, block_starts, n_points, steps):
        # The shapes of test_matches_chain_passes_bitwise_over_1000_passes and of the 100001-point
        # case of test_matches_chain_passes_bitwise_at_large_n, so those hold the split to the bits
        # of the chain API on any host with two or more cores.
        set_cores(monkeypatch, 2)
        smooth(noisy_curve(n_points=n_points, seed=n_points), steps)
        assert sorted(block_starts) == [0, (n_points - 1 - steps) // 2]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_points", [51, 401])
    def test_short_curves_start_no_thread(self, monkeypatch, block_starts, n_points, dim):
        # many_short's curves, on any number of cores.
        set_cores(monkeypatch, 64)
        monkeypatch.setattr(smoothing, "threading", None)  # starting a thread would raise
        smooth_to_ratio(noisy_curve(n_points=n_points, dim=dim), 90)
        assert block_starts == [0]

    @pytest.mark.parametrize("cpu_count, blocks", [(2, 2), (None, 1)])
    def test_without_affinity_the_cpu_count_sets_the_blocks(self, monkeypatch, block_starts, cpu_count, blocks):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        steps = 10
        smooth(Polyline(np.linspace(0.0, 1.0, 2 * smoothing._MIN_BLOCK_VALUES + steps + 1)), steps)
        assert sorted(block_starts) == [0, smoothing._MIN_BLOCK_VALUES][:blocks]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_memory_layout_does_not_change_bits(self, monkeypatch, block_starts, cores):
        split_small_curves(monkeypatch, cores)
        wide = noisy_curve(n_points=81, seed=5, dim=3).points
        c_order = np.ascontiguousarray(wide[::2])
        read_only = c_order.copy()
        read_only.setflags(write=False)
        expected = smooth(Polyline(c_order), 20).output.points.tobytes()
        for points in (np.asfortranarray(c_order), wide[::2], read_only):
            block_starts.clear()
            assert smooth(Polyline(points), 20).output.points.tobytes() == expected
            assert sorted(block_starts) == [0, 10][:cores]

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_overflow_in_the_last_block_one_error_and_no_warning(self, monkeypatch, block_starts):
        # The last two tangents are DBL_MAX / 2 and DBL_MAX, and the last row of every pass
        # weighs its right tangent by 1, so the first pass overflows there and nowhere else.
        set_cores(monkeypatch, 2)
        steps, big = 10, np.finfo(np.float64).max
        x = np.linspace(0.0, 1.0, 2 * smoothing._MIN_BLOCK_VALUES + steps + 1)
        x[-3:] = -big, -big / 2, big / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflowed float64 while smoothing"):
                smooth(Polyline(x), steps)
        assert sorted(block_starts) == [0, smoothing._MIN_BLOCK_VALUES]

    @pytest.mark.parametrize("failing", [0, 9, 18])  # the first row of each of 3 blocks of 9
    def test_block_exception_propagates(self, monkeypatch, failing):
        split_small_curves(monkeypatch, 3)
        passes, threads = smoothing._passes, threading.active_count()

        def fail_one(points, lo, steps, n):
            if lo == failing:
                raise RuntimeError(f"block at row {lo} failed")
            return passes(points, lo, steps, n)

        monkeypatch.setattr(smoothing, "_passes", fail_one)
        with pytest.raises(RuntimeError, match=f"block at row {failing} failed"):
            smooth(noisy_curve(n_points=38), 10)
        assert threading.active_count() == threads

    def test_interrupt_ends_a_split_run_without_waiting_for_the_worker(self):
        # Two blocks of 10**4 passes over 10**6 points, about 40 s in all on a 2-core x86-64 host;
        # interrupted after 0.5 s, the process ended 0.7 s after it started.
        script = textwrap.dedent("""
            import _thread, os, threading
            import numpy as np
            from rgsmooth import Polyline, smooth
            os.sched_getaffinity = lambda pid: {0, 1}
            curve = Polyline(np.sin(np.linspace(0.0, 50.0, 1000001)))
            threading.Timer(0.5, _thread.interrupt_main).start()
            try:
                smooth(curve, 10000)
            except KeyboardInterrupt:
                print("interrupted")
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "interrupted\n", "")

    def test_concurrent_calls_get_the_serial_bytes(self, monkeypatch, block_starts):
        steps = 50
        curves = [
            noisy_curve(n_points=2 * smoothing._MIN_BLOCK_VALUES // dim + steps + 1, seed=i, dim=dim)
            for i, dim in enumerate([1, 2, 3, 2])
        ]
        set_cores(monkeypatch, 1)
        serial = [smooth(c, steps).output.points.tobytes() for c in curves]
        set_cores(monkeypatch, 2)
        block_starts.clear()
        start, results = threading.Barrier(len(curves)), [None] * len(curves)

        def call(i):
            start.wait(timeout=10)
            results[i] = smooth(curves[i], steps).output.points.tobytes()

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(curves))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == serial
        assert len(block_starts) == 2 * len(curves)


# Unit coordinates: 0 or of magnitude 2**-20 to 1, so that no run comes
# near the subnormal range, where scaling by a power of two is not exact.
_UNIT = st.just(0.0) | st.floats(2.0**-20, 1.0) | st.floats(-1.0, -(2.0**-20))


@st.composite
def curves(draw, increasing_x=False, min_dim=1):
    """(points, steps): 3 to 40 points in min_dim to 3 dimensions, each
    coordinate offset + scale * unit, at the offsets of projected map
    data, and a step count from 1 to n - 2."""
    n = draw(st.integers(3, 40))
    d = draw(st.integers(min_dim, 3))
    unit = draw(arrays(np.float64, (n, d), elements=_UNIT))
    if increasing_x:
        # x steps of 1 to 2 units, far above an ulp of x at any offset.
        unit[:, 0] = np.cumsum(1.0 + np.abs(unit[:, 0]))
    offset = draw(st.sampled_from([0.0, 1e6, -3e7]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return offset + scale * unit, draw(st.integers(1, n - 2))


@st.composite
def noisy_curves(draw):
    """Random points or a random walk, 3 to 40 points in 2 or 3 dimensions:
    a curve that turns at every vertex, by any angle."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(draw(st.integers(3, 40)), draw(st.integers(2, 3))))
    return np.cumsum(pts, axis=0) if draw(st.booleans()) else pts


def ulp_of_largest(*arrays):
    return np.spacing(max(np.abs(a).max() for a in arrays))


def rising(x, j):
    """The rising factorial x (x + 1) ... (x + j - 1)."""
    return math.prod(range(x, x + j))


def error_bound(points):
    """How far smooth's output may lie from the exact result, per
    coordinate: 2 ulps of the largest |coordinate| per input point.

    Rebuilding the points is a running sum of n - 1 tangents, each addition
    rounding by up to an ulp of a partial sum, so the error may grow with n;
    the passes' own roundings mostly cancel, as the weights on each old
    tangent sum to 1.  Over 6000 random curves of up to 40 points the worst
    error seen was 16.25 ulps, and at most 0.6 ulps per point.
    """
    return 2 * len(points) * ulp_of_largest(points)


def polyline_length(points):
    return np.sqrt((np.diff(points, axis=0) ** 2).sum(axis=1)).sum()


# Tangents of magnitude from subnormal to 1e300, and zeros.  No pass of such
# a chain overflows: each new tangent is a convex combination of two old ones.
_TANGENT = st.just(0.0) | st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)


def sign_changes(values):
    """How often the signs of ``values`` alternate, zeros dropped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def turning(tangents):
    """The angles between consecutive nonzero tangents, by Kahan's
    2 atan2(|u - v|, |u + v|) of their unit vectors u and v."""
    t = tangents[(tangents != 0).any(axis=1)]
    u = t / np.linalg.norm(t, axis=1, keepdims=True)
    return 2 * np.arctan2(np.linalg.norm(u[1:] - u[:-1], axis=1), np.linalg.norm(u[1:] + u[:-1], axis=1))


def direction_slack(tangents, delta):
    """How far each tangent's direction may be from the exact one's, if its
    vector may be off by delta in norm: arcsin(delta / |t|), and pi where
    the exact tangent may be 0 and so not counted at all."""
    norm = np.linalg.norm(tangents, axis=1)
    return np.where(norm > delta, np.arcsin(np.minimum(1.0, delta / np.maximum(norm, delta))), np.pi)


def level(points, c, d):
    """c . p - d for every point p, in exact rational arithmetic."""
    return [sum(ci * Fraction(float(x)) for ci, x in zip(c, p)) - d for p in points]


class TestExactReferenceAndInvariants:
    @settings(max_examples=100, deadline=None)
    @given(curves())
    def test_within_error_bound_of_exact_rational_reference(self, case):
        pts, steps = case
        out = smooth(Polyline(pts), steps).output.points
        exact = np.array(exact_smooth(pts, steps), dtype=np.float64)
        assert np.abs(out - exact).max() <= error_bound(pts)

    @settings(max_examples=150, deadline=None)
    @given(curves())
    def test_bounding_box_and_length_do_not_grow(self, case):
        # The exact output points lie on the input polyline, in order, so the
        # float output can leave the box or add length only by its error.
        pts, steps = case
        out = smooth(Polyline(pts), steps).output.points
        tol = error_bound(pts)
        assert (out.min(axis=0) >= pts.min(axis=0) - tol).all()
        assert (out.max(axis=0) <= pts.max(axis=0) + tol).all()
        # Moving both ends of a segment by tol per axis lengthens it by at
        # most 2 * sqrt(3) * tol; 4 * tol per segment also covers the sums.
        assert polyline_length(out) <= polyline_length(pts) + 4 * len(pts) * tol

    @settings(max_examples=100, deadline=None)
    @given(curves(increasing_x=True))
    def test_increasing_x_stays_increasing(self, case):
        pts, steps = case
        out = smooth(Polyline(pts), steps).output.points
        assert (np.diff(out[:, 0]) > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 60), st.integers(1, 3)), elements=_TANGENT))
    def test_turning_points_never_multiply(self, tangents):
        # A new tangent is fl(fl(w0 * a) + fl(w1 * b)) with w0, w1 > 0, so it is 0 or has
        # the sign of a or b: an alternating run of signs after a pass picks out one at
        # least as long before it.  Rebuilt points would add the rounding of their sums.
        chain = TangentChain(np.zeros(tangents.shape[1]), tangents)
        while chain.n_segments > 1:
            before = [sign_changes(column) for column in chain.tangents.T]
            chain = rescale_fractional(chain, optimal_scaling(chain.n_segments))
            after = [sign_changes(column) for column in chain.tangents.T]
            assert all(a <= b for a, b in zip(after, before))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_no_hyperplane_gains_a_crossing_exact(self, data):
        # A pass maps c . P - d by a two-diagonal matrix of positive weights whose rows
        # sum to 1.  Such a matrix is totally positive, so it never adds a sign change
        # (Schoenberg's variation diminishing): no line or plane is crossed more often.
        n, dim = data.draw(st.integers(3, 16)), data.draw(st.integers(1, 3))
        point = st.lists(st.integers(-20, 20), min_size=dim, max_size=dim)
        pts = data.draw(st.lists(point, min_size=n, max_size=n))
        out = exact_smooth(pts, data.draw(st.integers(1, n - 2)))
        for _ in range(5):
            c = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            d = data.draw(st.fractions(-60, 60, max_denominator=8))
            assert sign_changes(level(out, c, d)) <= sign_changes(level(pts, c, d))

    @settings(max_examples=100, deadline=None)
    @given(curves(), st.data())
    def test_no_hyperplane_gains_a_crossing_beyond_rounding(self, case, data):
        # The float output lies within error_bound of the exact one per coordinate, so
        # its c . p - d lies within sum |c| * error_bound of the exact value: one beyond
        # that margin has the exact sign, and exact signs alternate no more than the input's.
        pts, steps = case
        out, dim = smooth(Polyline(pts), steps).output.points, pts.shape[1]
        for _ in range(5):
            c = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            # A plane halfway between two input points' levels.
            i, j = data.draw(st.integers(0, len(pts) - 1)), data.draw(st.integers(0, len(pts) - 1))
            d = sum(level(pts[[i, j]], c, 0)) / 2
            margin = sum(map(abs, c)) * error_bound(pts)
            beyond = [v for v in level(out, c, d) if abs(v) > margin]
            assert sign_changes(beyond) <= sign_changes(level(pts, c, d))

    @settings(max_examples=100, deadline=None)
    @given(noisy_curves() | curves(min_dim=2).map(lambda case: case[0]))
    def test_total_turning_never_grows_beyond_rounding(self, pts):
        # New tangent k is a t[k] + b t[k+1] with a, b > 0, so its direction lies on the shorter
        # arc between theirs and splits the old turn there in two: the exact total turning (the
        # discrete total absolute curvature) never grows.  A tangent off by delta in norm turns by
        # at most its direction slack, and each slack enters the two angles beside its tangent.
        d = pts.shape[1]
        before = np.diff(pts, axis=0)
        slack = direction_slack(before, np.sqrt(d) * ulp_of_largest(pts))
        allowed = turning(before).sum() + 2 * slack.sum()
        for steps in range(1, len(pts) - 1):
            out = smooth(Polyline(pts), steps).output.points
            after = np.diff(out, axis=0)
            delta = np.sqrt(d) * (2 * error_bound(pts) + ulp_of_largest(out))
            margin = 2 * direction_slack(after, delta).sum() + 1e-12 * len(pts)
            assert turning(after).sum() <= allowed + margin

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 9)).filter(lambda t: t[1] or t[0] > 0),
                    min_size=2, max_size=13))
    def test_convex_arc_stays_convex_exact(self, directions):
        # Tangents in the upper half plane, sorted by angle, turn one way by less than pi in
        # all: a convex arc.  Each new tangent lies between its two old ones in angle, so every
        # consecutive cross product stays >= 0.
        tangents = sorted(directions, key=lambda t: math.atan2(t[1], t[0]))
        pts = np.cumsum([(0, 0), *tangents], axis=0)
        for steps in range(1, len(pts) - 1):
            out = exact_smooth(pts, steps)
            t = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(out, out[1:])]
            assert all(a[0] * b[1] - a[1] * b[0] >= 0 for a, b in zip(t, t[1:]))

    @settings(max_examples=100, deadline=None)
    @given(curves(), st.lists(st.integers(-30, 30), min_size=3, max_size=3))
    def test_power_of_two_axis_scaling_is_bit_exact(self, case, exponents):
        pts, steps = case
        factors = 2.0 ** np.array(exponents[: pts.shape[1]], dtype=np.float64)
        scaled = smooth(Polyline(pts * factors), steps).output.points
        assert scaled.tobytes() == (smooth(Polyline(pts), steps).output.points * factors).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(curves(), st.floats(-1e7, 1e7), st.data())
    def test_translation_and_split_runs_within_error_bound(self, case, shift, data):
        pts, steps = case
        n = len(pts)
        out = smooth(Polyline(pts), steps).output.points
        # Each run within its bound, plus half an ulp for each translation.
        moved = smooth(Polyline(pts + shift), steps).output.points
        assert np.abs(moved - (out + shift)).max() <= (4 * n + 1) * ulp_of_largest(pts, pts + shift)
        # Passes are convex combinations and carry the first run's error
        # unchanged; each of the three runs adds at most its own bound.
        first = data.draw(st.integers(0, steps))
        split = smooth(smooth(Polyline(pts), first).output, steps - first).output.points
        assert np.abs(split - out).max() <= 3 * error_bound(pts)

    @settings(max_examples=100, deadline=None)
    @given(curves())
    def test_reversed_input_gives_reversed_output(self, case):
        # Row k's weights (m-1-k)/(m-1) and (k+1)/(m-1) are row m-2-k's read
        # backwards, so the exact result of a reversed curve is the exact
        # result reversed; each float run lies within its bound of it.
        pts, steps = case
        out = smooth(Polyline(pts), steps).output.points
        backwards = smooth(Polyline(pts[::-1]), steps).output.points
        assert np.abs(backwards[::-1] - out).max() <= 2 * error_bound(pts)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_s_pass_weights_form_a_centred_window(self, n):
        # smooth is linear and acts on each axis alone, so smoothing the
        # identity gives the exact weight matrix W of s passes: output point
        # k is sum_j W[k][j] * P[j].  smooth's own matrix is W up to rounding.
        # With M = N - s segments left, row k is BetaBin(s, k, M - k) on
        # j = k + i: W[k][k + i] = C(s, i) k^(i) (M - k)^(s - i) / M^(s), where
        # x^(j) = x (x + 1) ... (x + j - 1), and 0 elsewhere.  Its mean is
        # k*N/M and its variance N*s*k*(M - k) / (M^2 * (M + 1)), README's
        # bandwidth law.
        N = n - 1
        for s in range(1, n - 1):
            M = N - s
            W = exact_smooth(np.eye(n), s)
            out = smooth(Polyline(np.eye(n)), s).output.points
            assert np.abs(out - np.array(W, dtype=np.float64)).max() <= error_bound(np.eye(n))
            for k, row in enumerate(W):
                assert row == [
                    Fraction(math.comb(s, i) * rising(k, i) * rising(M - k, s - i), rising(M, s))
                    if 0 <= i <= s else 0
                    for i in range(-k, n - k)
                ]
                assert sum(row) == 1
                mean = Fraction(k * N, M)
                assert sum(j * w for j, w in enumerate(row)) == mean
                assert sum((j - mean) ** 2 * w for j, w in enumerate(row)) == Fraction(
                    N * s * k * (M - k), M * M * (M + 1)
                )

    @pytest.mark.parametrize("s", [10, 100, 400])
    def test_moment_curve_bandwidth_matches_weight_matrix_at_1001(self, s):
        # At the size of README's table, sigma from the moment curve and from
        # the bandwidth law, against sigma from the rows of smooth's own
        # weight matrix.  The endpoints (sigma = 0) are left out: there the
        # moment difference is float noise.  A variance that noise makes
        # negative is read as 0, so sqrt does not warn.
        n = 1001
        N, M = n - 1, n - 1 - s
        j = np.arange(n) - n / 2
        m = smooth(Polyline(np.column_stack([j, j * j])), s).output.points
        by_moments = np.sqrt(np.maximum(m[:, 1] - m[:, 0] ** 2, 0.0))
        W = smooth(Polyline(np.eye(n)), s).output.points
        centred = j - (W @ j)[:, None]
        by_weights = np.sqrt(np.maximum((W * centred**2).sum(axis=1), 0.0))
        np.testing.assert_allclose(by_moments[1:-1], by_weights[1:-1], rtol=1e-6, atol=0)
        k = np.arange(M + 1)
        by_law = np.sqrt(N * s * k * (M - k) / (M * M * (M + 1)))
        np.testing.assert_allclose(by_law[1:-1], by_weights[1:-1], rtol=1e-6, atol=0)
        # README's noise gain: the middle row's squared weights sum to within
        # 1.3 % of 1 / (2 sqrt(pi) sigma_mid).  M is even, so row M / 2 is the middle.
        mid = M // 2
        assert (W[mid] ** 2).sum() * 2 * math.sqrt(math.pi) * by_law[mid] == pytest.approx(1, abs=0.013)
        # The rows at both ends and around the middle against the closed form itself,
        # BetaBin(s, k, M - k) on inputs k ... k + s, each exact weight rounded once
        # (Python divides integers exactly rounded).
        for k in [*range(8), *range(mid - 2, mid + 3), *range(M - 7, M + 1)]:
            exact = np.zeros(n)
            exact[k : k + s + 1] = [
                math.comb(s, i) * rising(k, i) * rising(M - k, s - i) / rising(M, s)
                for i in range(s + 1)
            ]
            assert np.abs(W[k] - exact).max() <= error_bound(np.eye(n))

    @pytest.mark.parametrize("n", range(3, 21))
    def test_moment_curve_gives_each_rows_bandwidth(self, n):
        # The width of the window above from one 2-column curve instead of
        # the n-column identity: smoothing (j - c, (j - c)^2) gives each
        # output point's mean input index and second moment about c, so
        # its variance sigma_k^2 = E_k[(j - c)^2] - (mu_k - c)^2.  With
        # M = N - s segments left, that is the bandwidth law.
        c = n / 2
        offsets = [Fraction(j) - Fraction(c) for j in range(n)]
        moments = np.array([[float(d), float(d * d)] for d in offsets])
        for s in range(1, n - 1):
            by_weights = []
            for row in exact_smooth(np.eye(n), s):
                mean = sum(w * d for w, d in zip(row, offsets))
                by_weights.append(sum(w * d * d for w, d in zip(row, offsets)) - mean * mean)
            by_moments = [m2 - m1 * m1 for m1, m2 in exact_smooth(moments, s)]
            assert by_moments == by_weights
            N, M = n - 1, n - 1 - s
            assert by_moments == [Fraction(N * s * k * (M - k), M * M * (M + 1)) for k in range(M + 1)]
            # The fixed endpoints are not smoothed at all.
            assert by_moments[0] == by_moments[-1] == 0
            assert all(v > 0 for v in by_moments[1:-1])
            out = smooth(Polyline(moments), s).output.points
            np.testing.assert_allclose(
                out[:, 1] - out[:, 0] ** 2, [float(v) for v in by_moments],
                rtol=0, atol=(1 + 2 * c) * error_bound(moments),
            )
