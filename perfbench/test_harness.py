"""Tests of the benchmark harness itself (not part of the package suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import inputs  # noqa: E402
import rgsmooth  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import TOLERANCE, check_cli, check_points, ratio_steps, reference_smooth  # noqa: E402


def exact_smooth(points: np.ndarray, steps: int) -> list[list[Fraction]]:
    """The paper's overlap rule in exact rationals, in tangent form: new
    tangent k over m old ones is sum_j w(k, j) T_j with
    w = max(0, min((k+1)f, j+1) - max(kf, j)) and f = m/(m-1)."""
    pts = [[Fraction(v) for v in row] for row in points.tolist()]
    tangents = [[b - a for a, b in zip(p, q)] for p, q in zip(pts, pts[1:])]
    for _ in range(steps):
        m = len(tangents)
        f = Fraction(m, m - 1)
        merged = []
        for k in range(m - 1):
            lo, hi = k * f, (k + 1) * f
            row = [Fraction(0)] * len(pts[0])
            for j in range(math.floor(lo), min(m, math.ceil(hi))):
                w = min(hi, j + 1) - max(lo, j)
                if w > 0:
                    row = [r + w * t for r, t in zip(row, tangents[j])]
            merged.append(row)
        tangents = merged
    out = [pts[0]]
    for t in tangents:
        out.append([a + b for a, b in zip(out[-1], t)])
    return out


def small_curves():
    rng = np.random.default_rng(7)
    yield inputs.sine_noise(30, rng)
    yield inputs.helix(25, rng)
    yield 1e6 + 0.01 * rng.normal(size=(20, 2))  # projected-GPS-like offset
    yield rng.normal(size=(12, 1))


def extent(points):
    return float(np.max(np.ptp(points, axis=0)))


@pytest.mark.parametrize("curve", list(small_curves()), ids=["sine30", "helix25", "offset20", "scalar12"])
def test_reference_matches_exact_overlap_rule(curve):
    for steps in (1, 3, curve.shape[0] - 2):
        exact = np.array([[float(v) for v in row] for row in exact_smooth(curve, steps)])
        ref = reference_smooth(curve, steps)
        assert ref.shape == exact.shape
        # Within two units in the last place of the largest coordinate.
        assert np.max(np.abs(ref - exact)) <= 2 * np.spacing(np.max(np.abs(curve)))


@pytest.mark.parametrize("n,steps", [(31, 20), (101, 91), (401, 361), (1001, 500)])
def test_reference_matches_rgsmooth(n, steps):
    curve = inputs.sine_noise(n, np.random.default_rng(n))
    out = rgsmooth.smooth(rgsmooth.Polyline(curve), steps).output.points
    ref = reference_smooth(curve, steps)
    assert np.max(np.abs(out - ref)) <= 1e-12 * extent(curve)
    assert check_points(curve, steps, out, ref).ok


def test_ratio_steps_matches_smooth_to_ratio():
    for n in (51, 101, 201, 401):
        curve = inputs.sine_noise(n, np.random.default_rng(0))
        out = rgsmooth.smooth_to_ratio(rgsmooth.Polyline(curve), 90).output
        assert out.n_points == n - ratio_steps(n, 90)


def test_inputs_repeat_for_a_seed():
    a, b = inputs.short_stream(3, 50), inputs.short_stream(3, 50)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(inputs.long_track(1), inputs.long_track(2))
    lengths = [c.shape[0] for c in inputs.short_stream(3, 24)]
    assert sorted(set(lengths)) == [51, 101, 201, 401]


def test_csv_input_round_trips_exactly(tmp_path):
    curve = inputs.sine_noise(50, np.random.default_rng(1))
    path = tmp_path / "in.csv"
    path.write_bytes(inputs.csv_bytes(curve))
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), curve)


def test_self_times_on_synthetic_tree():
    spans = [
        [0, "job", 0, 100, None, 0, 0, 0],
        [1, "a", 10, 30, 0, 0, 0, 0],
        [2, "b", 40, 70, 0, 0, 0, 0],
        [3, "c", 45, 50, 2, 0, 0, 0],
        [4, "c", 60, 61, 2, 0, 0, 0],
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 24, 3: 5, 4: 1}
    assert tracing.nesting_faults(spans) == 0
    # Overlapping or escaping children are covered once and reported.
    bad = [[0, "p", 0, 100, None, 0, 0, 0], [1, "x", 10, 40, 0, 0, 0, 0],
           [2, "y", 30, 60, 0, 0, 0, 0], [3, "z", 90, 120, 0, 0, 0, 0]]
    assert tracing.self_times(bad)[0] == 100 - 50 - 10
    assert tracing.nesting_faults(bad) == 2


def test_layer_metrics_count_passes_and_restore():
    original = rgsmooth.smooth
    curve = inputs.sine_noise(50, np.random.default_rng(2))
    tracer = tracing.Tracer(job=0)
    with tracing.installed(tracer):
        root = tracer.open("job")
        rgsmooth.smooth_to_ratio(rgsmooth.Polyline(curve), 20)  # 10 passes
        tracer.close(root)
    assert rgsmooth.smooth is original and rgsmooth.smoothing.smooth is original
    assert rgsmooth.chain.Polyline.__post_init__.__name__ == "__post_init__"
    assert tracing.nesting_faults(tracer.spans) == 0
    m = tracing.layer_metrics(tracer.spans, jobs=1)
    assert m["smoothing.passes"] == 10
    assert m["rescale.rescale_fractional_calls"] == 10
    assert m["smoothing.ns_per_point_pass"] > 0
    assert m["smoothing.smooth_to_ratio_s"] >= m["smoothing.smooth_s"] > m["rescale.rescale_fractional_s"]
    assert m["io.read_points_s"] == 0


def test_corrupted_outputs_fail_their_check():
    curve = inputs.sine_noise(101, np.random.default_rng(4))
    ref = reference_smooth(curve, 30)
    good = rgsmooth.smooth(rgsmooth.Polyline(curve), 30).output.points
    assert check_points(curve, 30, good, ref).ok
    shifted = good.copy()
    shifted[35, 1] += 10 * TOLERANCE * extent(curve)
    first = good.copy()
    first[0, 0] = np.nextafter(first[0, 0], 1.0)
    for bad in (shifted, first, good[:-1], ValueError("boom")):
        assert not check_points(curve, 30, bad, ref).ok


def test_cli_check_rejects_bad_exit_and_svg(tmp_path):
    curve = inputs.sine_noise(60, np.random.default_rng(5))
    ref = reference_smooth(curve, 20)
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    csv_path.write_bytes(inputs.csv_bytes(ref))
    svg_path.write_text("<svg><polyline/><polyline/></svg>")
    assert check_cli(0, csv_path, svg_path, curve, 20, ref).ok
    assert not check_cli(2, csv_path, svg_path, curve, 20, ref).ok
    svg_path.write_text("<svg><polyline/></svg>")
    assert not check_cli(0, csv_path, svg_path, curve, 20, ref).ok


class Corrupting(workloads.ManyShort):
    """Every third job returns a perturbed curve; every fifth raises."""

    def job(self, i):
        if i % 5 == 4:
            raise RuntimeError("injected")
        out = super().job(i)
        if i % 3 == 2:
            out = out + 1e-3
        return out


def test_corrupted_jobs_are_counted_as_failed():
    workload = Corrupting(seed=1, work_dir="")
    workload.pool  # build the inputs before the clock starts
    loop = run.timed_loop(workload, seconds=0.1)
    indices = [i for i, _ in loop["outputs"]]
    assert len(indices) >= 5
    failed = sum(not workload.check(i, out).ok for i, out in loop["outputs"])
    assert failed == sum(i % 5 == 4 or i % 3 == 2 for i in indices)
