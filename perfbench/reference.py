"""Independent float64 reference and the output checks built on it.

One pass of the paper's overlap rule over m segments (factor m/(m-1))
is, in point form, linear interpolation of the polyline at the index
positions t_k = k*m/(m-1), k = 0..m-1: new point k is
P[k] + k/(m-1) * (P[k+1] - P[k]).  ``test_harness.py`` checks this
against an exact rational evaluation of the overlap weights.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# Largest accepted deviation from the reference, as a share of the curve
# extent (the widest per-axis range of the input).  Float rounding of the
# tangent-chain smoother stays near 1e-13 at 1000 passes over 10^4 points.
TOLERANCE = 1e-9


@dataclasses.dataclass(frozen=True)
class Check:
    ok: bool
    reason: str = ""
    rel_err: float = 0.0


def reference_smooth(points: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` one-point-removal passes of the overlap rule, float64."""
    p = np.array(points, dtype=np.float64)
    for _ in range(steps):
        m = p.shape[0] - 1
        w = (np.arange(m) / (m - 1))[:, None]
        p = p[:-1] + w * (p[1:] - p[:-1])
    return p


def ratio_steps(n_points: int, target_pct: int) -> int:
    """Passes ``smooth_to_ratio`` must make: ceil(n_points * target / 100)."""
    return -(-n_points * target_pct // 100)


def check_points(inp: np.ndarray, steps: int, out, ref: np.ndarray) -> Check:
    """Point count n - steps, first point bit-identical, and every point
    within TOLERANCE * extent of the reference ``ref``."""
    if not isinstance(out, np.ndarray):
        return Check(False, f"job raised {out!r}")
    expected = (inp.shape[0] - steps, inp.shape[1])
    if out.shape != expected:
        return Check(False, f"output shape {out.shape}, expected {expected}")
    if out[0].tobytes() != inp[0].tobytes():
        return Check(False, f"first point {out[0].tolist()} differs from input {inp[0].tolist()}")
    extent = float(np.max(np.ptp(inp, axis=0)))
    rel_err = float(np.max(np.abs(out - ref))) / extent
    if not rel_err <= TOLERANCE:
        return Check(False, f"deviation {rel_err:.3g} of extent exceeds {TOLERANCE:g}", rel_err)
    return Check(True, rel_err=rel_err)


def check_cli(exit_code: int, csv_path, svg_path, inp: np.ndarray, steps: int, ref: np.ndarray) -> Check:
    """Exit code 0, an SVG with exactly two polylines, and a CSV (parsed
    with numpy, not rgsmooth) that passes :func:`check_points`."""
    if exit_code != 0:
        return Check(False, f"exit code {exit_code}")
    try:
        with open(svg_path, encoding="utf-8") as fh:
            polylines = fh.read().count("<polyline")
        out = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return Check(False, f"unreadable output: {exc}")
    if polylines != 2:
        return Check(False, f"SVG has {polylines} polyline elements, expected 2")
    return check_points(inp, steps, out, ref)
