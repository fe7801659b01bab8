"""
Smoothing a noisy 3-D trajectory
================================

Nothing in the algorithm refers to the number of dimensions: every pass
acts on each coordinate axis independently.  Here a noisy helix is
smoothed as a whole and axis by axis, with bit-identical results, and
the endpoints stay pinned.
"""

from pathlib import Path

import numpy as np

from rgsmooth import Polyline, emit_svg, smooth

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

rng = np.random.default_rng(11)
t = np.linspace(0.0, 4.0 * np.pi, 121)
helix = np.column_stack([np.cos(t), np.sin(t), 0.15 * t])
noisy = Polyline(helix + rng.normal(0.0, 0.08, size=helix.shape))

result = smooth(noisy, steps=90)
print(f"{noisy.n_points} noisy points -> {result.output.n_points} points "
      f"(c.r. {result.trace.steps[-1].compression_ratio_pct:.1f}%)")

first_in, last_in = noisy.points[0], noisy.points[-1]
first_out, last_out = result.output.points[0], result.output.points[-1]
print("first point moved by", np.abs(first_out - first_in).max())
print("last point moved by ", np.abs(last_out - last_in).max())

# Per-axis smoothing of the three 1-D signals gives the same curve,
# down to the last bit.
per_axis = np.column_stack(
    [smooth(Polyline(noisy.points[:, c]), 90).output.points[:, 0] for c in range(3)]
)
print("whole == per-axis:", per_axis.tobytes() == result.output.points.tobytes())

# Two projections of the overlay.
(out_dir / "helix_xy.svg").write_bytes(emit_svg(noisy, result.output, axes=(0, 1)))
(out_dir / "helix_xz.svg").write_bytes(emit_svg(noisy, result.output, axes=(0, 2)))
print(f"projections written to {out_dir}/")
