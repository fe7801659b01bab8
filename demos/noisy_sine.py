"""
Smoothing a noisy sine signal
=============================

The classic use case: a 1-D signal sampled on a regular grid, corrupted
by Gaussian noise.  Smoothing removes exactly one point per pass, so the
pass count directly sets the output size, and the compression ratio
comes for free.
"""

from pathlib import Path

import numpy as np

from rgsmooth import emit_svg, smooth
from rgsmooth.cli import generate_points

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# 101 points of sin(x) on [0, 20] plus noise with sigma = 0.3.
curve = generate_points("sine-noise", n_points=101, x_max=20.0, sigma=0.3, seed=7)
x, y = curve.points[:, 0], curve.points[:, 1]
print(f"input: {curve.n_points} points, x spacing {x[1] - x[0]:.3f}")
print(f"input RMSE vs clean curve: {np.sqrt(np.mean((y - np.sin(x)) ** 2)):.4f}")
print()

# Smooth with increasing pass counts.  Endpoints never move; the x grid
# stays regular, only wider.
for steps in (1, 50, 80, 95):
    result = smooth(curve, steps)
    pts = result.output.points
    rmse = np.sqrt(np.mean((pts[:, 1] - np.sin(pts[:, 0])) ** 2))
    final = result.trace[-1]
    print(
        f"steps={steps:3d}: {result.output.n_points:3d} points left, "
        f"c.r.={final.compression_ratio_pct:5.1f}%, "
        f"x spacing {pts[1, 0] - pts[0, 0]:.3f}, RMSE {rmse:.4f}"
    )
    svg_path = out_dir / f"sine_steps_{steps:03d}.svg"
    svg_path.write_bytes(emit_svg(curve, result.output))

print()
print("the first few schedule records of the 95-step run:")
for rec in result.trace[:4]:  # the loop's last run
    print(
        f"  pass {rec.step}: {rec.n_before} -> {rec.n_after} segments, "
        f"factor {rec.factor}, c.r. {rec.compression_ratio_pct:.2f}%"
    )
print(f"overlay plots written to {out_dir}/")
