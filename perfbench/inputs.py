"""Seeded benchmark inputs, made with numpy alone.

Nothing here calls rgsmooth, so a change to the package cannot change the
data it is measured on.  The sine-noise curve follows the recipe of
``rgsmooth generate --kind sine-noise``: x = linspace(0, 20, n) and
y = sin(x) plus normal noise (sigma 0.3) from a PCG64 generator.
"""

from __future__ import annotations

import numpy as np

X_MAX = 20.0
SIGMA = 0.3

LONG_TRACK_POINTS = 10001
CLI_FILE_POINTS = 100001
WARMUP_SHORT_POINTS = 101

# Lengths of the many_short stream with their weight in each shuffled
# round (each weight is used once per curve kind).  The cumulative shares
# 25 / 58 / 83 / 100 % put the median job inside the 101-point class and
# the 90th percentile inside the 401-point class, so neither statistic
# sits on a class boundary where the seed's shuffle could flip it.
SHORT_MIX = ((51, 3), (101, 4), (201, 3), (401, 2))
SHORT_POOL = 4096


def sine_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    x = np.linspace(0.0, X_MAX, n)
    return np.column_stack([x, np.sin(x) + rng.normal(0.0, SIGMA, n)])


def helix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Three turns of a unit helix rising one unit per turn, with noise."""
    t = np.linspace(0.0, 6.0 * np.pi, n)
    pts = np.column_stack([np.cos(t), np.sin(t), t / (2.0 * np.pi)])
    return pts + rng.normal(0.0, 0.05, (n, 3))


def long_track(seed: int) -> np.ndarray:
    return sine_noise(LONG_TRACK_POINTS, np.random.default_rng(seed))


def cli_curve(seed: int) -> np.ndarray:
    return sine_noise(CLI_FILE_POINTS, np.random.default_rng(seed))


def short_warmup(seed: int) -> np.ndarray:
    return sine_noise(WARMUP_SHORT_POINTS, np.random.default_rng(seed))


def short_stream(seed: int, count: int = SHORT_POOL) -> list[np.ndarray]:
    """``count`` curves in rounds that each hold every (length, kind) of
    SHORT_MIX as often as its weight, shuffled per round."""
    rng = np.random.default_rng(seed)
    shapes = [(n, kind) for n, w in SHORT_MIX for kind in (sine_noise, helix) for _ in range(w)]
    curves: list[np.ndarray] = []
    while len(curves) < count:
        for i in rng.permutation(len(shapes)):
            n, kind = shapes[i]
            curves.append(kind(n, rng))
    return curves[:count]


def csv_bytes(points: np.ndarray) -> bytes:
    """CSV with one point per row, shortest round-trip floats, LF endings."""
    return "".join(",".join(map(repr, row)) + "\n" for row in points.tolist()).encode()
