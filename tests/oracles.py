"""Independent reference implementations that the tests compare against.

They are slow by design and live here, not in the package.
"""

from fractions import Fraction

from rgsmooth import CoefficientMatrix, CoefficientRow
from rgsmooth.rescale import _check_fractional, _check_n_old, _n_new


def brute_force_coefficients(n_old: int, factor) -> CoefficientMatrix:
    """Same matrix as ``overlap_coefficients``, by tick enumeration.

    Walks every 1/den tick of the chain, assigns it to the new segment
    containing it, and aggregates tick counts per old segment.  Serves as
    an independent cross-check of the closed-form overlap rule.
    """
    f = _check_fractional(factor)
    n_old = _check_n_old(n_old)
    num, den = f.numerator, f.denominator
    n_new = _n_new(n_old, num, den)
    rows = []
    for k in range(n_new):
        ticks: dict[int, int] = {}
        for t in range(k * num, (k + 1) * num):
            j = t // den
            ticks[j] = ticks.get(j, 0) + 1
        entries = tuple((j, Fraction(c, den)) for j, c in sorted(ticks.items()))
        rows.append(CoefficientRow(entries=entries))
    return CoefficientMatrix(rows=tuple(rows), n_old=n_old, n_new=n_new, factor=f)


def exact_smooth(points, steps: int) -> list[list[Fraction]]:
    """``smooth`` in exact rational arithmetic, in point form.

    A pass over a curve of m segments puts new point k at index position
    k * m / (m - 1) on the old polyline, by linear interpolation:
    ``P'[k] = P[k] + k / (m - 1) * (P[k + 1] - P[k])`` for k = 0 .. m - 1,
    so the last new point is the old last point.  Denominators grow with
    every pass, so keep curves short (n <= ~40).
    """
    pts = [[Fraction(float(c)) for c in p] for p in points]
    for _ in range(steps):
        m = len(pts) - 1
        pts = [
            [a + Fraction(k, m - 1) * (b - a) for a, b in zip(pts[k], pts[k + 1])]
            for k in range(m)
        ]
    return pts
