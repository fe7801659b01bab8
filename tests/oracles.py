"""Independent reference implementations that the tests compare against.

They are slow by design and live here, not in the package.
"""

from fractions import Fraction

from rgsmooth import ChainTooShortError, CoefficientMatrix, CoefficientRow


def brute_force_coefficients(n_old: int, factor) -> CoefficientMatrix:
    """Same matrix as ``overlap_coefficients``, by tick enumeration.

    Counts the chain's n_old * den ticks of size 1/den per old segment,
    one new segment of num ticks at a time, for as long as the next new
    segment ends within the chain.  Serves as an independent cross-check
    of the closed-form overlap rule; it takes the factor as valid.
    """
    f = Fraction(factor)
    num, den = f.numerator, f.denominator
    rows = []
    k = 0
    while (k + 1) * num <= n_old * den:
        ticks: dict[int, int] = {}
        for t in range(k * num, (k + 1) * num):
            j = t // den
            ticks[j] = ticks.get(j, 0) + 1
        entries = tuple((j, Fraction(c, den)) for j, c in sorted(ticks.items()))
        rows.append(CoefficientRow(entries=entries))
        k += 1
    if not rows:
        raise ChainTooShortError(f"cannot merge {n_old} segments by a factor of {f}")
    return CoefficientMatrix(rows=tuple(rows), n_old=n_old, n_new=k, factor=f)


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
