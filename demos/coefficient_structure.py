"""
Anatomy of one rescaling pass
=============================

A pass with merge factor f replaces n segments by floor(n / f) new ones.
New segment k covers the interval [k*f, (k+1)*f] on the chain's index
axis, and its weight on old segment j is the length of overlap with
[j, j+1].  All weights are exact rationals, every row sums to exactly f,
and when n / f is an integer every column sums to exactly 1 (nothing is
lost).  When n / f is not an integer the tail of the chain is dropped.

The last part composes s passes of the smoothing driver into one weight
matrix and prints the width and spread of its middle row.  Beside it, it
prints the spread that the exact law gives near the first endpoint and in
the middle: for N input segments and M = N - s left, output k has variance
N*s*k*(M - k) / (M^2 * (M + 1)), so the ends are smoothed much less.
"""

from fractions import Fraction

import numpy as np

from rgsmooth import Polyline, overlap_coefficients, smooth

# The canonical example: 7 segments merged at factor 4/3.
m = overlap_coefficients(7, Fraction(4, 3))
print(f"7 segments at factor {m.factor}: {m.n_new} new segments")
for k, row in enumerate(m.rows):
    terms = " + ".join(f"{w} * t{j + 1}" for j, w in row.entries)
    print(f"  new t{k + 1} = {terms}    (row sum {sum(w for _, w in row.entries)})")
print("column sums:", ", ".join(str(s) for s in m.column_sums()))
print("7 / (4/3) is not an integer, so the last third of t7 is lost.\n")

# Full coverage: 4 segments at the same factor consume everything.
m4 = overlap_coefficients(4, Fraction(4, 3))
print(f"4 segments at factor {m4.factor}: column sums", list(map(str, m4.column_sums())))

# The dense float view of a matrix, handy for inspection.
print("\ndense matrix for 5 segments at 5/4:")
print(overlap_coefficients(5, Fraction(5, 4)).to_dense())

# s passes at once.  smooth is linear and treats each axis on its own, so
# smoothing the n x n identity gives the exact weight matrix of s passes:
# row k holds the weights of the input points in output point k.  Each row
# is a window of at most s + 1 neighbouring inputs, centred on k * N / (N - s).
n = 1001
for s in (10, 100):
    W = smooth(Polyline(np.eye(n)), s).output.points
    N, M = n - 1, n - 1 - s
    k = M // 2
    row = W[k]
    support = np.flatnonzero(row > 1e-12)  # float noise of the passes is ~1e-15
    j = np.arange(n)
    centre = row @ j
    sd = np.sqrt(row @ (j - centre) ** 2)
    print(f"\n{s} passes on {n} points, middle row {k}: centre {centre:.4f} "
          f"(k*N/M = {k * N / M:.4f}), window {support[0]}..{support[-1]} "
          f"({support.size} inputs, at most {s + 1}), standard deviation {sd:.3f} samples")
    ks = np.array([1, 5, k])
    sigma = np.sqrt(N * s * ks * (M - ks) / (M * M * (M + 1)))
    print(f"  standard deviation from the law: {sigma[0]:.3f} at k = 1, "
          f"{sigma[1]:.3f} at k = 5, {sigma[2]:.3f} at the middle row")
