"""Segment-merging coefficients and one-pass rescaling of tangent chains.

One rescaling pass with merge factor ``f`` replaces a chain of ``n_old``
tangents by ``floor(n_old / f)`` new ones.  New tangent k is the weighted
sum of the old tangents overlapping the interval [k*f, (k+1)*f] on the
chain's index axis, where old tangent j occupies [j, j+1]:

    w(k, j) = max(0, min((k+1)*f, j+1) - max(k*f, j))

Weights are exact rationals.  For f = a/b (reduced) everything lives on
the integer lattice of 1/b ticks: new segment k covers ticks
[k*a, (k+1)*a), old segment j covers [j*b, (j+1)*b), and w(k, j) is the
tick overlap divided by b.  Because 1 < f <= 2, row k meets at most three
old segments, starting at first = k*a // b, with tick counts

    c0 = (first+1)*b - k*a,   c1 = min(b, a - c0),   c2 = a - c0 - c1.

No rational reduction is needed in the inner loop, and coefficient
matrices are bit-reproducible.

Integer factors are handled separately by :func:`rescale_integer`, which
simply sums consecutive runs of tangents.  Fractional factors must lie in
(1, 2]; when n_old / f is not an integer the uncovered tail of the chain
is dropped entirely.
"""

from __future__ import annotations

import dataclasses
import operator
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .chain import TangentChain, _as_int
from .errors import ChainTooShortError, InvalidInputError, InvalidScalingError


@dataclasses.dataclass(frozen=True)
class CoefficientRow:
    """Sparse weights defining one new tangent.

    ``entries`` holds (old_index, weight) pairs over a consecutive run of
    old segments, in ascending index order.  Weights are in (0, 1] and sum
    to the merge factor.
    """

    entries: tuple[tuple[int, Fraction], ...]


@dataclasses.dataclass(frozen=True)
class CoefficientMatrix:
    """All rows of one rescaling pass, with its exact merge factor.

    ``n_new == floor(n_old / factor)``.  When ``n_old / factor`` is an
    integer every old segment is consumed exactly once (each column sums
    to 1); otherwise trailing old segments are left uncovered and the
    pass shortens the chain's tail.
    """

    rows: tuple[CoefficientRow, ...]
    n_old: int
    n_new: int
    factor: Fraction

    def column_sums(self) -> tuple[Fraction, ...]:
        """Total weight applied to each old segment, as exact rationals."""
        sums = [Fraction(0)] * self.n_old
        for row in self.rows:
            for j, w in row.entries:
                sums[j] += w
        return tuple(sums)

    def to_dense(self) -> NDArray[np.float64]:
        """Float (n_new, n_old) matrix; weights rounded once per entry."""
        dense = np.zeros((self.n_new, self.n_old), dtype=np.float64)
        for k, row in enumerate(self.rows):
            for j, w in row.entries:
                dense[k, j] = float(w)
        return dense


def _check_fractional(factor) -> Fraction:
    if isinstance(factor, int):
        factor = Fraction(factor)
    if not isinstance(factor, Fraction):
        raise InvalidScalingError(
            f"merge factor must be an exact Fraction or int, got {type(factor).__name__}"
        )
    if not Fraction(1) < factor <= Fraction(2):
        raise InvalidScalingError(f"merge factor must lie in (1, 2], got {factor}")
    return factor


def _check_n_old(n_old: int) -> int:
    n_old = _as_int(n_old, "segment count")
    if n_old < 1:
        raise InvalidInputError(f"segment count must be positive, got {n_old}")
    return n_old


def _n_new(n_old: int, num: int, den: int) -> int:
    n_new = (n_old * den) // num
    if n_new < 1:
        raise ChainTooShortError(
            f"cannot merge {n_old} segments by a factor of {Fraction(num, den)}"
        )
    return n_new


def _lattice_rows(n_old: int, num: int, den: int):
    """Tick counts of every row, in closed form on the 1/den lattice.

    Row k covers ticks [start, start + num) with start = k*num, and its
    first old segment is first = start // den.  Its ``num`` ticks fall
    into at most three old segments:

        c0 = (first+1)*den - start   the rest of segment ``first``
        c1 = min(den, num - c0)      segment first+1, at most all of it
        c2 = num - c0 - c1           segment first+2, often 0

    c0 and c1 are at least 1 because num/den lies in (1, 2].  Returns
    (first, counts) with counts[k] = (c0, c1, c2).
    """
    start = np.arange(_n_new(n_old, num, den), dtype=np.int64) * num
    first = start // den
    c0 = (first + 1) * den - start
    c1 = np.minimum(den, num - c0)
    return first, np.stack([c0, c1, num - c0 - c1], axis=1)


def overlap_coefficients(n_old: int, factor) -> CoefficientMatrix:
    """Exact coefficient matrix for one pass at a fractional merge factor.

    Parameters
    ----------
    n_old : number of segments before the pass, at least 1.
    factor : exact rational merge factor in (1, 2].

    Raises
    ------
    InvalidScalingError : factor outside (1, 2] or not exact.
    ChainTooShortError : ``floor(n_old / factor)`` is zero.
    """
    f = _check_fractional(factor)
    n_old = _check_n_old(n_old)
    den = f.denominator
    first, counts = _lattice_rows(n_old, f.numerator, den)
    rows = tuple(
        CoefficientRow(entries=tuple((j + i, Fraction(c, den)) for i, c in enumerate(cs) if c))
        for j, cs in zip(first.tolist(), counts.tolist())
    )
    return CoefficientMatrix(rows=rows, n_old=n_old, n_new=len(rows), factor=f)


def _merge(tangents: NDArray[np.float64], num: int, den: int) -> NDArray[np.float64]:
    """Tangents after one pass at the factor ``num / den``, in (1, 2] and reduced.

    The array kernel of :func:`rescale_fractional`, for callers that have
    checked the factor.  Each weight is rounded once (counts / den) and
    terms are added in ascending old-index order, so results are
    bit-reproducible.  The third term is added only where a row spans
    three old segments, so two-segment rows are a plain pairwise sum.
    """
    first, counts = _lattice_rows(tangents.shape[0], num, den)
    w = counts / float(den)
    out = w[:, 0:1] * tangents[first]
    out += w[:, 1:2] * tangents[first + 1]
    three = counts[:, 2] > 0
    if three.any():
        out[three] += w[three, 2:3] * tangents[first[three] + 2]
    return out


def rescale_fractional(chain: TangentChain, factor) -> TangentChain:
    """One rescaling pass of a tangent chain at a fractional merge factor.

    The base point is unchanged; the new chain has ``floor(n / factor)``
    tangents, each the overlap-weighted sum of consecutive old tangents.
    Acts on every coordinate axis independently.
    """
    f = _check_fractional(factor)
    return TangentChain(base=chain.base, tangents=_merge(chain.tangents, f.numerator, f.denominator))


def rescale_integer(chain: TangentChain, factor: int) -> TangentChain:
    """One coarse pass summing each run of ``factor`` consecutive tangents.

    The new chain connects every ``factor``-th vertex of the old one; the
    trailing ``n mod factor`` segments are discarded.  Factors above 2 are
    allowed here even though the smoothing driver never uses them.
    """
    try:
        factor = operator.index(factor)
    except TypeError:
        raise InvalidScalingError(f"integer merge factor required, got {factor!r}") from None
    if factor < 2:
        raise InvalidScalingError(f"integer merge factor must be at least 2, got {factor}")
    n_new = chain.n_segments // factor
    if n_new < 1:
        raise ChainTooShortError(f"cannot merge {chain.n_segments} segments by a factor of {factor}")
    t = chain.tangents
    acc = t[0 : n_new * factor : factor]
    for offset in range(1, factor):
        acc = acc + t[offset : n_new * factor : factor]
    return TangentChain(base=chain.base, tangents=acc)
