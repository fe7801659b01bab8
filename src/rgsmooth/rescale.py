"""Segment-merging coefficients and one-pass rescaling of tangent chains.

One rescaling pass with merge factor ``f`` replaces a chain of ``n_old``
tangents by ``floor(n_old / f)`` new ones.  New tangent k is the weighted
sum of the old tangents overlapping the interval [k*f, (k+1)*f] on the
chain's index axis, where old tangent j occupies [j, j+1]:

    w(k, j) = max(0, min((k+1)*f, j+1) - max(k*f, j))

Weights are exact rationals.  For f = a/b (reduced) everything lives on
the integer lattice of 1/b ticks: new segment k covers ticks
[k*a, (k+1)*a), old segment j covers [j*b, (j+1)*b), and w(k, j) is the
tick overlap divided by b.  No rational reduction is needed in the inner
loop, and coefficient matrices are bit-reproducible.

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


def _as_fraction(factor) -> Fraction:
    if isinstance(factor, Fraction):
        return factor
    if isinstance(factor, int):
        return Fraction(factor)
    raise InvalidScalingError(
        f"merge factor must be an exact Fraction or int, got {type(factor).__name__}"
    )


def _check_fractional(factor) -> Fraction:
    f = _as_fraction(factor)
    if not Fraction(1) < f <= Fraction(2):
        raise InvalidScalingError(f"merge factor must lie in (1, 2], got {f}")
    return f


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
    """Tick geometry of every row, vectorized on the 1/den lattice.

    Returns (first, counts) where row k overlaps old segments
    first[k], first[k]+1 (and first[k]+2 when counts[k, 2] > 0) with tick
    counts counts[k].  Each row spans 2 or 3 old segments because the
    factor num/den lies in (1, 2].
    """
    n_new = _n_new(n_old, num, den)
    k = np.arange(n_new, dtype=np.int64)
    start = k * num
    end = start + num
    first = start // den
    last = (end - 1) // den
    counts = np.zeros((n_new, 3), dtype=np.int64)
    counts[:, 0] = (first + 1) * den - start
    span = last - first  # 1 or 2
    t_last = end - last * den
    counts[:, 1] = np.where(span == 1, t_last, den)
    counts[:, 2] = np.where(span == 2, t_last, 0)
    return first, counts


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
    num, den = f.numerator, f.denominator
    first, counts = _lattice_rows(n_old, num, den)
    rows = []
    for k in range(first.shape[0]):
        j = int(first[k])
        entries = [(j, Fraction(int(counts[k, 0]), den)), (j + 1, Fraction(int(counts[k, 1]), den))]
        if counts[k, 2]:
            entries.append((j + 2, Fraction(int(counts[k, 2]), den)))
        rows.append(CoefficientRow(entries=tuple(entries)))
    return CoefficientMatrix(rows=tuple(rows), n_old=n_old, n_new=len(rows), factor=f)


def _apply_lattice(tangents: NDArray[np.float64], first, counts, den: int) -> NDArray[np.float64]:
    """Multiply-accumulate of one pass; weights become floats here.

    Each weight is rounded exactly once (counts / den is a correctly
    rounded division) and terms are added in ascending old-index order,
    so results are bit-reproducible.  The third term is only added where
    a row really spans three old segments, keeping two-segment rows
    bitwise identical to a plain pairwise sum.
    """
    w = counts / float(den)
    out = w[:, 0:1] * tangents[first] + w[:, 1:2] * tangents[first + 1]
    three = counts[:, 2] > 0
    if three.any():
        out[three] += w[three, 2:3] * tangents[first[three] + 2]
    return out


def _merge(tangents: NDArray[np.float64], num: int, den: int) -> NDArray[np.float64]:
    """Tangents after one pass at the factor ``num / den``, in (1, 2] and reduced.

    The array kernel of :func:`rescale_fractional`, without the factor
    check or the chain wrapper, for callers that have checked both.
    """
    first, counts = _lattice_rows(tangents.shape[0], num, den)
    return _apply_lattice(tangents, first, counts, den)


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
