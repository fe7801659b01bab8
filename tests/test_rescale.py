"""Tests for overlap coefficients and one-pass rescaling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgsmooth import (
    ChainTooShortError,
    InvalidScalingError,
    TangentChain,
    overlap_coefficients,
    rescale_fractional,
    rescale_integer,
)

from oracles import brute_force_coefficients


def entries(matrix):
    return [row.entries for row in matrix.rows]


def reduced_factors(max_den=12):
    """All reduced a/b in (1, 2] with b <= max_den."""
    out = []
    for b in range(1, max_den + 1):
        for a in range(b + 1, 2 * b + 1):
            if math.gcd(a, b) == 1:
                out.append(Fraction(a, b))
    return out


factor_strategy = st.sampled_from(reduced_factors())


class TestOverlapCoefficients:
    def test_seven_segments_four_thirds(self):
        m = overlap_coefficients(7, Fraction(4, 3))
        assert m.n_new == 5
        assert entries(m)[:3] == [
            ((0, Fraction(1)), (1, Fraction(1, 3))),
            ((1, Fraction(2, 3)), (2, Fraction(2, 3))),
            ((2, Fraction(1, 3)), (3, Fraction(1))),
        ]
        # Trailing rows continue the same overlap rule.
        assert entries(m)[3:] == [
            ((4, Fraction(1)), (5, Fraction(1, 3))),
            ((5, Fraction(2, 3)), (6, Fraction(2, 3))),
        ]

    def test_four_segments_four_thirds_full_coverage(self):
        m = overlap_coefficients(4, Fraction(4, 3))
        assert m.n_new == 3
        assert m.column_sums() == (Fraction(1),) * 4

    def test_two_segments_factor_two(self):
        m = overlap_coefficients(2, Fraction(2))
        assert entries(m) == [((0, Fraction(1)), (1, Fraction(1)))]

    def test_integer_factor_argument_accepted(self):
        assert overlap_coefficients(2, 2) == overlap_coefficients(2, Fraction(2))

    @pytest.mark.parametrize("bad", [Fraction(1), Fraction(5, 2), Fraction(99, 100), 3])
    def test_factor_outside_interval_rejected(self, bad):
        with pytest.raises(InvalidScalingError):
            overlap_coefficients(10, bad)

    def test_float_factor_rejected(self):
        with pytest.raises(InvalidScalingError):
            overlap_coefficients(10, 1.5)

    def test_chain_too_short(self):
        with pytest.raises(ChainTooShortError):
            overlap_coefficients(1, Fraction(4, 3))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=40), factor_strategy)
    def test_row_sums_equal_factor(self, n_old, factor):
        if (n_old * factor.denominator) // factor.numerator < 1:
            return
        m = overlap_coefficients(n_old, factor)
        assert m.n_new == (n_old * factor.denominator) // factor.numerator
        for row in m.rows:
            assert sum(w for _, w in row.entries) == factor
            assert all(Fraction(0) < w <= Fraction(1) for _, w in row.entries)
            idx = tuple(j for j, _ in row.entries)
            assert idx == tuple(range(idx[0], idx[0] + len(idx)))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=12), factor_strategy)
    def test_column_sums_one_at_full_coverage(self, m_new, factor):
        # Choose n_old so that n_old / factor is an integer by construction.
        n_old = m_new * factor.numerator
        if n_old % factor.denominator:
            return
        n_old //= factor.denominator
        mat = overlap_coefficients(n_old, factor)
        assert mat.column_sums() == (Fraction(1),) * n_old


class TestBruteForceOracle:
    def test_matches_worked_rows(self):
        m = brute_force_coefficients(7, Fraction(4, 3))
        assert entries(m)[0] == ((0, Fraction(1)), (1, Fraction(1, 3)))

    def test_matches_closed_form_small(self):
        assert brute_force_coefficients(4, Fraction(4, 3)) == overlap_coefficients(
            4, Fraction(4, 3)
        )

    def test_factor_two(self):
        assert entries(brute_force_coefficients(2, Fraction(2))) == [
            ((0, Fraction(1)), (1, Fraction(1)))
        ]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=20), factor_strategy)
    def test_equivalence_random(self, n_old, factor):
        if (n_old * factor.denominator) // factor.numerator < 1:
            with pytest.raises(ChainTooShortError):
                overlap_coefficients(n_old, factor)
            with pytest.raises(ChainTooShortError):
                brute_force_coefficients(n_old, factor)
        else:
            assert overlap_coefficients(n_old, factor) == brute_force_coefficients(
                n_old, factor
            )


class TestRescaleFractional:
    def test_worked_example(self):
        chain = TangentChain(base=(0.0, 0.0), tangents=[(1, 0), (0, 3), (3, 0), (0, 1)])
        out = rescale_fractional(chain, Fraction(4, 3))
        assert np.array_equal(out.tangents, [(1, 1), (2, 2), (1, 1)])
        assert np.array_equal(out.base, chain.base)

    def test_constant_field_scales_by_factor(self):
        v = np.array([0.5, -2.0, 1.0])
        chain = TangentChain(base=np.zeros(3), tangents=np.tile(v, (4, 1)))
        out = rescale_fractional(chain, Fraction(4, 3))
        np.testing.assert_allclose(out.tangents, np.tile(v * (4 / 3), (3, 1)), rtol=1e-15)

    def test_repeated_floor_rule_counts(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((7, 1)))
        once = rescale_fractional(chain, Fraction(4, 3))
        twice = rescale_fractional(once, Fraction(4, 3))
        assert (once.n_segments, twice.n_segments) == (5, 3)

    def test_matches_dense_matrix_product(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(11, 2))
        chain = TangentChain(base=np.zeros(2), tangents=t)
        m = overlap_coefficients(11, Fraction(7, 5))
        out = rescale_fractional(chain, Fraction(7, 5))
        np.testing.assert_allclose(out.tangents, m.to_dense() @ t, rtol=0, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(9, 3))
        b = rng.normal(size=(9, 3))
        alpha = 0.37
        f = Fraction(5, 4)
        base = np.zeros(3)
        lhs = rescale_fractional(TangentChain(base, alpha * a + b), f).tangents
        rhs = (
            alpha * rescale_fractional(TangentChain(base, a), f).tangents
            + rescale_fractional(TangentChain(base, b), f).tangents
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_axis_independence_bit_identical(self):
        rng = np.random.default_rng(23)
        t = rng.normal(size=(17, 3))
        f = Fraction(9, 7)
        whole = rescale_fractional(TangentChain(np.zeros(3), t), f).tangents
        per_axis = np.column_stack(
            [
                rescale_fractional(TangentChain(np.zeros(1), t[:, c : c + 1]), f).tangents[:, 0]
                for c in range(3)
            ]
        )
        assert whole.tobytes() == per_axis.tobytes()

    def test_collinear_tangents_stay_collinear(self):
        v = np.array([2.0, 1.0])
        scales = np.array([0.5, 3.0, 1.0, 2.0, 0.25])[:, None]
        chain = TangentChain(base=np.zeros(2), tangents=scales * v)
        out = rescale_fractional(chain, Fraction(5, 4)).tangents
        cross = out[:, 0] * v[1] - out[:, 1] * v[0]
        np.testing.assert_allclose(cross, 0.0, atol=1e-14)

    def test_conservation_at_full_coverage(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.1, 1.0, size=(12, 2))
        out = rescale_fractional(TangentChain(np.zeros(2), t), Fraction(6, 5))
        np.testing.assert_allclose(
            out.tangents.sum(axis=0), t.sum(axis=0), rtol=1e-13, atol=0
        )

    def test_propagates_validation_errors(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((4, 1)))
        with pytest.raises(InvalidScalingError):
            rescale_fractional(chain, Fraction(3))
        short = TangentChain(base=(0.0,), tangents=np.ones((1, 1)))
        with pytest.raises(ChainTooShortError):
            rescale_fractional(short, Fraction(4, 3))


class TestRescaleInteger:
    def test_halving_cascade_7_3_1(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((7, 1)))
        once = rescale_integer(chain, 2)
        twice = rescale_integer(once, 2)
        assert (once.n_segments, twice.n_segments) == (3, 1)

    def test_pairwise_sums(self):
        chain = TangentChain(base=(0.0, 0.0), tangents=[(1, 0), (0, 1), (1, 0), (0, 1)])
        out = rescale_integer(chain, 2)
        assert np.array_equal(out.tangents, [(1, 1), (1, 1)])

    def test_odd_count_drops_tail(self):
        t = np.arange(10.0).reshape(5, 2)
        out = rescale_integer(TangentChain(np.zeros(2), t), 2)
        assert out.n_segments == 2
        assert np.array_equal(out.tangents, [t[0] + t[1], t[2] + t[3]])

    def test_factor_three_allowed(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((7, 1)))
        out = rescale_integer(chain, 3)
        assert out.n_segments == 2
        assert np.array_equal(out.tangents, [[3.0], [3.0]])

    def test_factor_below_two_rejected(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((4, 1)))
        with pytest.raises(InvalidScalingError):
            rescale_integer(chain, 1)

    def test_float_factor_rejected(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((4, 1)))
        with pytest.raises(InvalidScalingError):
            rescale_integer(chain, 2.0)

    def test_too_short(self):
        chain = TangentChain(base=(0.0,), tangents=np.ones((1, 1)))
        with pytest.raises(ChainTooShortError):
            rescale_integer(chain, 2)

    def test_matches_fractional_at_factor_two_bitwise(self):
        rng = np.random.default_rng(17)
        t = rng.normal(size=(8, 3))
        chain = TangentChain(np.zeros(3), t)
        a = rescale_integer(chain, 2).tangents
        b = rescale_fractional(chain, Fraction(2)).tangents
        assert a.tobytes() == b.tobytes()
