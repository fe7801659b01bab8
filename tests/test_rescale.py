"""Tests for overlap coefficients and one-pass rescaling."""

import functools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgsmooth import (
    ChainTooShortError,
    InvalidInputError,
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

    @pytest.mark.parametrize("factor", [2, np.int64(2)], ids=["int", "int64"])
    def test_integer_factor_argument_accepted(self, factor):
        m = overlap_coefficients(7, factor)
        assert m == overlap_coefficients(7, Fraction(2))
        assert type(m.factor.numerator) is int

    @pytest.mark.parametrize("bad", [Fraction(1), Fraction(5, 2), Fraction(99, 100), 3, np.int64(3), True])
    def test_factor_outside_interval_rejected(self, bad):
        with pytest.raises(InvalidScalingError):
            overlap_coefficients(10, bad)

    @pytest.mark.parametrize(
        "bad", [1.5, np.float64(1.5), Decimal("1.5"), "3/2", np.array(2)],
        ids=["float", "float64", "decimal", "text", "0-d-array"],
    )
    def test_float_factor_rejected(self, bad):
        message = f"^merge factor must be an exact Fraction or int, got {type(bad).__name__}$"
        with pytest.raises(InvalidScalingError, match=message):
            overlap_coefficients(10, bad)

    def test_chain_too_short(self):
        with pytest.raises(ChainTooShortError):
            overlap_coefficients(1, Fraction(4, 3))

    def test_no_segments_rejected(self):
        with pytest.raises(InvalidInputError, match="segment count must be positive"):
            overlap_coefficients(0, Fraction(4, 3))

    def test_driver_factor_rows_span_two_segments(self):
        # The closed form a two-term pass kernel relies on: at m / (m - 1),
        # row k weighs old segments k and k + 1 by (m-1-k)/(m-1) and (k+1)/(m-1).
        for m in range(2, 301):
            rows = entries(overlap_coefficients(m, Fraction(m, m - 1)))
            assert rows == [
                ((k, Fraction(m - 1 - k, m - 1)), (k + 1, Fraction(k + 1, m - 1)))
                for k in range(m - 1)
            ]

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
        # Driver-sized factors (d+1)/d, beyond the random test's den <= 12, on
        # chains at and around n_old = d + 1, where the rows are closed-form.
        for d in (13, 50, 299):
            f = Fraction(d + 1, d)
            for n_old in (d, d + 1, d + 2, 2 * d + 2, 3 * d + 3):
                assert overlap_coefficients(n_old, f) == brute_force_coefficients(n_old, f)

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

    def test_bit_identical_to_exact_weights_summed_in_order(self):
        # Each weight is rounded once and a row's terms are added in
        # ascending old index, for rows of two segments and of three, and
        # for the driver's pass m / (m - 1) on exactly m tangents.
        rng = np.random.default_rng(9)
        cases = [(n_old, f) for f in reduced_factors() for n_old in range(1, 41)
                 if (n_old * f.denominator) // f.numerator >= 1]
        cases += [(m, Fraction(m, m - 1)) for m in (2, 3, 13, 50, 299, 1001)]
        for n_old, f in cases:
            t = rng.choice([-1.0, 1.0], size=(n_old, 2)) * 10.0 ** rng.uniform(-5, 5, (n_old, 2))
            rows = overlap_coefficients(n_old, f).rows
            expected = np.array(
                [functools.reduce(np.add, [float(w) * t[j] for j, w in row.entries])
                 for row in rows]
            )
            out = rescale_fractional(TangentChain(np.zeros(2), t), f).tangents
            assert out.tobytes() == expected.tobytes(), (n_old, f)

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
        c = rescale_fractional(chain, np.int64(2)).tangents
        assert a.tobytes() == b.tobytes() == c.tobytes()


class TestInt64Ticks:
    # n_old * den ticks overflow int64: 2**62 + 1 over 2**62 wrapped to rows over old
    # segments -2 and -1, and the others raised bare OverflowError or ValueError.
    WRAPS, BEYOND = Fraction(2**62 + 1, 2**62), Fraction(2**70 + 1, 2**70)

    @pytest.mark.parametrize(
        "n_old, factor", [(8, WRAPS), (8, BEYOND), (10**20, 2)], ids=["wraps", "beyond", "count"]
    )
    def test_overlap_coefficients_one_error(self, n_old, factor):
        with pytest.raises(InvalidScalingError, match="overflow int64$"):
            overlap_coefficients(n_old, factor)

    @pytest.mark.parametrize("factor", [WRAPS, BEYOND], ids=["wraps", "beyond"])
    def test_rescale_fractional_one_error(self, factor):
        chain = TangentChain(base=(0.0,), tangents=np.arange(2.0, 10.0)[:, None])
        with pytest.raises(InvalidScalingError, match="overflow int64$"):
            rescale_fractional(chain, factor)

    def test_exact_just_below_the_limit(self):
        n_old, f = 7, Fraction(2**60 + 1, 2**60)  # 7 * 2**60 ticks < 2**63
        expected = [
            tuple((j, w) for j in range(n_old) if (w := min((k + 1) * f, j + 1) - max(k * f, j)) > 0)
            for k in range(6)
        ]
        assert entries(overlap_coefficients(n_old, f)) == expected
