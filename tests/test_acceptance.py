"""End-to-end acceptance checks for the library's numbered contracts.

Every contract is one test that prints a PASS/FAIL line, so the whole
list can be audited with::

    pytest -sv tests/test_acceptance.py

Contract 4's five-value grid is arithmetically unreachable (see the
comment on its test) and is expected to fail; everything else passes.
"""

import math
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from rgsmooth import (
    ChainTooShortError,
    Polyline,
    TangentChain,
    build_chain,
    compression_ratio,
    optimal_scaling,
    overlap_coefficients,
    read_points,
    rescale_fractional,
    rescale_integer,
    smooth,
    write_points,
)
from rgsmooth.cli import generate_points

from oracles import brute_force_coefficients


@contextmanager
def contract(num, label):
    try:
        yield
    except BaseException:
        print(f"contract {num:>3}: FAIL  {label}")
        raise
    print(f"contract {num:>3}: PASS  {label}")


def test_c01_coefficient_rows_at_four_thirds():
    with contract(1, "first three coefficient rows at factor 4/3 are exact"):
        m = overlap_coefficients(7, Fraction(4, 3))
        assert m.rows[0].entries == ((0, Fraction(1)), (1, Fraction(1, 3)))
        assert m.rows[1].entries == ((1, Fraction(2, 3)), (2, Fraction(2, 3)))
        assert m.rows[2].entries == ((2, Fraction(1, 3)), (3, Fraction(1)))


def test_c02_optimal_factor_keeps_count_integral():
    with contract(2, "optimal factor for 4 segments is 4/3 and 4/(4/3) = 3"):
        f = optimal_scaling(4)
        assert f == Fraction(4, 3)
        assert math.floor(4 / f) == 3


def test_c03_one_point_removed_per_step():
    with contract(3, "smoothing removes exactly one point per step"):
        rng = np.random.default_rng(100)
        sizes = [2, 3, 4, 7, 200] + sorted(rng.integers(5, 200, size=10).tolist())
        for n_segments in sizes:
            pts = rng.normal(size=(n_segments + 1, 2))
            p = Polyline(pts)
            # A full-length run's trace exposes the count after every step p.
            full = smooth(p, n_segments - 1)
            for rec in full.trace:
                assert rec.n_after == n_segments - rec.step
            assert full.output.n_segments == 1
            # End-to-end spot checks at sampled step counts.
            for steps in {0, 1, n_segments // 2, n_segments - 1}:
                assert smooth(p, steps).output.n_segments == n_segments - steps


def grid_curve(seed=2024):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 20.0, 101)
    return Polyline(np.column_stack([x, rng.normal(size=101)]))


def test_c04_five_value_grid_after_95_steps():
    # One point is removed per pass, so 95 passes of a 101-point curve
    # leave 6 points, and an equidistant 6-point grid on [0, 20] is
    # 0, 4, 8, 12, 16, 20.  The 5-value grid asserted here would need 96
    # passes; it is kept as recorded and is expected to fail.  The grid
    # law itself is verified by test_c04_grid_stays_equidistant below and
    # by test_smoothing.py::test_equidistant_grid_spacing_law.
    with contract("4a", "x grid after 95 steps is {0, 5, 10, 15, 20} (unreachable)"):
        res = smooth(grid_curve(), 95)
        xs = np.sort(res.output.points[:, 0])
        np.testing.assert_allclose(xs, [0.0, 5.0, 10.0, 15.0, 20.0], rtol=0, atol=1e-9)


def test_c04_grid_stays_equidistant():
    with contract("4b", "x grid after 95 steps stays equidistant over [0, 20]"):
        res = smooth(grid_curve(), 95)
        xs = res.output.points[:, 0]
        np.testing.assert_allclose(np.diff(xs), xs[-1] / (len(xs) - 1), rtol=0, atol=1e-9)
        np.testing.assert_allclose(xs[[0, -1]], [0.0, 20.0], rtol=0, atol=1e-9)


def test_c04_endpoints_reproduced():
    with contract("4c", "first/last points reproduced to 1e-12 relative"):
        p = grid_curve()
        res = smooth(p, 95)
        np.testing.assert_allclose(res.output.points[0], p.points[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.output.points[-1], p.points[-1], rtol=1e-12, atol=0)


def test_c05_compression_ratio_formula():
    with contract(5, "compression ratio formula and monotone trace"):
        assert abs(compression_ratio(100, 5) - (1 - 6 / 101) * 100) < 1e-6
        trace = smooth(grid_curve(7), 95).trace
        ratios = [rec.compression_ratio_pct for rec in trace]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_c06_closed_form_matches_tick_enumeration():
    with contract(6, "overlap rule equals tick enumeration for all small cases"):
        for den in range(1, 13):
            for num in range(den + 1, 2 * den + 1):
                if math.gcd(num, den) != 1:
                    continue
                f = Fraction(num, den)
                for n_old in range(1, 21):
                    if (n_old * den) // num < 1:
                        for fn in (overlap_coefficients, brute_force_coefficients):
                            try:
                                fn(n_old, f)
                            except ChainTooShortError:
                                continue
                            raise AssertionError(f"{fn.__name__}({n_old}, {f}) should fail")
                    else:
                        assert overlap_coefficients(n_old, f) == brute_force_coefficients(
                            n_old, f
                        )


def test_c07_tangent_sum_conserved_every_step():
    with contract(7, "tangent sum conserved at every step, 1e-12 relative"):
        rng = np.random.default_rng(55)
        scenarios = [
            Polyline(np.cumsum(rng.uniform(0.05, 1.0, size=(151, 3)), axis=0)),
            Polyline(np.cumsum(rng.uniform(0.05, 1.0, size=(23, 1)), axis=0)),
            generate_points("sine-noise", 101, 20.0, 0.3, seed=55),
        ]
        for p in scenarios:
            chain = build_chain(p)
            while chain.n_segments > 1:
                before = chain.tangents.sum(axis=0)
                chain = rescale_fractional(chain, optimal_scaling(chain.n_segments))
                after = chain.tangents.sum(axis=0)
                np.testing.assert_allclose(after, before, rtol=1e-12, atol=0)


def test_c08_integer_halving_7_to_3_to_1():
    with contract(8, "integer halving takes 7 segments to 3, then 1"):
        chain = build_chain(Polyline(np.random.default_rng(1).normal(size=(8, 2))))
        once = rescale_integer(chain, 2)
        twice = rescale_integer(once, 2)
        assert once.n_segments == 3
        assert twice.n_segments == 1


def test_c09_per_axis_rescaling_bit_identical():
    with contract(9, "3-D rescaling equals per-axis rescaling, bit for bit"):
        rng = np.random.default_rng(9)
        factors = [Fraction(4, 3), Fraction(2), Fraction(13, 12), Fraction(7, 4)]
        for trial in range(20):
            n = int(rng.integers(4, 60))
            t = rng.normal(size=(n, 3))
            f = factors[trial % len(factors)]
            if (n * f.denominator) // f.numerator < 1:
                continue
            whole = rescale_fractional(TangentChain(np.zeros(3), t), f).tangents
            per_axis = np.column_stack(
                [
                    rescale_fractional(
                        TangentChain(np.zeros(1), t[:, c : c + 1]), f
                    ).tangents[:, 0]
                    for c in range(3)
                ]
            )
            assert whole.tobytes() == per_axis.tobytes()


def test_c10_noise_reduced_for_95_of_100_seeds():
    with contract(10, "50 steps cut sine-noise RMSE for at least 95 of 100 seeds"):
        wins = 0
        for seed in range(100):
            p = generate_points("sine-noise", 101, 20.0, 0.3, seed)
            x, y = p.points[:, 0], p.points[:, 1]
            rmse_in = np.sqrt(np.mean((y - np.sin(x)) ** 2))
            out = smooth(p, 50).output.points
            rmse_out = np.sqrt(np.mean((out[:, 1] - np.sin(out[:, 0])) ** 2))
            wins += rmse_out < rmse_in
        assert wins >= 95, f"only {wins}/100 seeds improved"


def test_c11_cli_golden_roundtrip(tmp_path):
    with contract(11, "CLI generate/smooth is deterministic with a lawful trace"):
        src = tmp_path / "in.csv"
        gen = ["generate", "--kind", "sine-noise", "--n", "101", "--x-max", "20",
               "--sigma", "0.3", "--seed", "1", "--output", str(src)]
        assert _cli(*gen).returncode == 0
        first_bytes = src.read_bytes()
        assert _cli(*gen).returncode == 0
        assert src.read_bytes() == first_bytes

        outs, traces = [], []
        for name in ("a.csv", "b.csv"):
            dst = tmp_path / name
            run = _cli("smooth", "--input", str(src), "--output", str(dst),
                       "--steps", "95", "--trace")
            assert run.returncode == 0
            outs.append(dst.read_bytes())
            traces.append(run.stdout)
        assert outs[0] == outs[1]
        assert traces[0] == traces[1]
        assert len(outs[0].decode().splitlines()) == 6

        lines = traces[0].strip().splitlines()
        assert len(lines) == 95
        pattern = re.compile(r"^p=(\d+) N=(\d+) s=(\d+)/(\d+) c\.r\.=[\d.]+%$")
        for line in lines:
            m = pattern.match(line)
            assert m, line
            _, n_before, num, den = map(int, m.groups())
            assert (num, den) == (n_before, n_before - 1)

        # The CLI output matches the library call byte for byte.
        lib = write_points(smooth(read_points(first_bytes), 95).output)
        assert outs[0] == lib


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "rgsmooth", *argv], capture_output=True, text=True
    )
