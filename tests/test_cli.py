"""Tests for the command-line interface."""

import contextlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
from operator import neg
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgsmooth import InvalidInputError, Polyline, read_points, smooth, write_points
from rgsmooth.cli import generate_points, main

# Magnitudes from the smallest subnormal to near the largest float.
_MAGNITUDES = st.floats(5e-324, 1.7e308)


def noisy_input(tmp_path):
    src = tmp_path / "in.csv"
    src.write_bytes(write_points(generate_points("sine-noise", 21, 10.0, 0.2, seed=6)))
    return src


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "rgsmooth", *argv], capture_output=True, text=True
    )


class TestGeneratePoints:
    def test_regular_grid(self):
        p = generate_points("sine-noise", 101, 20.0, 0.0, seed=1)
        assert p.n_points == 101
        np.testing.assert_allclose(np.diff(p.points[:, 0]), 0.2, rtol=0, atol=1e-12)

    def test_sigma_zero_is_clean_curve(self):
        p = generate_points("sine-noise", 50, 12.0, 0.0, seed=3)
        np.testing.assert_array_equal(p.points[:, 1] == np.sin(p.points[:, 0]), True)

    def test_same_seed_same_bytes(self):
        a = write_points(generate_points("sine-noise", 101, 20.0, 0.3, seed=9))
        b = write_points(generate_points("sine-noise", 101, 20.0, 0.3, seed=9))
        assert a == b

    def test_different_seed_differs(self):
        a = generate_points("sine-noise", 20, 20.0, 0.3, seed=1)
        b = generate_points("sine-noise", 20, 20.0, 0.3, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            generate_points("sine-noise", 1, 20.0, 0.3, seed=1)
        with pytest.raises(InvalidInputError):
            generate_points("sine-noise", 10, 20.0, -0.1, seed=1)
        with pytest.raises(InvalidInputError):
            generate_points("square-noise", 10, 20.0, 0.1, seed=1)


class TestSmoothCommand:
    def test_end_to_end_matches_library(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        polyline = generate_points("sine-noise", 101, 20.0, 0.3, seed=4)
        src.write_bytes(write_points(polyline))

        code = main(["smooth", "--input", str(src), "--output", str(dst), "--steps", "95"])
        assert code == 0
        expected = write_points(smooth(polyline, 95).output)
        assert dst.read_bytes() == expected
        assert len(dst.read_text().splitlines()) == 6

    def test_steps_max(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("0,0\n1,1\n2,0\n")
        assert main(["smooth", "--input", str(src), "--output", str(dst), "--steps", "max"]) == 0
        assert len(dst.read_text().splitlines()) == 2

    def test_trace_lines(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_bytes(write_points(generate_points("sine-noise", 11, 5.0, 0.1, seed=2)))
        assert main(
            ["smooth", "--input", str(src), "--output", str(dst), "--steps", "4", "--trace"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        pattern = re.compile(r"^p=(\d+) N=(\d+) s=(\d+)/(\d+) c\.r\.=([\d.]+)%$")
        for i, line in enumerate(lines, start=1):
            m = pattern.match(line)
            assert m, line
            p, n, num, den = map(int, m.groups()[:4])
            assert p == i
            assert n == 10 - (i - 1)
            assert (num, den) == (n, n - 1)

    def test_target_cr(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_bytes(write_points(generate_points("sine-noise", 101, 20.0, 0.3, seed=5)))
        assert main(
            ["smooth", "--input", str(src), "--output", str(dst), "--target-cr", "94", "--trace"]
        ) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("p=95 ")
        assert "c.r.=94.0594%" in last

    def test_too_many_steps_exit_3(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0,0\n1,1\n2,0\n")
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                     "--steps", "5"])
        assert code == 3
        assert "at most 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "amount, code",
        [(["--steps", "5", "--clamp"], 0), (["--target-cr", "99", "--clamp"], 0),
         (["--target-cr", "99"], 3)],
        ids=["steps", "target-cr", "target-cr-unclamped"],
    )
    def test_clamp_allows_oversized_steps(self, tmp_path, capsys, amount, code):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("0,0\n1,1\n2,0\n")
        assert main(["smooth", "--input", str(src), "--output", str(dst), *amount]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "warning: clamping to the maximum of 1 steps\n"
            assert len(dst.read_text().splitlines()) == 2
        else:
            assert "unreachable" in err
            assert not dst.exists()

    def test_bad_delimiter_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0,0\n1,1\n")
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                     "--steps", "1", "--delimiter", "ab"])
        assert code == 2
        assert "delimiter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, where",
        [
            (b"0,zero\n1,1\n", "row 1"),
            (b"0,0\n1,\xff\n2,2\n", "row 2"),
            (b"1,2\r3,4\n5,6\n", "row 1"),
        ],
        ids=["not-a-number", "not-utf8", "bare-cr"],
    )
    def test_parse_failure_exit_2(self, tmp_path, capsys, content, where):
        src = tmp_path / "in.csv"
        src.write_bytes(content)
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                     "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert where in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "content",
        [b"-1e308,0\n0,0\n1e308,0\n", b"-1e308\n1e308\n0\n"],
        ids=["merged-tangent", "difference"],
    )
    def test_overflow_exit_2_one_line(self, tmp_path, content):
        src = tmp_path / "in.csv"
        src.write_bytes(content)
        run = run_cli("smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                      "--steps", "1")
        assert run.returncode == 2
        assert run.stderr == "error: coordinates overflowed float64 while smoothing\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "content, steps",
        [(b"0,1.7e308\n1,1.6e308\n2,1.75e308\n3,1e308\n", "1"), (b"-1e308,0\n1e308,1\n", "0")],
        ids=["flipped-y", "x-bounds"],
    )
    def test_svg_overflow_exit_2_one_line(self, tmp_path, content, steps):
        src = tmp_path / "in.csv"
        src.write_bytes(content)
        run = run_cli("smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                      "--steps", steps, "--svg", str(tmp_path / "p.svg"))
        assert run.returncode == 2
        assert run.stderr == "error: coordinates too large to plot: the SVG bounds overflow float64\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 6).flatmap(lambda n: st.tuples(
            arrays(np.float64, (n, 2), elements=st.just(0.0) | _MAGNITUDES | _MAGNITUDES.map(neg)),
            st.integers(0, n - 2),
        ))
    )
    def test_extreme_magnitudes_exit_0_or_2_with_finite_output(self, case):
        # In process, so that the "error" warning filter turns any numpy
        # RuntimeWarning into a failure.
        points, steps = case
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            src, dst, svg = (Path(tmp, name) for name in ("in.csv", "o.csv", "p.svg"))
            src.write_bytes(write_points(Polyline(points)))
            code = main(["smooth", "--input", str(src), "--output", str(dst), "--steps", str(steps),
                         "--svg", str(svg)])
            written = [path.read_text() for path in (dst, svg) if path.exists()]
        assert code == 0 if np.abs(points).max() < 1e300 else code in (0, 2)
        assert err.getvalue().count("\n") == (code != 0)
        assert len(written) == (2 if code == 0 else 0)
        assert not any(re.search(r"\b(inf|nan)\b", text) for text in written)

    def test_missing_input_exit_1(self, tmp_path):
        code = main(["smooth", "--input", str(tmp_path / "absent.csv"),
                     "--output", str(tmp_path / "o.csv"), "--steps", "1"])
        assert code == 1

    def test_svg_written(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        svg = tmp_path / "plot.svg"
        src.write_bytes(write_points(generate_points("sine-noise", 21, 10.0, 0.2, seed=6)))
        assert main(["smooth", "--input", str(src), "--output", str(dst),
                     "--steps", "10", "--svg", str(svg)]) == 0
        content = svg.read_text()
        assert content.count("<polyline") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv", "plot.svg"]

    def test_failed_svg_write_leaves_no_csv(self, tmp_path, capsys):
        src = noisy_input(tmp_path)
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "out.csv"),
                     "--steps", "10", "--svg", str(tmp_path / "absent" / "plot.svg")])
        assert code == 1
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_symlinked_output_keeps_link(self, tmp_path):
        src = noisy_input(tmp_path)
        (tmp_path / "real.csv").write_bytes(b"stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        assert main(["smooth", "--input", str(src), "--output", str(link), "--steps", "10"]) == 0
        assert link.is_symlink()
        assert read_points((tmp_path / "real.csv").read_bytes()).n_points == 11

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_non_regular_output_written_in_place(self, tmp_path):
        src = noisy_input(tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["smooth", "--input", str(src), "--output", str(fifo),
                         "--steps", "10"]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert read_points(data).n_points == 11

    def test_svg_requires_two_dims(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0\n1\n2\n")
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                     "--steps", "1", "--svg", str(tmp_path / "p.svg")])
        assert code == 2

    def test_header_and_delimiter(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text("x;y\n0;0\n1;1\n2;0\n")
        assert main(["smooth", "--input", str(src), "--output", str(dst),
                     "--steps", "1", "--delimiter", ";", "--header"]) == 0
        assert dst.read_text().count(";") > 0

    def test_steps_and_target_mutually_exclusive(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("0,0\n1,1\n2,0\n")
        with pytest.raises(SystemExit) as exc:
            main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                  "--steps", "1", "--target-cr", "50"])
        assert exc.value.code == 2


class TestGenerateCommand:
    def test_stdout_deterministic(self):
        args = ["generate", "--kind", "sine-noise", "--n", "31", "--x-max", "20",
                "--sigma", "0.3", "--seed", "12"]
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert len(a.stdout.splitlines()) == 31

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        assert main(["generate", "--n", "11", "--seed", "3", "--output", str(out)]) == 0
        polyline = read_points(out.read_bytes())
        assert polyline.n_points == 11

    def test_bad_n_exit_2(self, capsys):
        assert main(["generate", "--n", "1", "--seed", "3"]) == 2
