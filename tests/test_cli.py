"""Tests for the command-line interface."""

import concurrent.futures
import contextlib
import errno
import hashlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from operator import neg
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgsmooth import (
    ChainTooShortError,
    InvalidInputError,
    InvalidScalingError,
    ParseError,
    Polyline,
    TooManyStepsError,
    emit_svg,
    read_points,
    smooth,
    write_points,
)
from rgsmooth.cli import generate_points, main

# Magnitudes from the smallest subnormal to near the largest float.
_MAGNITUDES = st.floats(5e-324, 1.7e308)
# Any float, with the edge values always in the draw.
_GENERATE_FLOATS = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]) | st.floats()


# Pieces of well-formed and malformed CSV: numbers, separators, quotes,
# line endings (a bare CR too), a byte-order mark, non-finite text and a
# byte that is not UTF-8.
_CSV_PIECES = st.sampled_from(
    ["0", "1", "2.5", "-3", "1e308", "-", ".", "e", ",", ";", "\t", " ", '"', "\n", "\r\n",
     "\r", "\ufeff", "nan", "inf", "-inf", "x"]
).map(str.encode) | st.just(b"\xff")
# Rows of numbers make files that parse, so that exits 0 and 3 are drawn too.
_CSV_ROWS = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.sampled_from(["0", "1", "-2.5", "3e2", " 4 ", '"5"', "1e308"]), min_size=d, max_size=d)
    .map(",".join),
    max_size=12,
)).map(lambda rows: "".join(row + "\n" for row in rows).encode())
_CSV_FILES = st.tuples(
    st.sampled_from([b"", b"\xef\xbb\xbf", b"x,y\n"]),
    _CSV_ROWS,
    st.just(b"") | st.lists(_CSV_PIECES, min_size=1, max_size=8).map(b"".join),
).map(b"".join)
_SMOOTH_OPTIONS = st.tuples(
    st.none() | st.sampled_from([",", ";", "\t", " ", ".", "e", '"', "", ",,", "\r"]),
    st.booleans(),
    st.integers(-2, 30).map(lambda n: (f"--steps={n}",))
    | st.sampled_from([0.0, 50.0, 90.0, 99.99, 100.0, -1.0, math.nan, math.inf]).map(
        lambda cr: (f"--target-cr={cr!r}",))
    # "max", then usage errors: bad values, both options and neither.
    | st.sampled_from([("--steps=max",), ("--steps=x",), ("--steps=1.5",), ("--target-cr=abc",),
                       ("--steps=1", "--target-cr=50"), ()]),
    st.booleans(),
    st.booleans(),
)


def noisy_input(tmp_path):
    src = tmp_path / "in.csv"
    src.write_bytes(write_points(generate_points("sine-noise", 21, 10.0, 0.2, seed=6)))
    return src


# Streams main() may find as sys.stdout in process: one over a binary buffer, one text only.
_STREAMS_WITHOUT_DESCRIPTOR = [lambda: io.TextIOWrapper(io.BytesIO()), io.StringIO]


def stream_bytes(stream):
    return stream.buffer.getvalue() if hasattr(stream, "buffer") else stream.getvalue().encode()


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
        with pytest.raises(InvalidInputError):
            generate_points("sine-noise", 10, 20.0, 0.1, seed=-1)
        # Counts that are not integers, each named, not a bare numpy TypeError.
        for n_points, seed, name in [(10.0, 1, "n_points"), ("10", 1, "n_points"),
                                     (10, 1.5, "seed"), (10, "1", "seed")]:
            with pytest.raises(InvalidInputError, match=f"^{name} must be an integer, got "):
                generate_points("sine-noise", n_points, 20.0, 0.3, seed)
        # Real parameters that are not float64 numbers, each named, not a bare exception.
        for x_max, sigma, name in [("5", 0.3, "x-max"), (20.0, "0.3", "sigma"), (None, 0.3, "x-max"),
                                   (20.0, 1j, "sigma"), (10**400, 0.3, "x-max"), (20.0, 10**400, "sigma"),
                                   (np.array([1.0, 2.0]), 0.3, "x-max")]:
            with pytest.raises(InvalidInputError, match=f"^{name} must be a real float64 number, got "):
                generate_points("sine-noise", 10, x_max, sigma, seed=1)


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

    @pytest.mark.parametrize("make_stream", _STREAMS_WITHOUT_DESCRIPTOR, ids=["binary", "text"])
    def test_trace_to_stdout_without_descriptor(self, tmp_path, make_stream):
        src, dst, out = noisy_input(tmp_path), tmp_path / "out.csv", make_stream()
        with contextlib.redirect_stdout(out):
            assert main(["smooth", "--input", str(src), "--output", str(dst),
                         "--steps", "2", "--trace"]) == 0
        trace = b"p=1 N=20 s=20/19 c.r.=4.7619%\np=2 N=19 s=19/18 c.r.=9.5238%\n"
        assert stream_bytes(out) == trace
        assert dst.read_bytes() == write_points(smooth(read_points(src.read_bytes()), 2).output)

    def test_output_bytes_pinned(self, tmp_path, capsys):
        # Every input value is exact (x = k/8, y a running sum of multiples
        # of 1/64) and a pass only multiplies, adds and divides, so these
        # digests hold on any numpy build and CPU.
        k = np.arange(4001)
        y = np.cumsum(((7919 * k) % 1009 - 504) / 64)
        src, dst, plot = (tmp_path / name for name in ("in.csv", "out.csv", "out.svg"))
        src.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip((k / 8).tolist(), y.tolist())))
        assert main(["smooth", "--input", str(src), "--output", str(dst), "--steps", "400",
                     "--svg", str(plot), "--trace"]) == 0
        outputs = dst.read_bytes(), plot.read_bytes(), capsys.readouterr().out.encode()
        assert [hashlib.sha1(b).hexdigest() for b in outputs] == [
            "92a9fd095b641a23a41a89eb6cd8a4a35705fd3b",
            "72f6630f44b5a90ce2fb4aafac4bc9b44a0e2fbe",
            "113eccdc2cf1db1fcb9b84870f23f21694e18e27",
        ]

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

    def test_clamped_run_that_fails_prints_only_its_error(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_bytes(b"-1e308,0\n1e308,1\n")
        run = run_cli("smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                      "--steps", "1", "--clamp", "--svg", str(tmp_path / "p.svg"))
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

    @settings(max_examples=300, deadline=None)
    @given(_CSV_FILES, _SMOOTH_OPTIONS)
    def test_any_file_and_options_exit_0_to_3_one_line(self, data, options):
        # In process, so that the "error" warning filter turns any numpy
        # RuntimeWarning into a failure.
        delimiter, header, amount, clamp, svg = options
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            src, dst, plot = (Path(tmp, name) for name in ("in.csv", "o.csv", "p.svg"))
            src.write_bytes(data)
            argv = ["smooth", "--input", str(src), "--output", str(dst), *amount]
            argv += [f"--delimiter={delimiter}"] * (delimiter is not None)
            argv += ["--header"] * header + ["--clamp"] * clamp + ["--svg", str(plot)] * svg
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            written = [path.exists() for path in (dst, plot)[: 1 + svg]]
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()
        assert written == [code == 0] * len(written)

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

    def test_longest_names_written(self, tmp_path):
        # 250-byte names, too long to carry a prefix and suffix into a temporary file's name.
        src = noisy_input(tmp_path)
        dst, svg = tmp_path / ("o" * 246 + ".csv"), tmp_path / ("p" * 246 + ".svg")
        assert main(["smooth", "--input", str(src), "--output", str(dst),
                     "--steps", "10", "--svg", str(svg)]) == 0
        assert read_points(dst.read_bytes()).n_points == 11
        assert svg.read_text().count("<polyline") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["in.csv", dst.name, svg.name])

    def test_failed_svg_write_leaves_no_csv(self, tmp_path, capsys):
        src = noisy_input(tmp_path)
        svg = tmp_path / "absent" / "plot.svg"
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "out.csv"),
                     "--steps", "10", "--svg", str(svg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot write output" in err
        assert repr(str(svg)) in err
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_failed_direct_write_replaces_no_output(self, tmp_path, capsys):
        # A target that is not a regular file is written before any
        # temporary file replaces its target.
        src = noisy_input(tmp_path)
        dst = tmp_path / "out.csv"
        dst.write_text("old")
        svg = tmp_path / "plot.svg"
        svg.mkdir()
        code = main(["smooth", "--input", str(src), "--output", str(dst),
                     "--steps", "1", "--svg", str(svg)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(str(svg)) in err[0]
        assert dst.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv", "plot.svg"]
        assert list(svg.iterdir()) == []

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

    def test_float_character_delimiter_exit_2(self, tmp_path, capsys):
        # With "." as delimiter, 1.0 would be written as two cells.
        src = tmp_path / "in.csv"
        src.write_text("1.2\n3.4\n5.6\n7.8\n")
        code = main(["smooth", "--delimiter", ".", "--input", str(src),
                     "--output", str(tmp_path / "out.csv"), "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "delimiter '.'" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize("svg_is_link", [False, True], ids=["plain", "symlink"])
    def test_output_and_svg_same_file_exit_2(self, tmp_path, capsys, svg_is_link):
        src = noisy_input(tmp_path)
        svg = tmp_path / "same.out"
        if svg_is_link:
            svg = tmp_path / "link.svg"
            svg.symlink_to("same.out")
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "same.out"),
                     "--svg", str(svg), "--steps", "2"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--output and --svg name the same file" in err[0]
        assert not (tmp_path / "same.out").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["in.csv", "link.svg"] if svg_is_link else ["in.csv"]
        )

    def test_output_and_svg_both_null_device(self, tmp_path):
        src = noisy_input(tmp_path)
        assert main(["smooth", "--input", str(src), "--output", os.devnull,
                     "--svg", os.devnull, "--steps", "2"]) == 0

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_output_and_svg_both_stdout_pipe(self, tmp_path):
        # A pipe, like a device, takes both outputs, one after the other.
        src = noisy_input(tmp_path)
        proc = run_cli("smooth", "--input", str(src), "--output", "/dev/stdout",
                       "--svg", "/dev/stdout", "--steps", "2")
        assert (proc.returncode, proc.stderr) == (0, "")
        polyline = read_points(src.read_bytes())
        result = smooth(polyline, 2).output
        assert proc.stdout == (write_points(result) + emit_svg(polyline, result)).decode()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize(
        "mode, argv, tail",
        [("ab", ["smooth", "--steps", "1", "--trace"], "p=1 N=20 s=20/19 c.r.=4.7619%\n"),
         ("wb", ["smooth", "--steps", "1", "--trace"], "p=1 N=20 s=20/19 c.r.=4.7619%\n"),
         ("ab", ["generate", "--n", "3"], "")],
        ids=["smooth-append", "smooth-truncate", "generate-append"],
    )
    def test_stdout_file_named_as_output_written_in_place(self, tmp_path, mode, argv, tail):
        # The shell opened stdout's file, maybe to append: replacing that file would drop what
        # it held, and whatever the run prints after the output would go to the replaced file.
        src = noisy_input(tmp_path)
        log = tmp_path / "log.txt"
        log.write_bytes(b"keep\n")
        head = b"keep\n" if mode == "ab" else b""
        if argv[0] == "smooth":
            argv = [*argv, "--input", str(src)]
            data = write_points(smooth(read_points(src.read_bytes()), 1).output)
        else:
            data = write_points(generate_points("sine-noise", 3, 20.0, 0.3, seed=0))
        with open(log, mode) as out:
            proc = subprocess.run([sys.executable, "-m", "rgsmooth", *argv, "--output", "/dev/stdout"],
                                  stdout=out, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert log.read_bytes() == head + data + tail.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "log.txt"]

    @pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="needs /dev/stderr")
    def test_stderr_file_named_as_output_written_in_place(self, tmp_path):
        # As with stdout: the warning printed after the output goes on after it in the same file.
        src, log = tmp_path / "in.csv", tmp_path / "log.txt"
        src.write_text("0,0\n1,1\n2,0\n3,1\n")
        log.write_bytes(b"keep\n")
        with open(log, "ab") as err:
            proc = subprocess.run([sys.executable, "-m", "rgsmooth", "smooth", "--input", str(src),
                                   "--output", "/dev/stderr", "--steps", "9", "--clamp"],
                                  stdout=subprocess.PIPE, stderr=err)
        assert (proc.returncode, proc.stdout) == (0, b"")
        data = write_points(smooth(read_points(src.read_bytes()), 2).output)
        assert log.read_bytes() == (
            b"keep\n" + data + b"warning: clamping to the maximum of 2 steps\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "log.txt"]

    def test_steps_and_target_mutually_exclusive(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0,0\n1,1\n2,0\n")
        code = main(["smooth", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                     "--steps", "1", "--target-cr", "50"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: argument --target-cr: not allowed with argument --steps\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["smooth", "--input", "in.csv", "--output", "o.csv", "--steps", "x"],
         "argument --steps: expected an integer or 'max', got 'x'"),
        (["smooth", "--input", "in.csv", "--steps", "1"],
         "the following arguments are required: --output"),
        (["frob"], "argument command: invalid choice: 'frob' (choose from 'smooth', 'generate')"),
        ([], "the following arguments are required: command"),
    ],
    ids=["bad-steps", "missing-output", "unknown-command", "missing-command"],
)
def test_usage_error_exit_2_one_line(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, option, name",
    [("smooth", "--input", ""), ("smooth", "--output", ""), ("smooth", "--svg", ""),
     ("generate", "--output", ""), ("smooth", "--output", "out.csv" + os.sep)],
    ids=["smooth-input", "smooth-output", "smooth-svg", "generate-output", "trailing-separator"],
)
def test_empty_file_name_exit_2_one_line(command, option, name, tmp_path, capsys, monkeypatch):
    # An unset shell variable gives '': refused before any file is read or written.  So is a
    # name ending in a separator, which open() refuses but realpath() would resolve to out.csv.
    monkeypatch.chdir(tmp_path)
    src = noisy_input(tmp_path)
    out = tmp_path / "out.csv"
    out.write_bytes(b"0,0\n1,1\n")
    args = {"--input": str(src), "--output": str(out), "--steps": "2"} if command == "smooth" else {}
    args[option] = name
    assert main([command, *(word for pair in args.items() for word in pair)]) == 2
    assert capsys.readouterr() == ("", f"error: argument {option}: expected a file name, got {name!r}\n")
    assert out.read_bytes() == b"0,0\n1,1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv"]


def test_cli_imports_nothing_beyond_numpy_and_stdlib():
    # numpy is the only runtime dependency: importing the CLI after numpy
    # may load only standard-library modules and rgsmooth itself.
    script = (
        "import sys, numpy\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import rgsmooth.cli\n"
        "new = {m.partition('.')[0] for m in sys.modules} - before\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'rgsmooth'})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smooth", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rgsmooth smooth ")


@pytest.mark.parametrize(
    "error, exit_2",
    [(ParseError, True), (InvalidScalingError, True), (ChainTooShortError, True),
     (TooManyStepsError, False)],
)
def test_exit_2_errors_share_one_base(error, exit_2):
    assert issubclass(error, InvalidInputError) == exit_2


class TestGenerateCommand:
    def test_stdout_deterministic(self):
        args = ["generate", "--kind", "sine-noise", "--n", "31", "--x-max", "20",
                "--sigma", "0.3", "--seed", "12"]
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert len(a.stdout.splitlines()) == 31

    @pytest.mark.parametrize("make_stream", _STREAMS_WITHOUT_DESCRIPTOR, ids=["binary", "text"])
    def test_stdout_without_descriptor_gets_the_bytes(self, make_stream):
        # In process, stdout may be a stream with no file descriptor, as here or under capture.
        out = make_stream()
        with contextlib.redirect_stdout(out):
            assert main(["generate", "--n", "5", "--seed", "3"]) == 0
        assert stream_bytes(out) == write_points(generate_points("sine-noise", 5, 20.0, 0.3, 3))

    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_stdout_closed_early_exit_1_one_line(self, unbuffered):
        # About 3 MB, far above a pipe's capacity, so the write must meet the closed pipe.
        # Under PYTHONUNBUFFERED=1 stdout's own buffer is raw, and a short write through it
        # would go unnoticed.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env.update({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {})
        proc = subprocess.Popen([sys.executable, "-m", "rgsmooth", "generate", "--n", "100001"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, head, err) == (
            1, b"0.0,0.0377", b"error: cannot write output: [Errno 32] Broken pipe\n"
        )

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        assert main(["generate", "--n", "11", "--seed", "3", "--output", str(out)]) == 0
        polyline = read_points(out.read_bytes())
        assert polyline.n_points == 11

    def test_longest_name_written(self, tmp_path):
        out = tmp_path / ("g" * 246 + ".csv")
        assert main(["generate", "--n", "11", "--seed", "3", "--output", str(out)]) == 0
        assert read_points(out.read_bytes()).n_points == 11
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_uncreatable_temporary_file_named_as_such(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_bytes(b"keep\n")

        def refuse_temporary_files(path, *args, **kwargs):
            if str(path).endswith(".tmp"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        # Patched, not made with directory modes, because root ignores those.
        monkeypatch.setattr("rgsmooth.cli.open", refuse_temporary_files, raising=False)
        assert main(["generate", "--n", "5", "--output", str(target)]) == 1
        assert capsys.readouterr().err == (
            "error: cannot write output: [Errno 13] cannot create a temporary file "
            f"beside it (Permission denied): {str(target)!r}\n"
        )
        assert target.read_bytes() == b"keep\n"

    def test_concurrent_calls_into_one_directory_keep_their_own_bytes(self, tmp_path, monkeypatch):
        # Both calls stage their temporary files before either replaces its target.
        barrier, replace = threading.Barrier(2, timeout=30), os.replace

        def replace_after_both_staged(src, dst):
            barrier.wait()
            replace(src, dst)

        def generate(seed):
            return main(["generate", "--n", "51", "--seed", str(seed),
                         "--output", str(tmp_path / f"{seed}.csv")])

        monkeypatch.setattr(os, "replace", replace_after_both_staged)
        seeds = [1, 2]
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            codes = list(pool.map(generate, seeds))
        assert codes == [0, 0]
        for seed in seeds:
            expected = write_points(generate_points("sine-noise", 51, 20.0, 0.3, seed))
            assert (tmp_path / f"{seed}.csv").read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1.csv", "2.csv"]

    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        # 0o700 is a mode no umask gives a new file.
        out = tmp_path / "private.csv"
        out.write_bytes(b"old\n")
        out.chmod(0o700)
        assert main(["generate", "--n", "5", "--output", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o700
        assert read_points(out.read_bytes()).n_points == 5

    def test_existing_temporary_name_left_alone(self, tmp_path, capsys, monkeypatch):
        # A file that already bears the temporary name was not made by this call: the call fails
        # rather than truncate or remove it.
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        stranger = tmp_path / f".rgsmooth-{bytes(6).hex()}-0.tmp"
        stranger.write_bytes(b"not ours\n")
        assert main(["generate", "--n", "5", "--output", str(tmp_path / "out.csv")]) == 1
        assert "cannot create a temporary file beside it (File exists)" in capsys.readouterr().err
        assert stranger.read_bytes() == b"not ours\n"
        assert [p.name for p in tmp_path.iterdir()] == [stranger.name]

    def test_bad_n_exit_2(self, capsys):
        assert main(["generate", "--n", "1", "--seed", "3"]) == 2

    # Sizes numpy refuses before it allocates anything; never test a size
    # the host might really allocate.
    @pytest.mark.parametrize("n", ["4611686018427387904", "99999999999999999999999"])
    def test_grid_numpy_cannot_size_exit_2_one_line(self, n, capsys):
        assert main(["generate", "--n", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make a grid of {n} points: ")
        assert err.count("\n") == 1

    def test_grid_host_cannot_allocate_exit_2_one_line(self, capsys, monkeypatch):
        # A size numpy accepts but the host cannot hold, simulated: a real
        # attempt would allocate.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.81 KiB for an array with shape (1000,)")

        monkeypatch.setattr(np, "linspace", refuse)
        assert main(["generate", "--n", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make a grid of 1000 points: Unable to allocate")
        assert err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-3, 40), st.integers(-5, 2**64), _GENERATE_FLOATS, _GENERATE_FLOATS)
    # linspace overflows an intermediate of the last point at this x_max.
    @example(n=19, seed=0, sigma=0.0, x_max=1.7976931348623157e308)
    def test_any_parameters_exit_0_or_2_one_line(self, n, seed, sigma, x_max):
        # In process, so that the "error" warning filter turns any numpy
        # RuntimeWarning into a failure.  The "=" form keeps "-inf" a value.
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["generate", f"--n={n}", f"--seed={seed}", f"--sigma={sigma!r}",
                         f"--x-max={x_max!r}"])
        assert code in (0, 2)
        assert err.getvalue().count("\n") == (code == 2)
        assert "Traceback" not in err.getvalue()


# How each standard descriptor can be unusable at start: closed, or open for reading only, as a
# launcher script run in its place can leave it.  Python sets a closed one's stream to None.
_SHUT_DESCRIPTORS = {"stdout-closed": ">&-", "stderr-closed": "2>&-",
                     "stdout-read-only": "1</dev/null", "stderr-read-only": "2</dev/null"}


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
@pytest.mark.parametrize("run", ["smooth", "smooth-trace", "exit-2", "exit-3", "generate"])
@pytest.mark.parametrize("shut", list(_SHUT_DESCRIPTORS))
def test_std_descriptor_shut_documented_exit_no_traceback(tmp_path, shut, run):
    # What the run writes to stdout fails there, and exits 1 with one line; every other run
    # keeps its documented exit code.  A message meant for stderr never lands on stdout.
    src = tmp_path / "in.csv"
    src.write_text("0,0\n1,1\n2,0\n")
    smoothing = ["smooth", "--input", str(src), "--output", str(tmp_path / "out.csv"), "--steps"]
    argv, code, out = {
        "smooth": (smoothing + ["1"], 0, b""),
        "smooth-trace": (smoothing + ["1", "--trace"], 0, b"p=1 N=2 s=2/1 c.r.=33.3333%\n"),
        "exit-2": (smoothing + ["x"], 2, b""),
        "exit-3": (smoothing + ["9"], 3, b""),
        "generate": (["generate", "--n", "3"], 0,
                     write_points(generate_points("sine-noise", 3, 20.0, 0.3, seed=0))),
    }[run]
    stdout_shut = shut.startswith("stdout")
    code = 1 if stdout_shut and out else code
    proc = subprocess.run(
        ["/bin/sh", "-c", f'exec "$@" {_SHUT_DESCRIPTORS[shut]}', "sh", sys.executable, "-m",
         "rgsmooth", *argv], capture_output=True, timeout=60)
    if stdout_shut:
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert proc.stderr.count(b"\n") == (code != 0) and b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"error: " if code else b"")
    else:
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out if code == 0 else b"", b"")
    written = ["out.csv"] if run.startswith("smooth") and code == 0 else []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", *written]
