"""Command-line interface: smooth CSV curves, generate test signals.

Exit codes: 0 success, 1 I/O failure, 2 invalid input, usage or parse
failure, 3 step count beyond what the curve allows (without --clamp).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import math
import os
import sys

import numpy as np

from .chain import InvalidInputError, Polyline, TooManyStepsError, _as_int, _as_real
from .io import CsvSchema, emit_svg, read_points, write_points
from .smoothing import smooth, smooth_to_ratio

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_TOO_MANY_STEPS = 3


def generate_points(kind: str, n_points: int, x_max: float, sigma: float, seed: int) -> Polyline:
    """Deterministic noisy test curve on a regular x grid.

    ``sine-noise`` samples sin(x) on ``n_points`` equally spaced x values
    in [0, x_max] and adds Gaussian noise of standard deviation ``sigma``
    drawn from a PCG64 generator seeded with ``seed``.
    """
    if kind != "sine-noise":
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    n_points, seed = _as_int(n_points, "n_points"), _as_int(seed, "seed")
    x_max, sigma = _as_real(x_max, "x-max"), _as_real(sigma, "sigma")
    if n_points < 2:
        raise InvalidInputError(f"need at least 2 points, got {n_points}")
    if not 0 < x_max < math.inf:
        raise InvalidInputError(f"x-max must be positive and finite, got {x_max}")
    if not 0 <= sigma < math.inf:
        raise InvalidInputError(f"sigma must be non-negative and finite, got {sigma}")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    try:
        # Near the float64 limit linspace overflows the last point before
        # it sets that point to x_max.
        with np.errstate(over="ignore"):
            x = np.linspace(0.0, x_max, n_points)
        # abs() turns a sigma of -0.0, which numpy's normal() rejects, into 0.0.
        y = np.sin(x) + np.random.default_rng(seed).normal(0.0, abs(sigma), n_points)
        points = np.column_stack([x, y])
    except (ValueError, MemoryError) as exc:
        # numpy refuses some sizes outright; others it sizes but cannot allocate.
        raise InvalidInputError(f"cannot make a grid of {n_points} points: {exc}") from None
    return Polyline(points)


def _steps_arg(value: str):
    if value == "max":
        return "max"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'max', got {value!r}") from None


def _path_arg(value: str) -> str:
    if not value or value.endswith(("/", os.sep)):
        raise argparse.ArgumentTypeError(f"expected a file name, got {value!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 2 through main's one error line."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rgsmooth",
        description="Smooth and compress ordered point sequences by iterative segment merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sm = sub.add_parser("smooth", help="smooth a CSV curve")
    sm.add_argument("--input", required=True, type=_path_arg, help="input CSV path")
    sm.add_argument("--output", required=True, type=_path_arg, help="output CSV path")
    amount = sm.add_mutually_exclusive_group(required=True)
    amount.add_argument("--steps", type=_steps_arg, help="number of passes, or 'max'")
    amount.add_argument("--target-cr", type=float, dest="target_cr", metavar="PCT",
                        help="smooth until this compression ratio (percent) is reached")
    sm.add_argument("--svg", type=_path_arg, help="also write an overlay plot to this path")
    sm.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    sm.add_argument("--header", action="store_true", help="input has a header row")
    sm.add_argument("--trace", action="store_true", help="print the per-pass schedule")
    sm.add_argument("--clamp", action="store_true",
                    help="clamp an oversized step count instead of failing")
    sm.set_defaults(func=run_smooth)

    gen = sub.add_parser("generate", help="emit a deterministic noisy test curve as CSV")
    gen.add_argument("--kind", default="sine-noise", choices=["sine-noise"])
    gen.add_argument("--n", type=int, default=101, help="number of points (default 101)")
    gen.add_argument("--x-max", type=float, default=20.0, dest="x_max",
                     help="upper end of the x grid (default 20)")
    gen.add_argument("--sigma", type=float, default=0.3, help="noise level (default 0.3)")
    gen.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    gen.add_argument("--output", type=_path_arg, help="output CSV path (default: stdout)")
    gen.set_defaults(func=run_generate)
    return parser


def run_smooth(args) -> int:
    schema = CsvSchema(delimiter=args.delimiter, has_header=args.header)
    output, svg = _target(args.output), args.svg and _target(args.svg)
    trace = args.trace and _target(None)
    if svg and svg[1] and svg[1] == output[1]:
        raise InvalidInputError(f"--output and --svg name the same file: {svg[1]}")
    try:
        with open(args.input, "rb") as fh:
            polyline = read_points(fh, schema)
    except OSError as exc:
        _say(f"error: cannot read {args.input}: {exc}")
        return EXIT_IO

    if args.svg and polyline.dimension < 2:
        raise InvalidInputError("SVG overlay requires at least 2 coordinate columns")

    warning = ""
    try:
        if args.target_cr is not None:
            result = smooth_to_ratio(polyline, args.target_cr)
        else:
            steps = polyline.n_segments - 1 if args.steps == "max" else args.steps
            result = smooth(polyline, steps)
    except TooManyStepsError as exc:
        if not args.clamp:
            _say(f"error: {exc}")
            return EXIT_TOO_MANY_STEPS
        warning = f"warning: clamping to the maximum of {exc.max_steps} steps"
        result = smooth(polyline, exc.max_steps)
    outputs = [(output, write_points(result.output, schema))]
    if svg:
        outputs.append((svg, emit_svg(polyline, result.output)))
    if trace:
        outputs.append((trace, "".join(_trace_line(rec) + "\n" for rec in result.trace).encode()))
    _write_all(outputs)
    # Warned only once the run has succeeded: a failure prints its one error line.
    _say(warning)
    return EXIT_OK


def run_generate(args) -> int:
    data = write_points(generate_points(args.kind, args.n, args.x_max, args.sigma, args.seed))
    _write_all([(_target(args.output), data)])
    return EXIT_OK


def _target(path: str | None) -> tuple[str | None, str | None, object]:
    """(path, the file a temporary file replaces or None, the std stream written or None).

    No path is this process's stdout.  A regular file or a new name is replaced: one regular file
    cannot hold two outputs, while a device can.  So anything else that exists is written in place,
    and so is the file that this process's stdout or stderr writes to, which replacing would cut
    off from what it held and from what the run prints after.
    """
    if path is None and sys.stdout is None:  # so Python sets it when descriptor 1 was closed at start
        raise OSError(errno.EBADF, "standard output is closed")
    stream = sys.stdout if path is None else _std_stream(path)
    in_place = stream or os.path.exists(path) and not os.path.isfile(path)
    return path, None if in_place else os.path.realpath(path), stream


def _std_stream(path: str):
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError, OSError):  # None, closed, or no file
            if os.path.samestat(os.stat(path), os.fstat(stream.fileno())):
                return stream


def _write_all(outputs: list[tuple[tuple, bytes]]) -> None:
    """Write every (``_target``, data) pair, or none of them on an OSError.

    No temporary file replaces its target before every output is written in full.
    """
    # Named by a token of this call, as concurrent calls in one process share the pid, and short:
    # the target's own name may be NAME_MAX long.  Only files this call created are removed.
    token, created = os.urandom(6).hex(), []
    staged = [(path, os.path.join(os.path.dirname(target), f".rgsmooth-{token}-{i}.tmp"),
               target, data) for i, ((path, target, _), data) in enumerate(outputs) if target]
    try:
        for path, tmp, target, data in staged:
            try:
                fh = open(tmp, "xb")
            except OSError as exc:
                reason = f"cannot create a temporary file beside it ({exc.strerror})"
                raise OSError(exc.errno, reason) from exc
            created.append(tmp)
            with fh:
                fh.write(data)
            with contextlib.suppress(FileNotFoundError):  # a replaced file keeps its permissions
                os.chmod(tmp, os.stat(target).st_mode & 0o777)
        for (path, target, stream), data in outputs:
            if target:
                continue
            if stream:  # what it holds goes first; its own buffer may be raw (-u) and write short
                stream.flush()
            try:
                fh = open(stream.fileno() if stream else path, "wb", closefd=not stream)
            except io.UnsupportedOperation:  # an in-process stdout, say captured, has no descriptor
                buf = getattr(stream, "buffer", None)  # None in a text-only one, as io.StringIO
                fh, data = contextlib.nullcontext(buf or stream), data if buf else data.decode()
            with fh as out:
                out.write(data)
                out.flush()
        for path, tmp, target, _ in staged:
            os.replace(tmp, target)
    except OSError as exc:
        # Name the file the user asked for, not its temporary file.
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for tmp in created:
            if os.path.exists(tmp):
                os.remove(tmp)


def _say(message: str) -> None:
    """Print a message line to stderr.  With stderr closed or unwritable, the exit code alone tells."""
    if message and sys.stderr:
        try:
            print(message, file=sys.stderr, flush=True)
        except (OSError, ValueError):
            sys.stderr = None  # else Python flushes the line it kept once more at exit, and exits 120


def _trace_line(rec) -> str:
    return (
        f"p={rec.step} N={rec.n_before} "
        f"s={rec.factor.numerator}/{rec.factor.denominator} "
        f"c.r.={rec.compression_ratio_pct:.4f}%"
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        _say(f"error: {exc}")
        return EXIT_INVALID
    except OSError as exc:
        # run_smooth reports a failed read itself, so what reaches here is a write.
        _say(f"error: cannot write output: {exc}")
        return EXIT_IO
