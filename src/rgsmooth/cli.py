"""Command-line interface: smooth CSV curves, generate test signals.

Exit codes: 0 success, 1 I/O failure, 2 invalid input or parse failure,
3 step count beyond what the curve allows (without --clamp).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .chain import Polyline
from .errors import (
    ChainTooShortError,
    InvalidInputError,
    InvalidScalingError,
    ParseError,
    TooManyStepsError,
)
from .io import CsvSchema, emit_svg, read_points, write_points
from .smoothing import smooth, smooth_to_ratio

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_TOO_MANY_STEPS = 3

_INPUT_ERRORS = (ParseError, InvalidInputError, InvalidScalingError, ChainTooShortError)


def generate_points(kind: str, n_points: int, x_max: float, sigma: float, seed: int) -> Polyline:
    """Deterministic noisy test curve on a regular x grid.

    ``sine-noise`` samples sin(x) on ``n_points`` equally spaced x values
    in [0, x_max] and adds Gaussian noise of standard deviation ``sigma``
    drawn from a PCG64 generator seeded with ``seed``.
    """
    if kind != "sine-noise":
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    if n_points < 2:
        raise InvalidInputError(f"need at least 2 points, got {n_points}")
    if not 0 < x_max < math.inf:
        raise InvalidInputError(f"x-max must be positive and finite, got {x_max}")
    if not 0 <= sigma < math.inf:
        raise InvalidInputError(f"sigma must be non-negative and finite, got {sigma}")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    x = np.linspace(0.0, x_max, n_points)
    # abs() turns a sigma of -0.0, which numpy's normal() rejects, into 0.0.
    y = np.sin(x) + np.random.default_rng(seed).normal(0.0, abs(sigma), n_points)
    return Polyline(np.column_stack([x, y]))


def _steps_arg(value: str):
    if value == "max":
        return "max"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'max', got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgsmooth",
        description="Smooth and compress ordered point sequences by iterative segment merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sm = sub.add_parser("smooth", help="smooth a CSV curve")
    sm.add_argument("--input", required=True, help="input CSV path")
    sm.add_argument("--output", required=True, help="output CSV path")
    amount = sm.add_mutually_exclusive_group(required=True)
    amount.add_argument("--steps", type=_steps_arg, help="number of passes, or 'max'")
    amount.add_argument("--target-cr", type=float, dest="target_cr", metavar="PCT",
                        help="smooth until this compression ratio (percent) is reached")
    sm.add_argument("--svg", help="also write an overlay plot to this path")
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
    gen.add_argument("--output", help="output CSV path (default: stdout)")
    gen.set_defaults(func=run_generate)
    return parser


def run_smooth(args) -> int:
    schema = CsvSchema(delimiter=args.delimiter, has_header=args.header)
    try:
        with open(args.input, "rb") as fh:
            polyline = read_points(fh, schema)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.svg and polyline.dimension < 2:
        raise InvalidInputError("SVG overlay requires at least 2 coordinate columns")

    try:
        if args.target_cr is not None:
            result = smooth_to_ratio(polyline, args.target_cr)
        else:
            steps = polyline.n_segments - 1 if args.steps == "max" else args.steps
            result = smooth(polyline, steps)
    except TooManyStepsError as exc:
        if not args.clamp:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TOO_MANY_STEPS
        print(f"warning: clamping to the maximum of {exc.max_steps} steps", file=sys.stderr)
        result = smooth(polyline, exc.max_steps)
    outputs = [(args.output, write_points(result.output, schema))]
    if args.svg:
        outputs.append((args.svg, emit_svg(polyline, result.output)))
    _write_all(outputs)

    if args.trace:
        for rec in result.trace:
            print(_trace_line(rec))
    return EXIT_OK


def run_generate(args) -> int:
    data = write_points(generate_points(args.kind, args.n, args.x_max, args.sigma, args.seed))
    if args.output:
        _write_all([(args.output, data)])
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK


def _write_all(outputs: list[tuple[str, bytes]]) -> None:
    """Write every (path, data) pair, or none of them on an OSError.

    Each file is written in full to a hidden temporary file beside its
    target, and the temporary files replace their targets only once all
    of them are complete.  A symlink is followed, so the link stays and
    its file is replaced.  An existing target that is not a regular file
    (/dev/null, /dev/stdout) is written directly after that.
    """
    staged = []
    for i, (path, data) in enumerate(outputs):
        if os.path.exists(path) and not os.path.isfile(path):
            staged.append((path, None, path, data))
        else:
            target = os.path.realpath(path)
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
            staged.append((path, tmp, target, data))
    try:
        for path, tmp, _, data in staged:
            if tmp is not None:
                with open(tmp, "wb") as fh:
                    fh.write(data)
        for path, tmp, target, data in staged:
            if tmp is not None:
                os.replace(tmp, target)
            else:
                with open(target, "wb") as fh:
                    fh.write(data)
    except OSError as exc:
        # Name the file the user asked for, not its temporary file.
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for _, tmp, _, _ in staged:
            if tmp is not None and os.path.exists(tmp):
                os.remove(tmp)


def _trace_line(rec) -> str:
    return (
        f"p={rec.step} N={rec.n_before} "
        f"s={rec.factor.numerator}/{rec.factor.denominator} "
        f"c.r.={rec.compression_ratio_pct:.4f}%"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        # run_smooth reports a failed read itself, so what reaches here is a write.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
