"""Mutant audit: does the suite fail on each known fault of the package?

Not collected by pytest.  From the repository root:

    python tests/mutants.py [--workdir DIR] [NAME-SUBSTRING ...]

Each mutant (or each whose name holds a given substring) replaces one
exact text in one package file of a fresh copy of the tree under DIR,
and ``pytest -x -q --hypothesis-seed=0`` runs there, the mutated
module's own test file (``tests/test_<module>.py``) first and c04a
deselected.  Prints ``killed by <first failing test>``,
``survived`` (expected only of a mutant marked equivalent, which gives
the same bytes) or ``stale`` (the text no longer occurs exactly once:
update the mutant).  Exits 1 if a mutant not marked equivalent survived
or went stale.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
C04A = "tests/test_acceptance.py::test_c04_five_value_grid_after_95_steps"
S, R, I, C = "smoothing.py", "rescale.py", "io.py", "chain.py"
THIRD = "out[three] += (c2[three] / float(den))[:, None] * t[first[three] + 2]"

# (what it breaks, package file, old text, new text, equivalent)
MUTANTS = [
    ("table: w0 and w1 swapped", S, "for w0, w1 in _table", "for w1, w0 in _table", False),
    ("table: weights repeated along rows", S, "np.repeat(weights, d, axis=2)", "np.repeat(weights, d, axis=1)", False),
    ("table: budget without d", S, "if n * steps * d <= _TABLE_MAX:", "if n * steps <= _TABLE_MAX:", False),
    ("block weights taken from row 0", S, "points[lo : hi + steps + 1], lo,", "points[lo : hi + steps + 1], 0,", False),
    ("ramp top ignores lo", S, "top = np.arange(2)[:, None] + np.arange(h), n - 1.0 - lo",
     "top = np.arange(2)[:, None] + np.arange(h), n - 1.0", False),
    ("ramp bottom ignores lo", S, "np.arange(lo + 1.0, lo + h + 1)", "np.arange(1.0, h + 1)", False),
    ("interior cuts shifted by one row", S, "cuts = [(n - steps) * i // blocks for",
     "cuts = [(n - steps) * i // blocks + (0 < i < blocks) for", False),
    ("one-column output buffer", S, "np.empty((n - steps, points.shape[1]))", "np.empty((n - steps, 1))", False),
    ("block missing its last input row", S, "points[lo : hi + steps + 1]", "points[lo : hi + steps]", False),
    ("table: only the first coordinate merged", S, "t += b", "t[:, 0] += b[:, 0]", False),
    ("generator: only the first coordinate merged", S, "g[0] += g[1]", "g[0, :, 0] += g[1, :, 0]", False),
    ("generator: weights off by one pass", S, "in _weights(h, lo, n, steps):", "in _weights(h, lo, n - 1, steps):", False),
    ("generator: sum written out", S, "g[0] += g[1]", "g[0] = g[0] + g[1]", True),
    ("smooth_to_ratio: floor for ceiling", S, "k = -(-num * (n + 1) // (100 * den))",
     "k = num * (n + 1) // (100 * den)", False),
    ("smooth_to_ratio: ratio rounded twice", S, "k = -(-num * (n + 1) // (100 * den))",
     "k = int(-(-target * (n + 1) / 100 // 1))", False),
    ("smooth_to_ratio: unreachable one step late", S, "if k > n - 1:", "if k > n:", False),
    ("smooth_to_ratio: a zero target runs one pass", S, "k = -(-num * (n + 1) // (100 * den))",
     "k = max(1, -(-num * (n + 1) // (100 * den)))", False),
    ("optimal_scaling: 2 from 50 segments on", S, "return Fraction(n, n - 1)",
     "return Fraction(n, n - 1) if n < 50 else Fraction(2)", False),
    ("optimal_scaling: 3/2 at 2 segments", S, "return Fraction(n, n - 1)",
     "return Fraction(n, n - 1) if n > 2 else Fraction(3, 2)", False),
    ("optimal_scaling: (n + 1)/n", S, "return Fraction(n, n - 1)", "return Fraction(n + 1, n)", False),
    ("compression_ratio: always 50", S, "return 100 * (n_orig - n_cur) / (n_orig + 1)", "return 50.0", False),
    ("rescale: weights rounded as c0 * (1/den)", R, "t[first] * (c0 / float(den))", "t[first] * (c0 * (1.0 / den))",
     False),
    ("rescale: third term dropped", R, THIRD, "pass", False),
    ("rescale: second term from the first axis only", R, "t[first + 1] * (c1 / float(den))[:, None]",
     "t[first + 1][:, :1] * (c1 / float(den))[:, None]", False),
    ("rescale: c1 capped at den + 1", R, "c1 = np.minimum(den, num - c0)", "c1 = np.minimum(den + 1, num - c0)",
     False),
    ("overlap_coefficients: weights over num", R, "Fraction(c, den)", "Fraction(c, num)", False),
    ("rescale: rows of one segment fewer", R, "_lattice_rows(t.shape[0], num, den)",
     "_lattice_rows(t.shape[0] - 1, num, den)", False),
    ("to_dense: no third entry", R, "in row.entries:\n                dense[k, j]",
     "in row.entries[:2]:\n                dense[k, j]", False),
    ("column_sums: no third entry", R, "in row.entries:\n                sums[j]",
     "in row.entries[:2]:\n                sums[j]", False),
    ("rescale_integer: one run short", R, "n_new = chain.n_segments // factor",
     "n_new = max(1, chain.n_segments // factor - 1)", False),
    ("rescale: third term added first", R, THIRD,
     "out[three] = (c2[three] / float(den))[:, None] * t[first[three] + 2] + out[three]", True),
    # The largest tick, (first + 1) * den of the last row, is at most (n_old - 1) * den.
    ("rescale: int64 check at >", R, "if n_old * den >= 2**63:", "if n_old * den > 2**63:", True),
    ("io: _num at 5 digits", I, 'f"{float(value):.6g}"', 'f"{float(value):.5g}"', False),
    ("io: the fast parse takes one row", I, "if len(points) < 2 or", "if len(points) < 1 or", False),
    ("io: a flat axis padded by 0.25", I, "np.where(span == 0.0, 0.5,", "np.where(span == 0.0, 0.25,", False),
    ("chain: the input buffer aliased", C, "np.array(arr, dtype=np.float64)", "np.asarray(arr, dtype=np.float64)",
     False),
    ("chain: text in object arrays read as numbers", C, 'text = arr.dtype.kind == "O" and any(',
     "text = False and any(", False),
    ("cli: the input points written", "cli.py", "write_points(result.output, schema)",
     "write_points(polyline, schema)", False),
]


def audit(path, old, new, workdir):
    """'stale', 'survived', or the first failing test's id."""
    tree = tempfile.mkdtemp(prefix="mutant-", dir=workdir)
    try:
        for name in COPIED:
            (shutil.copytree if os.path.isdir(os.path.join(ROOT, name)) else shutil.copy)(
                os.path.join(ROOT, name), os.path.join(tree, name))
        target = os.path.join(tree, "src", "rgsmooth", path)
        with open(target, encoding="utf-8") as f:
            text = f.read()
        if text.count(old) != 1:
            return "stale"
        with open(target, "w", encoding="utf-8") as f:
            f.write(text.replace(old, new))
        files = sorted(f for f in os.listdir(os.path.join(tree, "tests")) if re.fullmatch(r"test_.*\.py", f))
        files.sort(key=lambda f: f != f"test_{path}")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "--deselect", C04A, *(os.path.join("tests", f) for f in files)]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
        return "survived" if proc.returncode == 0 else failed.group(1) if failed else f"exit {proc.returncode}"
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="where the mutated copies go")
    parser.add_argument("names", nargs="*", help="run only mutants whose name holds one of these")
    args = parser.parse_args()
    bad = 0
    for name, path, old, new, equivalent in MUTANTS:
        if args.names and not any(part in name for part in args.names):
            continue
        start = time.perf_counter()
        outcome = audit(path, old, new, args.workdir)
        verdict = outcome if outcome in ("stale", "survived") else f"killed by {outcome}"
        bad += outcome == "stale" or (outcome == "survived" and not equivalent)
        note = " (equivalent)" if equivalent else ""
        print(f"{name}{note}: {verdict} in {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
