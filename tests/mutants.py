"""Mutant audit: does the suite fail on each known fault of the package?

Not collected by pytest.  From the repository root:

    python tests/mutants.py [--workdir DIR] [NAME-SUBSTRING ...]

Each mutant (or each whose name holds a given substring) replaces one
exact text in one package file of a fresh copy of the tree under DIR,
and ``pytest -x -q`` runs there, ``tests/test_smoothing.py`` first and
c04a deselected.  Prints ``killed by <first failing test>``,
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
S = "smoothing.py"

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
        files.sort(key=lambda f: f != "test_smoothing.py")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", C04A,
               *(os.path.join("tests", f) for f in files)]
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
