"""Each demo script, and README's library quickstart, runs cleanly against
the package in ``src``, which ``conftest.py`` puts first on the
subprocess's ``PYTHONPATH``; README's table of the s-pass window follows
its law, every test README cites exists, and README names every export.

A demo is copied into a temporary directory first, so that the plots it
writes beside itself land there and not in the repository.
"""

import ast
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rgsmooth

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# How many "...: True" self-check lines each demo prints.
SELF_CHECKS = {"helix_3d": 1, "integer_coarsening": 1}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # A printed self-check, such as "whole == per-axis: True", must hold.
    checks = re.findall(r"^(.*): (True|False)$", proc.stdout, re.MULTILINE)
    assert len(checks) == SELF_CHECKS.get(demo.stem, 0), checks
    assert all(result == "True" for _, result in checks), checks


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    shape, record = proc.stdout.splitlines()
    assert shape == "(51, 2)"
    assert "factor=Fraction(51, 50)" in record and "compression_ratio_pct=49.5" in record


def test_readme_pass_count_table_follows_the_law():
    # Every cell of the table under "What the pass count does", recomputed
    # from sigma_k^2 = N*s*k*(M - k) / (M^2 * (M + 1)) at n = 1001 (N = 1000
    # segments, M = N - s left) and compared at the digits it is printed with.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What the pass count does", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) \| (\S+) \| (\S+) \| (\S+) / (\S+) \|$", section, re.MULTILINE)
    assert [int(row[0]) for row in rows] == [10, 100, 400]
    N = 1000
    for s, *cells in rows:
        s = int(s)
        M = N - s
        mid, first, fifth = [math.sqrt(N * s * k * (M - k) / (M * M * (M + 1))) for k in (M / 2, 1, 5)]
        values = [mid, mid / math.sqrt(s), first, fifth]
        for printed, value in zip(cells, values):
            assert printed == f"{value:.{len(printed.partition('.')[2])}f}", (s, printed, value)


def test_readme_test_references_resolve():
    # Every `test_<module>.py::<name>` that README cites names a test
    # function or method of that module; a trailing * matches as a prefix.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = re.findall(r"`([^`]*::[^`]*)`", readme)
    assert cited
    for ref in cited:
        assert re.fullmatch(r"test_\w+\.py::test_\w+\*?", ref), ref
        module, name = ref.split("::")
        tree = ast.parse((ROOT / "tests" / module).read_text(encoding="utf-8"))
        tests = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        prefix = name.removesuffix("*")
        assert any(t == name or (name != prefix and t.startswith(prefix)) for t in tests), ref


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in rgsmooth.__all__ if not re.search(rf"`{name}\b", readme)] == []
