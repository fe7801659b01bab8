"""Each demo script, and README's library quickstart, runs cleanly against
the package in ``src``, which ``conftest.py`` puts first on the
subprocess's ``PYTHONPATH``.

A demo is copied into a temporary directory first, so that the plots it
writes beside itself land there and not in the repository.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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
