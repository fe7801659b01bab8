"""Each demo script runs cleanly against the package in ``src``, which
``conftest.py`` puts first on the demo's ``PYTHONPATH``.

A demo is copied into a temporary directory first, so that the plots it
writes beside itself land there and not in the repository.
"""

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
