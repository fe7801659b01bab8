"""Run the suite against the package in ``src``, installed or not.

``src`` goes first on ``sys.path`` for the tests themselves and first on
the ``PYTHONPATH`` that the CLI and demo subprocesses inherit.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
