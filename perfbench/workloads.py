"""The benchmark's workloads: seeded inputs, one job, and its output check.

Each workload is one closed-loop caller: ``job(i)`` runs job ``i`` and
returns its output, ``check(i, out)`` compares that output with the
reference outside job timing, and ``warmup()`` runs one job the way a
first caller would.  Library jobs call rgsmooth through the package's
attributes, so installed span wrappers see them.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np

import inputs
import rgsmooth
import tracing
from reference import Check, check_cli, check_points, ratio_steps, reference_smooth

HERE = os.path.dirname(os.path.abspath(__file__))
LONG_TRACK_STEPS = 1000
TARGET_CR_PCT = 90
CLI_STEPS = 20
CLI_TIMEOUT_S = 120


class LongTrack:
    """One 10001-point sine-noise curve through ``smooth(steps=1000)``."""

    rusage_who = "self"

    def __init__(self, seed: int, work_dir: str):
        self.curve = inputs.long_track(seed)

    @functools.cached_property
    def reference(self) -> np.ndarray:
        return reference_smooth(self.curve, LONG_TRACK_STEPS)

    def job(self, i) -> np.ndarray:
        return rgsmooth.smooth(rgsmooth.Polyline(self.curve), LONG_TRACK_STEPS).output.points

    def check(self, i, out) -> Check:
        return check_points(self.curve, LONG_TRACK_STEPS, out, self.reference)

    def warmup(self) -> None:
        self.job(0)


class ManyShort:
    """A stream of short 2-D sine-noise and 3-D helix curves of ragged
    length, each through ``smooth_to_ratio(curve, 90)``."""

    rusage_who = "self"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    @functools.cached_property
    def pool(self) -> list[np.ndarray]:
        return inputs.short_stream(self.seed)

    def curve(self, i) -> np.ndarray:
        # Past the pool's end the stream repeats; at the seed commit a
        # run uses about a fifth of it.
        return self.pool[i % len(self.pool)]

    def job(self, i) -> np.ndarray:
        return rgsmooth.smooth_to_ratio(rgsmooth.Polyline(self.curve(i)), TARGET_CR_PCT).output.points

    def check(self, i, out) -> Check:
        curve = self.curve(i)
        steps = ratio_steps(curve.shape[0], TARGET_CR_PCT)
        return check_points(curve, steps, out, reference_smooth(curve, steps))

    def warmup(self) -> None:
        rgsmooth.smooth_to_ratio(rgsmooth.Polyline(inputs.short_warmup(self.seed)), TARGET_CR_PCT)


class CliFile:
    """Each job is a fresh ``rgsmooth smooth`` process on a 100001-point
    CSV with ``--steps 20 --svg``.  With ``tracer`` set, jobs run through
    the benchmark's launcher and their spans are adopted by the tracer."""

    rusage_who = "children"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.input = os.path.join(work_dir, "input.csv")
        self.tracer: tracing.Tracer | None = None

    @functools.cached_property
    def curve(self) -> np.ndarray:
        return inputs.cli_curve(self.seed)

    @functools.cached_property
    def reference(self) -> np.ndarray:
        return reference_smooth(self.curve, CLI_STEPS)

    def write_input(self) -> None:
        with open(self.input, "wb") as fh:
            fh.write(inputs.csv_bytes(self.curve))

    def _paths(self, i) -> tuple[str, str, str]:
        stem = os.path.join(self.work_dir, f"job{i}")
        return stem + ".csv", stem + ".svg", stem + ".spans"

    def job(self, i) -> int:
        csv_path, svg_path, spans_path = self._paths(i)
        if self.tracer is None:
            head = [sys.executable, "-m", "rgsmooth"]
        else:
            head = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path, str(i)]
        argv = head + ["smooth", "--input", self.input, "--output", csv_path,
                       "--steps", str(CLI_STEPS), "--svg", svg_path]
        code = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S).returncode
        if self.tracer is not None and code == 0:
            self.tracer.adopt(tracing.read_spans(spans_path))
        return code

    def check(self, i, out) -> Check:
        if not isinstance(out, int):
            return Check(False, f"job raised {out!r}")
        csv_path, svg_path, spans_path = self._paths(i)
        try:
            return check_cli(out, csv_path, svg_path, self.curve, CLI_STEPS, self.reference)
        finally:
            for path in (csv_path, svg_path, spans_path):
                if os.path.exists(path):
                    os.remove(path)

    def warmup(self) -> None:
        check = self.check("warmup", self.job("warmup"))
        if not check.ok:
            raise RuntimeError(f"warm-up CLI job failed: {check.reason}")


WORKLOADS = {"long_track": LongTrack, "many_short": ManyShort, "cli_file": CliFile}
