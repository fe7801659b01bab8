"""Span tracing of rgsmooth's public functions, installed from outside.

:func:`installed` replaces each traced function on every loaded rgsmooth
module that holds it (the defining module and the modules that import
it), and the validating ``__post_init__`` of ``Polyline`` and
``TangentChain``, with a wrapper that records a span.  No file of the
package changes.  Spans stay in memory and are written out at the end.

A span is the list ``[id, name, start_ns, end_ns, parent_id, job, n, m]``;
``n`` and ``m`` are the layer's work counts (bytes, points or segments,
see TARGETS), 0 where a layer has none.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict


def _source_bytes(source, *args, **kwargs) -> int:
    if isinstance(source, (bytes, str)):
        return len(source)
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _points_in(polyline, *args, **kwargs) -> int:
    return getattr(polyline, "n_points", 0)


def _points_out(result) -> int:
    return getattr(getattr(result, "output", None), "n_points", 0)


def _segments_in(chain, *args, **kwargs) -> int:
    return getattr(chain, "n_segments", 0)


# (defining module, attribute, span name, n from the arguments, m from the result)
TARGETS = (
    ("rgsmooth.cli", "main", "cli.main", None, None),
    ("rgsmooth.io", "read_points", "io.read_points", _source_bytes, None),
    ("rgsmooth.io", "write_points", "io.write_points", None, len),
    ("rgsmooth.io", "emit_svg", "io.emit_svg", None, len),
    ("rgsmooth.smoothing", "smooth", "smoothing.smooth", _points_in, _points_out),
    ("rgsmooth.smoothing", "smooth_to_ratio", "smoothing.smooth_to_ratio", _points_in, _points_out),
    ("rgsmooth.chain", "build_chain", "chain.build_chain", None, None),
    ("rgsmooth.chain", "reconstruct", "chain.reconstruct", None, None),
    ("rgsmooth.rescale", "rescale_fractional", "rescale.rescale_fractional", _segments_in, None),
)
VALIDATED = ("Polyline", "TangentChain")  # classes of rgsmooth.chain; span chain.validate
SMOOTHING = ("smoothing.smooth", "smoothing.smooth_to_ratio")


class Tracer:
    def __init__(self, job=None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = job

    def open(self, name: str, n: int = 0) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), name, 0, 0, parent, self.job, n, 0]
        self.spans.append(span)
        self.stack.append(span[0])
        span[2] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self.stack.pop()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by another process (same monotonic clock),
        hanging their roots under the currently open span."""
        offset = len(self.spans)
        root = self.stack[-1] if self.stack else None
        for sid, name, start, end, parent, job, n, m in spans:
            parent = root if parent is None else parent + offset
            self.spans.append([sid + offset, name, start, end, parent, job, n, m])


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, before(*args, **kwargs) if before else 0)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            span[7] = after(result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace the functions in TARGETS and the chain validation while active."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "rgsmooth" or key.startswith("rgsmooth."))]
    undo = []
    for module_name, attr, name, before, after in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    for cls_name in VALIDATED:
        cls = getattr(sys.modules.get("rgsmooth.chain"), cls_name, None)
        original = cls.__dict__.get("__post_init__") if cls is not None else None
        if original is not None:
            undo.append((cls, "__post_init__", original))
            cls.__post_init__ = _wrap(tracer, "chain.validate", original)
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def self_times(spans: list[list]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _, start, end, *_ in spans:
        covered, reach = 0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        result[sid] = end - start - covered
    return result


def nesting_faults(spans: list[list]) -> int:
    """Children that start before their parent, end after it, or overlap
    an earlier sibling.  A single call stack produces none."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    faults = 0
    for parent, intervals in children.items():
        _, _, p_start, p_end, *_ = by_id[parent]
        reach = p_start
        for a, b in sorted(intervals):
            faults += a < reach or b > p_end
            reach = max(reach, b)
    return faults


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-layer figures of a traced run; ``_s`` values are seconds per job."""
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    calls, busy, own, n_sum, m_sum = (defaultdict(int) for _ in range(5))
    passes = point_passes = smoothing_busy = 0
    for sid, name, start, end, parent, _, n, m in spans:
        calls[name] += 1
        busy[name] += end - start
        own[name] += selfs[sid]
        n_sum[name] += n
        m_sum[name] += m
        if name in SMOOTHING and names.get(parent) not in SMOOTHING:
            s = n - m  # one point removed per pass
            passes += s
            point_passes += s * n - s * (s - 1) // 2
            smoothing_busy += end - start

    def per_job_s(ns):
        return ns / 1e9 / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    read, write = "io.read_points", "io.write_points"
    rescale = "rescale.rescale_fractional"
    return {
        "cli.main_self_s": per_job_s(own["cli.main"]),
        "io.read_points_s": per_job_s(busy[read]),
        "io.read_mb_per_s": ratio(n_sum[read] * 1e3, busy[read]),
        "io.write_points_s": per_job_s(busy[write]),
        "io.write_mb_per_s": ratio(m_sum[write] * 1e3, busy[write]),
        "io.emit_svg_s": per_job_s(busy["io.emit_svg"]),
        "io.svg_bytes": m_sum["io.emit_svg"] / jobs,
        "smoothing.smooth_s": per_job_s(busy["smoothing.smooth"]),
        "smoothing.smooth_to_ratio_s": per_job_s(busy["smoothing.smooth_to_ratio"]),
        "smoothing.self_s": per_job_s(sum(own[k] for k in SMOOTHING)),
        "smoothing.passes": passes / jobs,
        "smoothing.us_per_pass": ratio(smoothing_busy / 1e3, passes),
        "smoothing.ns_per_point_pass": ratio(smoothing_busy, point_passes),
        "rescale.rescale_fractional_calls": calls[rescale] / jobs,
        "rescale.rescale_fractional_s": per_job_s(busy[rescale]),
        "rescale.ns_per_segment": ratio(busy[rescale], n_sum[rescale]),
        "chain.build_chain_s": per_job_s(busy["chain.build_chain"]),
        "chain.reconstruct_s": per_job_s(busy["chain.reconstruct"]),
        "chain.validate_calls": calls["chain.validate"] / jobs,
        "chain.validate_s": per_job_s(busy["chain.validate"]),
    }


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
