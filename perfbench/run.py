"""rgsmooth benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--trace 0`` measures set-up (median of fresh interpreters
that import rgsmooth and run one warm-up job), then runs jobs back to
back for S seconds and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each job untraced and then traced, in turn, for 2 x S
seconds and reports the per-layer metrics.  Every output is checked
against the benchmark's own reference after the loop.  A table goes to
stdout first, then one JSON line with the metrics BENCHMARK.json names;
a fuller record, with the environment, goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
SETUP_PROBES = 5
IMPORT_PROBES = 5
LIMITS = (
    "shared host: other tenants' load can stretch any timing",
    "no page-cache control: the cli_file input is read from the page cache after the first job",
    "no whole-machine tracing: spans cover only the benchmark's own processes",
)
IMPORT_CLI = "import time; t = time.perf_counter(); import rgsmooth.cli; print(time.perf_counter() - t)"


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "rgsmooth", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: no rgsmooth sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if args.workload == "all":
        return run_all(args, names)
    sys.path.insert(0, SRC)
    import rgsmooth

    if os.path.dirname(os.path.abspath(rgsmooth.__file__)) != os.path.join(SRC, "rgsmooth"):
        print(f"error: rgsmooth imported from {rgsmooth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            result = measure_traced(args, work_dir)
        else:
            result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in spec[kind]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **result, "environment": environment()}
    report(record, metrics)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def measure(args, work_dir: str) -> dict:
    workload = prepare(args, work_dir)
    setup = [probe(args.workload, args.seed, work_dir) for _ in range(SETUP_PROBES)]
    workload.warmup()
    loop = timed_loop(workload, args.seconds)
    who = resource.RUSAGE_SELF if workload.rusage_who == "self" else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6
    checks = [workload.check(i, out) for i, out in loop["outputs"]]
    failed = sum(not c.ok for c in checks)
    times = loop["times"]
    p90 = float(statistics.quantiles(times, n=10)[-1]) if len(times) >= 2 else times[0]
    beyond = sum(t > p90 for t in times)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "failures": [c.reason for c in checks if not c.ok][:5],
        "jobs": len(times),
        "metrics": {
            "setup_s": statistics.median(p["import_s"] + p["job_s"] for p in setup),
            "job_s_p50": statistics.median(times),
            "job_s_p90": p90 if beyond >= 10 else None,
            "jobs_per_s": len(times) / loop["wall_s"],
            "peak_rss_mb": peak_rss_mb,
            "error_rate": failed / len(checks),
        },
        "setup_probes": setup,
        "p90_jobs_beyond": beyond,
    }


def measure_traced(args, work_dir: str) -> dict:
    """Alternate untraced and traced runs of each job for 2 x ``seconds``,
    so that both see the same load on the host."""
    import tracing

    workload = prepare(args, work_dir)
    workload.warmup()
    tracer = tracing.Tracer()
    plain, traced, checks = [], [], []
    i = 0
    deadline = time.perf_counter() + 2 * args.seconds
    while time.perf_counter() < deadline:
        seconds, out = run_job(workload, i)
        plain.append(seconds)
        checks.append(workload.check(i, out))
        workload.tracer = tracer
        with tracing.installed(tracer):
            seconds, out = run_job(workload, i, tracer)
        workload.tracer = None
        traced.append(seconds)
        checks.append(workload.check(i, out))
        i += 1
    failed = sum(not c.ok for c in checks)
    faults = tracing.nesting_faults(tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    tracing.write_spans(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"), tracer.spans)

    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    imports = [float(subprocess.run([sys.executable, "-c", IMPORT_CLI], capture_output=True, text=True,
                                    check=True).stdout) for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["smoothing.max_rel_err"] = max(c.rel_err for c in checks)
    metrics["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    return {
        "correct": failed == 0 and faults == 0,
        "attempted": len(checks),
        "failed": failed,
        "failures": [c.reason for c in checks if not c.ok][:5],
        "jobs": {"untraced": len(plain), "traced": len(traced)},
        "spans": len(tracer.spans),
        "nesting_faults": faults,
        "min_self_ns": min(selfs.values(), default=0),
        "metrics": metrics,
    }


def prepare(args, work_dir: str):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    if hasattr(workload, "write_input"):
        workload.write_input()
    return workload


def probe(name: str, seed: int, work_dir: str) -> dict:
    """Set-up of one fresh interpreter: import time plus one warm-up job."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), work_dir],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def run_job(workload, i, tracer=None) -> tuple[float, object]:
    """Run job ``i`` and return its time and output.  A job that raises
    returns its exception, which its check counts as failed."""
    span = None
    if tracer is not None:
        tracer.job = i
        span = tracer.open("job")
    start = time.perf_counter()
    try:
        out = workload.job(i)
    except Exception as exc:  # a failed job is counted, not fatal
        out = exc
    seconds = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return seconds, out


def timed_loop(workload, seconds: float) -> dict:
    """Run jobs 0, 1, ... back to back until ``seconds`` have passed."""
    times, outputs = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not times or time.perf_counter() < deadline:
        job_s, out = run_job(workload, len(times))
        outputs.append((len(times), out))
        times.append(job_s)
    return {"times": times, "outputs": outputs, "wall_s": time.perf_counter() - start}


def report(record: dict, metrics: dict) -> None:
    print(f"rgsmooth benchmark  workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}  jobs={json.dumps(record['jobs'])}")
    if record["trace"]:
        print(f"  spans={record['spans']}  nesting faults={record['nesting_faults']}  "
              f"min self time={record['min_self_ns']} ns")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        extra = record["metrics"]
        p90 = extra["job_s_p90"]
        beyond = record["p90_jobs_beyond"]
        print(f"  {'job_s_p90':34s} " + (f"{p90:.6g} s  ({beyond} of {record['jobs']} jobs beyond it)"
                                         if p90 is not None else
                                         f"n/a  (only {beyond} of {record['jobs']} jobs beyond p90; needs 10)"))
        print(f"  {'error_rate':34s} {extra['error_rate']:.6g}  ({record['failed']}/{record['attempted']})")
    for reason in record["failures"]:
        print(f"  FAILED: {reason}")
    env = record["environment"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu_model']}; "
          f"caches {env['caches']}; commit {env['commit']}; src sha256 {env['src_sha256'][:12]}")
    print("  limits: " + "; ".join(env["limits"]))


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "limits": list(LIMITS),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    found = []
    try:
        for index in sorted(os.listdir(base)):
            def read(field):
                with open(os.path.join(base, index, field), encoding="utf-8") as fh:
                    return fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
            found.append(f"L{read('level')}{kind} {read('size')}")
    except OSError:
        pass
    return ", ".join(found) or "unknown"


def _commit() -> str:
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    """SHA-256 over the package sources; identifies the code when no git
    commit is available."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "rgsmooth"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_all(args, names: list[str]) -> int:
    """Run every workload in its own process and print each one's table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
