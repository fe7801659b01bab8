"""Set-up probe for one workload, run in a fresh interpreter.

Times ``import rgsmooth`` (``import rgsmooth.cli`` for cli_file) and then
one warm-up job, and prints both as one JSON line.  Making the warm-up
input is not timed.

    python3 perfbench/probe.py WORKLOAD SEED WORK_DIR
"""

import json
import sys
import time


def main() -> None:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    if name == "cli_file":
        import rgsmooth.cli  # noqa: F401
    else:
        import rgsmooth  # noqa: F401
    import_s = time.perf_counter() - start

    import workloads

    workload = workloads.WORKLOADS[name](seed, work_dir)
    start = time.perf_counter()
    workload.warmup()
    job_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "job_s": job_s}))


if __name__ == "__main__":
    main()
