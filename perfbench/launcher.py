"""Traced CLI job: time ``import rgsmooth.cli``, install the span wrappers,
run ``rgsmooth.cli.main(argv)`` and write the spans as JSON lines.

    python3 perfbench/launcher.py SPANS_PATH JOB_ID smooth --input ... --output ...

Exits with the CLI's own exit code.
"""

import sys

import tracing


def main() -> int:
    spans_path, job, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer(job)
    span = tracer.open("cli.import")
    import rgsmooth.cli

    tracer.close(span)
    with tracing.installed(tracer):
        code = rgsmooth.cli.main(argv)
    tracing.write_spans(spans_path, tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
