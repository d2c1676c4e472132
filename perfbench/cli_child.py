"""Run one gmtkit CLI job and record where its time went.

usage: python [-X importtime] perfbench/cli_child.py TRACE_OUT -- CLI_ARGS...

Splits the job into the import of ``gmtkit.cli`` and the call to
``cli.run``, traces the library calls made inside ``cli.run``, writes
the figures to TRACE_OUT as JSON and exits with the CLI's exit code.
"""

import sys
import time


def main(argv: list[str]) -> int:
    trace_out, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    from gmtkit import cli

    import_s = time.perf_counter() - t0

    import json

    import tracing  # after the timed import: tracing's own imports stay out of it

    tracer = tracing.Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = cli.run(args)
    finally:
        run_s = time.perf_counter() - t1
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({"import_s": import_s, "run_s": run_s, **tracer.totals}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
