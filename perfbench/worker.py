"""One benchmark process: set a workload up, then run it in whole rounds.

usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORK_DIR SRC [--setup-only]

Prints ``READY`` once the workload is set up (gmtkit imported, inputs
generated, warm-up calls made).  With ``--setup-only`` it exits there.
Otherwise it runs the number of whole rounds of the workload's operations,
one at a time, whose total time comes closest to SECONDS, checks every
output, and prints one ``RESULT <json>`` line.

With TRACE = 1 untraced and traced rounds alternate, in pairs, until
SECONDS have passed.  The gap between the two is the tracing overhead,
and the traced rounds give the per-layer figures.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "geometry", "lattice")


class Tally:
    """Operations attempted, failed and checked over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.wrong: list[str] = []  # operations whose output failed a check
        self.latencies: list[float] = []

    def run_rounds(self, ops, seconds: float | None = None, rounds: int | None = None):
        """Exactly ``rounds`` whole rounds, or the number of whole rounds
        (at least one) whose total time comes closest to ``seconds``.

        A new round starts only while it is expected to end nearer to
        ``seconds`` than stopping now would, so a run overshoots by at most
        about half a round.  Returns the busy time (check time left out)
        of each round.
        """
        busy = []
        start = time.perf_counter()

        def more() -> bool:
            if rounds is not None:
                return len(busy) < rounds
            elapsed = time.perf_counter() - start
            return not busy or elapsed + elapsed / len(busy) / 2 < seconds

        while more():
            t_round, check_s = time.perf_counter(), 0.0
            for op in ops:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # an operation that fails is counted, not fatal
                    self.failed += 1
                    self.errors.append(f"{op.name} failed: {exc!r}")
                    continue
                t1 = time.perf_counter()
                self.latencies.append(t1 - t0)
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    self.wrong.append(f"{op.name}: {exc}")
                check_s += time.perf_counter() - t1
            busy.append(time.perf_counter() - t_round - check_s)
        return busy


def machine() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        try:
            threads = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, work_dir, src = argv[:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    work_dir, src = Path(work_dir), Path(src).resolve()
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    work_dir.mkdir(parents=True, exist_ok=True)

    import gmtkit

    if not Path(gmtkit.__file__).resolve().is_relative_to(src):
        print(f"gmtkit loaded from {gmtkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if trace else None
    runner = None
    if workload == "cli-cold":
        import cli_cold

        runner = cli_cold.JobRunner(sys.executable, BENCH_DIR, dict(os.environ), work_dir)
        ops = cli_cold.build(seed, work_dir, runner)
    else:
        wl = importlib.import_module(workload)
        if tracer:  # first calls happen during warm-up
            tracer.install()
        ops = wl.build(seed, work_dir)
        wl.warm_up(work_dir)
        if tracer:
            tracer.uninstall()
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    tally = Tally()
    result = {"machine": machine()}
    if not trace:
        result["round_s"] = tally.run_rounds(ops, seconds=seconds)
        result["rounds"] = len(result["round_s"])
    else:
        # untraced and traced rounds alternate, so drift in the machine's speed
        # and first-round costs do not fall on one side of the comparison
        if runner:
            trace_on, trace_off = (lambda: setattr(runner, "traced", True),
                                   lambda: setattr(runner, "traced", False))
        else:
            tracer.reset()
            trace_on, trace_off = tracer.install, tracer.uninstall
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain += tally.run_rounds(ops, rounds=1)
            trace_on()
            traced += tally.run_rounds(ops, rounds=1)
            trace_off()
        if runner:
            per_layer = cli_cold.aggregate_traces(runner.traces, len(traced))
            result["import_samples"] = [t["imports"] for t in runner.traces]
        else:
            per_layer = tracing.totals_to_metrics(tracer.totals, len(traced))
        per_layer["trace.overhead_pct"] = 100.0 * (sum(traced) - sum(plain)) / sum(plain)
        result["rounds"], result["per_layer"] = len(plain) + len(traced), per_layer
    peak = runner.peak_rss_kib if runner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors, wrong=tally.wrong,
                  latencies=tally.latencies, peak_rss_kib=peak)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
