"""Run one gmtkit benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload {cli-cold,geometry,lattice}
                                --seed N --seconds S --trace {0,1}

Run from the root of a gmtkit checkout; the library is imported from its
``src/`` directory.  The workload is set up ``SETUPS`` times in fresh
interpreters; the last of them goes on to the timed rounds.  The last
line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md).  Scratch files go to ``.perfbench/``
at the checkout root and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUPS = 3
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402  (stdlib only)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mib": "MiB",
}


class RunError(RuntimeError):
    """The benchmark itself could not run to its end."""


def _start_worker(args, work_dir: Path, src: Path, index: int, last: bool):
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH_DIR / "worker.py"), args.workload, str(args.seed), str(args.seconds),
            str(args.trace), str(work_dir), str(src)]
    if not last:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    err_path = work_dir / f"worker-{index}.err"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
    return proc, err_path


def run(args) -> dict:
    """Set the workload up SETUPS times; the last set-up runs the rounds."""
    src = ROOT / "src"
    if not (src / "gmtkit" / "__init__.py").is_file():
        raise RunError(f"no gmtkit sources under {src}")
    deadline = time.monotonic() + DEADLINE_S
    work_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    setup_times, import_samples, result_line = [], [], ""
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            t0 = time.perf_counter()
            proc, err_path = _start_worker(args, work_dir, src, i, last)
            watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline().strip() == "READY"
                setup_times.append(time.perf_counter() - t0)
                if ready and last:
                    for line in proc.stdout:
                        if line.startswith("RESULT "):
                            result_line = line[len("RESULT "):]
                if not ready:
                    proc.kill()
            finally:
                proc.wait()
                watchdog.cancel()
                proc.stdout.close()
            if not ready or proc.returncode != 0:
                raise RunError(f"worker exited {proc.returncode}:\n{err_path.read_text()[-3000:]}")
            if args.trace:
                import_samples.append(tracing.parse_importtime(err_path.read_text()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not result_line:
        raise RunError("worker printed no result")
    result = json.loads(result_line)
    result["setup_times"] = setup_times
    result["import_samples"] = result.get("import_samples") or import_samples
    return result


def end_to_end(result: dict) -> dict[str, float]:
    lat = result["latencies"]
    ops_per_round = (result["attempted"] - result["failed"]) / result["rounds"]
    return {
        "setup_s": statistics.median(result["setup_times"]),
        # median over rounds, so that a stall in one round does not set the rate
        "ops_per_s": statistics.median(ops_per_round / t for t in result["round_s"]),
        "op_s_p50": statistics.median(lat),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }


def per_layer(result: dict) -> dict[str, float]:
    values = dict(result["per_layer"])
    for layer in tracing.LAYERS:
        samples = [s[layer] for s in result["import_samples"] if layer in s]
        if samples and f"{layer}.import_s" not in values:
            values[f"{layer}.import_s"] = statistics.median(samples)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "geometry", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for message in result["errors"] + result["wrong"]:
        print(f"perfbench: {message}", file=sys.stderr)
    if args.trace:
        units, values = tracing.metric_units(), per_layer(result)
    else:
        units, values = END_TO_END_UNITS, end_to_end(result)
    m = result["machine"]
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} ops in {result['rounds']} "
          f"round(s); nproc={m['nproc']} blas={m['blas']} blas_threads={m['blas_threads']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
