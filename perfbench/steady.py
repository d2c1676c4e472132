"""Steadiness of the benchmark on one commit.

usage: python3 perfbench/steady.py [--runs 10] [--workloads cli-cold,geometry]
                                   [--seed0 100] [--out FILE]
       python3 perfbench/steady.py --compare FIRST.json SECOND.json

The first form runs each workload ``--runs`` times (seeds seed0, seed0+1,
...) for ``run_seconds`` as given in BENCHMARK.json, and prints for every
end-to-end metric its median, quartiles and spread -- the distance
between the quartiles as a share of the median -- next to the metric's
bound.  A spread under a third of the bound is marked ``ok``.  All values
are saved as JSON (by default under ``.perfbench/``).

The second form compares two saved sets: for each metric the second
median's change against the first, in the metric's worse direction, next
to its bound, and whether the share of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steal_ticks() -> int | None:
    """Time the hypervisor took the CPUs away, from /proc/stat (Linux guests)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def collect(workloads: list[str], runs: int, seed0: int, seconds: int) -> dict:
    sets = {}
    for workload in workloads:
        rows = []
        for i in range(runs):
            seed = seed0 + i
            t0, s0 = time.monotonic(), steal_ticks()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
            wall = time.monotonic() - t0
            s1 = steal_ticks()
            # share of the machine's CPU time taken by the hypervisor meanwhile
            steal = (s1 - s0) / (os.sysconf("SC_CLK_TCK") * wall * os.cpu_count()) if s0 else None
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append({"seed": seed, "wall_s": wall, "steal": steal, **line})
            print(f"  {workload} seed={seed} wall={wall:.1f}s steal={steal if steal is None else f'{steal:.1%}'} "
                  f"correct={line['correct']} attempted={line['attempted']} failed={line['failed']}",
                  flush=True)
        sets[workload] = rows
    return sets


def report(sets: dict) -> bool:
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    steady = True
    print(f"{'workload':10s} {'metric':13s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, rows in sets.items():
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            gated = name != "setup_s"
            verdict = "ok" if spread <= m["bound"] / 3 else ("within" if spread <= m["bound"] else "WIDE")
            if gated and verdict == "WIDE":
                steady = False
            print(f"{workload:10s} {name:13s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {m['bound']:6.0%} {verdict if gated else '(not gated)'}")
        failed = {r["failed"] / r["attempted"] for r in rows}
        wrong = [r["seed"] for r in rows if not r["correct"]]
        print(f"{workload:10s} failed share {sorted(failed)}; incorrect seeds {wrong or 'none'}")
    return steady


def compare(first: dict, second: dict) -> bool:
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    agree = True
    for workload in first:
        a_rows, b_rows = first[workload], second[workload]
        for name, m in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in a_rows)
            b = statistics.median(r["metrics"][name]["value"] for r in b_rows)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            agree &= ok
            print(f"{workload:10s} {name:13s} {a:12.6g} -> {b:12.6g} worse by {worse:+7.2%} "
                  f"(bound {m['bound']:.0%}) {'ok' if ok else 'REGRESSED'}")
        shares = [{r["failed"] / r["attempted"] for r in rows} for rows in (a_rows, b_rows)]
        same = shares[0] == shares[1] and len(shares[0]) == 1
        agree &= same
        print(f"{workload:10s} failed share {sorted(shares[0])} vs {sorted(shares[1])} "
              f"{'same' if same else 'DIFFERENT'}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    sets = collect(workloads, args.runs, args.seed0, s["run_seconds"])
    out = Path(args.out) if args.out else ROOT / ".perfbench" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    print(f"values saved to {out}")
    return 0 if report(sets) else 1


if __name__ == "__main__":
    sys.exit(main())
