"""cli-cold: one gmtkit CLI job per operation, each in a fresh interpreter.

A round runs every subcommand once on small seeded inputs, then reruns
the first ``dim`` job to show that ``--no-timestamp`` output is
byte-identical.  Jobs run one at a time (a closed loop with one caller).
Three known CLI faults are kept out of the round; see the README.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
from pathlib import Path

import numpy as np

import checks
import tracing
from lattice import bump_fields
from workload import Op, rng_for


class JobRunner:
    """Starts CLI jobs one at a time and keeps their peak memory and traces.

    Untraced jobs run ``python -m gmtkit.cli``; traced jobs run the
    benchmark's ``cli_child.py`` wrapper under ``-X importtime``.
    """

    def __init__(self, python: str, bench_dir: Path, env: dict, work_dir: Path):
        self.python = python
        self.bench_dir = bench_dir
        self.env = env
        self.work_dir = work_dir
        self.traced = False
        self.peak_rss_kib = 0
        self.traces: list[dict] = []
        self._count = 0

    def run(self, args: list[str], out_dir: Path) -> Path:
        self._count += 1
        if self.traced:
            trace_path = self.work_dir / f"trace-{self._count}.json"
            importtime_path = self.work_dir / f"importtime-{self._count}.txt"
            cmd = [self.python, "-X", "importtime", str(self.bench_dir / "cli_child.py"),
                   str(trace_path), "--", *args]
        else:
            cmd = [self.python, "-m", "gmtkit.cli", *args]
            importtime_path = self.work_dir / "job-stderr.txt"
        with open(importtime_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            # wait4 reaps the child and returns its peak memory; tell Popen it is done
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = importtime_path.read_text()[-2000:]
            raise RuntimeError(f"gmtkit {args[0]} exited {proc.returncode}: {tail}")
        if self.traced:
            trace = json.loads(trace_path.read_text())
            trace["imports"] = tracing.parse_importtime(importtime_path.read_text())
            self.traces.append(trace)
        return out_dir


def _report(out_dir: Path, command: str) -> dict:
    return checks.report_header(json.loads((out_dir / "report.json").read_text()), command)


def _csv_results(out_dir: Path, command: str) -> dict:
    flat = checks.csv_report((out_dir / "report.csv").read_text())
    checks.require(flat.get("schema") == checks.SCHEMA, f"schema {flat.get('schema')!r}")
    checks.require(flat.get("command") == command, f"command {flat.get('command')!r}")
    checks.require("timestamp" not in flat, "--no-timestamp report carries a timestamp")
    return {k[len("results."):]: v for k, v in flat.items() if k.startswith("results.")}


def _svg(path: Path) -> None:
    checks.require(path.is_file() and path.read_text().startswith("<svg"), f"{path.name} missing")


def write_inputs(seed: int, inputs: Path) -> dict:
    """Write every job's input file; return what the checks need to know."""
    from gmtkit import hausdorff as hd
    from gmtkit.grids import GridFunction, RasterSet

    inputs.mkdir(parents=True, exist_ok=True)
    facts = {}

    weights = rng_for(seed, "cli-measure").standard_normal(8)
    (inputs / "mu.json").write_text(json.dumps(
        {"atoms": list(range(8)), "m": 1, "weights": [[float(w)] for w in weights]}))
    facts["weights"] = weights

    t = float(rng_for(seed, "cli-cantor").random())
    (inputs / "cantor.json").write_text(json.dumps({
        "maps": [{"ratio": 1 / 3, "offset": [b + 2 / 3 * t]} for b in (0.0, 2 / 3)],
        "depth": 14,
    }))

    n = 192
    axis = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    hd.PointCloud(np.stack([gx.ravel(), gy.ravel()], axis=1)
                  + rng_for(seed, "cli-grid").random(2) / n).to_csv(inputs / "grid.csv")

    # half-line {x >= b} with b on a cell edge
    h = 1 / 8192
    b = int(rng_for(seed, "cli-density").integers(3072, 5120)) * h
    RasterSet.from_predicate(lambda x: x >= b, [0.0], [8192], h).to_csv(inputs / "half.csv")
    facts["edge"], facts["edge_h"] = b, h

    field = rng_for(seed, "cli-mollify").standard_normal((128, 128))
    GridFunction(field, [0.0, 0.0], 1 / 128).to_csv(inputs / "field.csv")
    facts["field"] = field

    GridFunction.from_callable(lambda x: np.maximum(x, 0.0), [-1.0], [2000], 1e-3) \
        .to_csv(inputs / "xplus.csv")
    GridFunction.from_callable(lambda x: (x > 0).astype(float), [-1.0], [2000], 1e-3) \
        .to_csv(inputs / "heaviside.csv")

    bumps, = bump_fields(rng_for(seed, "cli-sobolev"), 1)
    GridFunction(bumps, [0.0, 0.0], 1 / 96).to_csv(inputs / "bumps.csv")
    GridFunction(np.full((64, 64), 2.25), [0.0, 0.0], 1 / 64).to_csv(inputs / "const.csv")

    rng = rng_for(seed, "cli-bv")
    N = 4096
    stairs = 0.3 * np.sin(2 * math.pi * (np.arange(N) + 0.5) / N * (1 + rng.random()))
    for loc, height in zip(rng.choice(np.arange(100, N - 100), 8, replace=False),
                           rng.uniform(0.2, 1.0, 8)):
        stairs[loc + 1:] += height
    GridFunction(stairs, [0.0], 1 / N).to_csv(inputs / "stairs.csv")
    facts["stairs"], facts["stairs_h"] = stairs, 1 / N

    centre, width = 0.3 + 0.4 * rng.random(2), 8 + 10 * rng.random()
    GridFunction.from_callable(
        lambda x, y: np.exp(-width * ((x - centre[0]) ** 2 + (y - centre[1]) ** 2)),
        [0.0, 0.0], [256, 256], 1 / 256,
    ).to_csv(inputs / "bump2d.csv")

    facts["helix"] = tuple(sorted(float(v) for v in rng_for(seed, "cli-helix").uniform(0.0, 2.0, 2)))
    return facts


def build(seed: int, work_dir: Path, runner: JobRunner) -> list[Op]:
    inputs = work_dir / "inputs"
    facts = write_inputs(seed, inputs)
    ops = []

    def job(name: str, command: str, args: list[str], check) -> None:
        out = work_dir / "out" / name
        argv = [command, *args, "--output", str(out), "--seed", str(seed), "--no-timestamp"]
        ops.append(Op(name, lambda: runner.run(argv, out), check))

    def check_measure(out):
        res = _csv_results(out, "measure")
        w = facts["weights"]
        checks.close("total variation", res["total_variation"], float(np.abs(w).sum()), 1e-12)
        for i, wi in enumerate(w):
            checks.close(f"jordan part {i}",
                         res[f"jordan_positive[{i}]"] - res[f"jordan_negative[{i}]"], wi, 0.0)
        positive = [k for k in res if k.startswith("hahn_positive_atoms[")]
        checks.require(sorted(res[k] for k in positive) == [i for i, wi in enumerate(w) if wi >= 0],
                       "Hahn positive set differs from the atoms of nonnegative weight")

    job("measure", "measure", ["--input", str(inputs / "mu.json"), "--format", "csv"], check_measure)

    dim_args = ["--input", str(inputs / "cantor.json"), "--scales", "3..12", "--plot", "svg"]

    def check_dim_cantor(out):
        checks.cantor_slope(_report(out, "dim")["slope"])
        _svg(out / "loglog.svg")

    job("dim-ifs", "dim", dim_args, check_dim_cantor)
    job("dim-points", "dim", ["--input", str(inputs / "grid.csv"), "--scales", "4..7"],
        lambda out: checks.square_grid_slope(_report(out, "dim")["slope"]))

    def check_density(out):
        res = _report(out, "density")
        b, h = facts["edge"], facts["edge_h"]
        centres = (np.arange(8192) + 0.5) * h
        for r, ratio in zip(res["radii"], res["ratios"]):
            inball = np.abs(centres - b) <= r
            want = min(float((inball & (centres >= b)).sum()) * h / (2 * r), 1.0)
            checks.close(f"density ratio at r={r:.4g}", ratio, want, 1e-12)
        # symmetric balls about a cell edge: off 1/2 by at most h / r
        checks.close("density limit", res["limit_estimate"], 0.5, h / min(res["radii"]))
        checks.require(res["classification"] == "boundary", f"class {res['classification']!r}")

    job("density", "density", ["--input", str(inputs / "half.csv"), "--point", repr(facts["edge"])],
        check_density)

    def check_mollify(out):
        res = _report(out, "mollify")
        checks.mollifier_mass(res["kernel_mass"])
        values, _, h = checks.read_lattice_csv(out / res["output_grid"])
        cells = rng_for(seed, "cli-mollify-probe").integers(0, min(values.shape), (16, 2))
        checks.mollified_cells(values, facts["field"], 0.05, h, cells)

    job("mollify", "mollify", ["--input", str(inputs / "field.csv"), "--eps", "0.05"], check_mollify)
    job("weakdiff", "weakdiff",
        ["--input", str(inputs / "xplus.csv"), "--input", str(inputs / "heaviside.csv")],
        lambda out: checks.weak_residual(_report(out, "weakdiff")["residual"]))
    job("sobolev-gns", "sobolev", ["--input", str(inputs / "bumps.csv"), "--p", "1"],
        lambda out: checks.sobolev_gns(_report(out, "sobolev"), 1.0, 2))
    job("sobolev-bmo", "sobolev", ["--input", str(inputs / "const.csv"), "--p", "2"],
        lambda out: checks.sobolev_bmo_constant(_report(out, "sobolev")))
    job("bv-1d", "bv", ["--input", str(inputs / "stairs.csv")],
        lambda out: checks.bv_1d(_report(out, "bv"), facts["stairs"], facts["stairs_h"]))

    def check_bv_2d(out):
        res = _report(out, "bv")
        grad, coarea = res["variation_gradient_integral"], res["variation_coarea"]
        checks.variation_routes(grad, coarea, 0.0)
        _svg(out / "levels.svg")

    job("bv-2d", "bv", ["--input", str(inputs / "bump2d.csv"), "--plot", "svg"], check_bv_2d)

    lo, hi = facts["helix"]
    job("area-helix", "area", ["--map", "helix", "--range", f"{lo!r},{hi!r}"],
        lambda out: checks.helix_length(_report(out, "area")["length"], lo, hi))
    job("area-sphere", "area", ["--map", "sphere", "--format", "csv"],
        lambda out: checks.sphere_area(_csv_results(out, "area")["surface_measure"]))

    def multiplicity_sides(name):
        def check(out):
            res = _report(out, "area")
            checks.area_formula_sides(name, res["multiplicity_integral"],
                                      res["jacobian_integral"], want=2.0)
        return check

    job("area-fold", "area", ["--map", "fold"], multiplicity_sides("fold (2 laps)"))
    job("area-square", "area", ["--map", "square"], multiplicity_sides("x^2 on ]-1,1["))
    job("area-polar", "area", ["--map", "polar"],
        lambda out: checks.polar_disk_area(_report(out, "area")["surface_measure"]))

    def check_rerun(out):
        first = work_dir / "out" / "dim-ifs"
        for name in ("report.json", "loglog.svg"):
            checks.require((out / name).read_bytes() == (first / name).read_bytes(),
                           f"--no-timestamp rerun changed {name}")

    job("dim-ifs-rerun", "dim", dim_args, check_rerun)
    return ops


def aggregate_traces(traces: list[dict], rounds: int) -> dict:
    """Per-layer figures from the traced jobs of a run, per round."""
    totals = tracing.empty_totals()
    for t in traces:
        tracing.add_totals(totals, t)
    per_layer = tracing.totals_to_metrics(totals, rounds)
    per_layer["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    per_layer["cli.run_s"] = statistics.median(t["run_s"] for t in traces)
    return per_layer
