"""Golden report corpus: a fixed list of CLI jobs and their stored outputs.

``tests/golden/<job>/`` holds every file that ``gmtkit <argv>
--no-timestamp`` writes for one job of ``JOBS``, on the inputs that
``write_inputs`` makes from one seed.  Argv paths are relative to the
working directory, so no report or error.json carries a machine path.
``tests/test_golden.py`` reruns every job in process and compares bytes.

Run this file to rewrite the corpus from the current ``src/``:

    PYTHONPATH=src python tests/golden_corpus.py

It prints every number that moved (key, old value, new value, distance
in units in the last place) and every file that appeared, vanished or
changed shape.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"
SEED = 7

# (name, argv without --output and --no-timestamp, exit code): one job per
# subcommand and branch, exit-1 jobs for validation errors, two inputs
# that break an argument rule (a NaN weight, a candidate on another lattice),
# a 1-D bv on an offset grid, a p whose |v|^p overflows, a helix whose
# Richardson step 4 fine passes the float range, a square range whose image
# is not finite, a kernel width, a point and a p near the float range (the
# Morrey constant 2np/(p - n) passes it at p = 1e308), and a 3-D bv
JOBS = [
    ("measure-json", ["measure", "--input", "mu.json"], 0),
    ("measure-csv", ["measure", "--input", "mu.json", "--format", "csv"], 0),
    ("dim-ifs", ["dim", "--input", "cantor.json", "--scales", "3..10", "--plot", "svg"], 0),
    ("dim-points", ["dim", "--input", "points.csv", "--scales", "2..5"], 0),
    ("density", ["density", "--input", "half.csv", "--point", "-0.5,0"], 0),
    ("mollify", ["mollify", "--input", "f.csv", "--eps", "0.1"], 0),
    ("weakdiff-1d", ["weakdiff", "--input", "xplus.csv", "--input", "heaviside.csv"], 0),
    ("weakdiff-2d", ["weakdiff", "--input", "wave.csv", "--input", "wave_dy.csv", "--axis", "1"], 0),
    ("sobolev-gns", ["sobolev", "--input", "bump.csv", "--p", "1.5"], 0),
    ("sobolev-bmo", ["sobolev", "--input", "bump.csv", "--p", "2"], 0),
    ("sobolev-morrey", ["sobolev", "--input", "f.csv", "--p", "3"], 0),
    ("sobolev-p-1000", ["sobolev", "--input", "f3.csv", "--p", "1000"], 0),
    ("bv-1d", ["bv", "--input", "stairs.csv"], 0),
    ("bv-1d-offset", ["bv", "--input", "step.csv"], 0),
    ("bv-2d", ["bv", "--input", "bump.csv", "--plot", "svg"], 0),
    ("area-helix", ["area", "--map", "helix", "--range", "0,2"], 0),
    ("area-sphere", ["area", "--map", "sphere"], 0),
    ("area-polar", ["area", "--map", "polar"], 0),
    ("area-fold", ["area", "--map", "fold"], 0),
    ("area-square", ["area", "--map", "square"], 0),
    ("density-wrong-dimension", ["density", "--input", "half.csv", "--point", "0.5"], 1),
    ("bv-1d-plot", ["bv", "--input", "xplus.csv", "--plot", "svg"], 1),
    ("area-polar-range", ["area", "--map", "polar", "--range", "0,1"], 1),
    ("bv-h-nan", ["bv", "--input", "hnan.csv"], 1),
    ("measure-eps", ["measure", "--input", "mu.json", "--eps", "0.1"], 1),
    ("measure-nan-weight", ["measure", "--input", "mu_nan.json"], 1),
    ("weakdiff-other-lattice",
     ["weakdiff", "--input", "xplus.csv", "--input", "heaviside_moved.csv"], 1),
    ("area-helix-long", ["area", "--map", "helix", "--range", "0,1e308"], 1),
    ("area-square-overflow", ["area", "--map", "square", "--range", "-1e200,1e200"], 1),
    ("mollify-eps-1e308", ["mollify", "--input", "f.csv", "--eps", "1e308"], 1),
    ("density-far-point", ["density", "--input", "half.csv", "--point", "1e308,0"], 0),
    ("sobolev-p-1e308", ["sobolev", "--input", "f.csv", "--p", "1e308"], 1),
    ("bv-3d", ["bv", "--input", "bump3d.csv"], 0),
]


def write_inputs(where: Path, seed: int = SEED) -> None:
    """Write every job's input file into ``where``, all drawn from ``seed``."""
    from gmtkit.grids import GridFunction, RasterSet
    from gmtkit.hausdorff import PointCloud

    rng = np.random.default_rng(seed)
    (where / "mu.json").write_text(json.dumps(
        {"atoms": list("abcdef"), "m": 1, "weights": rng.standard_normal((6, 1)).tolist()}))
    t = float(rng.random())
    (where / "cantor.json").write_text(json.dumps({
        "maps": [{"ratio": 1 / 3, "offset": [b + 2 / 3 * t]} for b in (0.0, 2 / 3)],
        "depth": 10,
    }))
    axis = (np.arange(48) + 0.5) / 48
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    jitter = rng.random(2) / 48
    PointCloud(np.stack([gx.ravel(), gy.ravel()], axis=1) + jitter).to_csv(where / "points.csv")
    RasterSet.from_predicate(lambda x, y: x < 0, [-1, -1], [64, 64], 2 / 64).to_csv(where / "half.csv")
    GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) * y, [0, 0], [32, 32], 1 / 32).to_csv(where / "f.csv")
    GridFunction.from_callable(
        lambda x, y: 3 * np.sin(3 * x) * y, [0, 0], [32, 32], 1 / 32).to_csv(where / "f3.csv")
    GridFunction.from_callable(
        lambda x: np.maximum(x, 0.0), [-1], [2000], 1e-3).to_csv(where / "xplus.csv")
    GridFunction.from_callable(
        lambda x: (x > 0) + 0.1 * np.sin(x), [-1], [2000], 1e-3).to_csv(where / "step.csv")
    GridFunction.from_callable(
        lambda x: (x > 0).astype(float), [-1], [2000], 1e-3).to_csv(where / "heaviside.csv")
    GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) * np.cos(2 * y), [0, 0], [48, 48], 1 / 48).to_csv(where / "wave.csv")
    GridFunction.from_callable(
        lambda x, y: -2 * np.sin(3 * x) * np.sin(2 * y), [0, 0], [48, 48], 1 / 48,
    ).to_csv(where / "wave_dy.csv")
    centre, width = 0.3 + 0.4 * rng.random(2), 8 + 10 * rng.random()
    GridFunction.from_callable(
        lambda x, y: np.exp(-width * ((x - centre[0]) ** 2 + (y - centre[1]) ** 2)),
        [0, 0], [48, 48], 1 / 48,
    ).to_csv(where / "bump.csv")
    n = 512
    stairs = 0.3 * np.sin(2 * math.pi * (np.arange(n) + 0.5) / n)
    for loc, height in zip(rng.choice(np.arange(20, n - 20), 5, replace=False),
                           rng.uniform(0.2, 1.0, 5)):
        stairs[loc + 1:] += height
    GridFunction(stairs, [0.0], 1 / n).to_csv(where / "stairs.csv")
    (where / "hnan.csv").write_text("dims=4;origin=0;h=nan\n" + "1\n" * 4)
    (where / "mu_nan.json").write_text(
        json.dumps({"atoms": ["a", "b"], "m": 1, "weights": [1.0, math.nan]}))
    # the shape of heaviside.csv on another lattice: origin 5, h = 7e-3
    GridFunction.from_callable(
        lambda x: (x > 0).astype(float), [5], [2000], 7e-3).to_csv(where / "heaviside_moved.csv")
    GridFunction.from_callable(
        lambda x, y, z: np.exp(-9 * ((x - 0.45) ** 2 + (y - 0.5) ** 2 + (z - 0.55) ** 2)),
        [0, 0, 0], [24, 24, 24], 1 / 24,
    ).to_csv(where / "bump3d.csv")


def run_jobs(where: Path) -> dict[str, int]:
    """Write the inputs into ``where`` and run every job there in process,
    each into ``out/<name>``; returns each job's exit code.  The error lines
    the CLI prints to stderr are dropped: error.json holds the same."""
    from gmtkit import cli

    write_inputs(where)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return {name: cli.run([*argv, "--output", f"out/{name}", "--no-timestamp"])
                    for name, argv, _ in JOBS}
    finally:
        os.chdir(cwd)


def files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity)|NaN")


def numbers_by_key(path: str, data: bytes) -> dict[str, str]:
    """The numbers of one output file by key: the report path of a JSON or
    CSV report, else file:line:index."""
    from gmtkit.cli import _flatten

    text = data.decode()
    if path.endswith(".json"):
        rows: list[tuple[str, str]] = []
        _flatten("", json.loads(text), rows)
        return {f"{path}:{k}": v for k, v in rows if _NUMBER.fullmatch(v)}
    if path.endswith("report.csv"):
        rows = [line.split(",", 1) for line in text.splitlines()[1:]]
        return {f"{path}:{k}": v for k, v in rows if _NUMBER.fullmatch(v)}
    return {f"{path}:{i + 1}:{j}": tok for i, line in enumerate(text.splitlines())
            for j, tok in enumerate(_NUMBER.findall(line))}


def ulps(a: float, b: float) -> int:
    """Distance between two doubles in units in the last place."""
    def ordered(x):
        i = int(np.float64(x).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(a) - ordered(b))


def moves(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per file that appeared or vanished, and per number that
    moved in a file present in both (a file whose numbers no longer line
    up is reported as reshaped)."""
    lines = [f"new file {p}" for p in sorted(new.keys() - old.keys())]
    lines += [f"gone file {p}" for p in sorted(old.keys() - new.keys())]
    for p in sorted(old.keys() & new.keys()):
        if old[p] == new[p]:
            continue
        a, b = numbers_by_key(p, old[p]), numbers_by_key(p, new[p])
        if a.keys() != b.keys():
            lines.append(f"reshaped {p}")
            continue
        moved = [(k, a[k], b[k]) for k in a if a[k] != b[k]]
        lines += [f"{k}: {x} -> {y} ({ulps(float(x), float(y))} ulp)" for k, x, y in moved]
        if not moved:
            lines.append(f"changed text {p}")
    return lines


def bless() -> int:
    """Rerun every job, rewrite the corpus and print what moved; exit 1 if
    a job's exit code is not the one ``JOBS`` expects (nothing is written)."""
    with tempfile.TemporaryDirectory() as tmp:
        codes = run_jobs(Path(tmp))
        wrong = [f"{name}: exit {codes[name]}, want {code}" for name, _, code in JOBS
                 if codes[name] != code]
        if wrong:
            print("\n".join(wrong))
            return 1
        new = files(Path(tmp) / "out")
        old = files(GOLDEN) if GOLDEN.is_dir() else {}
        for line in moves(old, new):
            print(line)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(Path(tmp) / "out", GOLDEN)
    print(f"{len(new)} files in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(bless())
