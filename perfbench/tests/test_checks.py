"""Each correctness check accepts the program's real output and rejects a
slightly wrong one."""

import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import cli_cold
import geometry
import lattice

BENCH_DIR = Path(__file__).resolve().parents[1]
SRC = BENCH_DIR.parent / "src"


def ops_by_name(ops):
    return {op.name: op for op in ops}


@pytest.fixture(scope="module")
def geometry_ops(tmp_path_factory):
    return ops_by_name(geometry.build(7, tmp_path_factory.mktemp("geometry")))


@pytest.fixture(scope="module")
def lattice_ops(tmp_path_factory):
    return ops_by_name(lattice.build(7, tmp_path_factory.mktemp("lattice")))


def accepts_then_rejects(op, wrong):
    out = op.run()
    op.check(out)
    with pytest.raises(checks.CheckFailed):
        op.check(wrong(out))


def test_slope_off_by_005_is_rejected(geometry_ops):
    accepts_then_rejects(geometry_ops["dim-cantor"], lambda slope: slope + 0.05)
    accepts_then_rejects(geometry_ops["dim-cantor"], lambda slope: slope - 0.05)


def test_helix_length_off_by_1e6_is_rejected(geometry_ops):
    accepts_then_rejects(geometry_ops["curve-length-helix"], lambda length: length + 1e-6)


def test_csv_round_trip_with_one_value_changed_is_rejected(lattice_ops):
    def change_one(back):
        values = back.values.copy()
        values[17, 42] = np.nextafter(values[17, 42], np.inf)
        return replace(back, values=values)

    accepts_then_rejects(lattice_ops["csv-roundtrip"], change_one)


@pytest.mark.parametrize("name, wrong", [
    ("density", lambda r: (r[0], r[1], [r[2][0] + 2e-3] + r[2][1:])),
    ("approx-limit-jump", lambda v: 0.5),
    ("directional-derivative", lambda r: [r[0] + 1e-5] + r[1:]),
    ("weak-derivative", lambda r: 2e-4),
    ("variation-three-routes", lambda tvs: (tvs[0], tvs[1] * 1.03, tvs[2])),
    ("bmo", lambda r: (1e-300, r[1])),
])
def test_lattice_checks_reject_wrong_answers(lattice_ops, name, wrong):
    accepts_then_rejects(lattice_ops[name], wrong)


def test_report_with_holds_flipped_is_rejected(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runner = cli_cold.JobRunner(sys.executable, BENCH_DIR, env, tmp_path)
    op = ops_by_name(cli_cold.build(7, tmp_path, runner))["sobolev-gns"]
    out = op.run()
    op.check(out)
    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    assert report["results"]["embedding"]["holds"] is True
    report["results"]["embedding"]["holds"] = False
    report_path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed):
        op.check(out)


def test_references_are_closed_forms():
    checks.cantor_slope(math.log(2) / math.log(3))
    checks.sphere_area(4 * math.pi)
    checks.directional_derivative(0.5, [1.0, 1.0])
    with pytest.raises(checks.CheckFailed):
        checks.approx_limit_smooth(None, 0.3)
