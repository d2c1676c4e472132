import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import cantor_ifs_json
from gmtkit import cli
from gmtkit.errors import NonConvergenceError
from gmtkit.grids import GridFunction, RasterSet, tensor_points
from gmtkit.hausdorff import PointCloud


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_dim_cantor_report_and_plot(tmp_path):
    ifs_path = tmp_path / "cantor.json"
    ifs_path.write_text(cantor_ifs_json())
    out = tmp_path / "out"
    code = cli.run(
        [
            "dim",
            "--input", str(ifs_path),
            "--scales", "3..10",
            "--output", str(out),
            "--plot", "svg",
            "--no-timestamp",
        ]
    )
    assert code == cli.EXIT_OK
    report = read_report(out)
    assert report["schema"] == "gmtkit/1"
    assert report["results"]["slope"] == pytest.approx(0.6309, abs=0.02)
    svg = (out / "loglog.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_plot_bytes_are_pinned(tmp_path):
    loglog = {"results": {"scales": [2.0 ** -k for k in range(3, 9)],
                          "counts": [7.5, 11.0, 17.25, 27.0, 41.5, 66.0],
                          "slope": 0.6309, "intercept": 0.72}}
    levels = {"results": {"per_level": [[0.05 + 0.1 * i, 2 * math.pi * (1 - 0.1 * i)]
                                        for i in range(10)]}}
    digests = {
        kind: hashlib.sha256(cli.emit_plot(report, kind, tmp_path).read_bytes()).hexdigest()
        for kind, report in (("loglog", loglog), ("levels", levels))
    }
    assert digests == {
        "loglog": "cc526119eb1dcb3570a8cbff34c0c1350caf3290fd16815296eb7d1574696d72",
        "levels": "febf23bc94d0a0623003a5e6a079c1283f1926361d96364000790f68f033733c",
    }


def test_area_helix(tmp_path):
    out = tmp_path / "out"
    code = cli.run(
        ["area", "--map", "helix", "--range", "0,1", "--output", str(out), "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    assert read_report(out)["results"]["length"] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_empty_input_is_validation_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.touch()
    out = tmp_path / "out"
    code = cli.run(["sobolev", "--input", str(empty), "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["kind"] == "validation"


def test_missing_input_is_validation_error(tmp_path):
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", str(tmp_path / "nope.json"), "--output", str(out)])
    assert code == cli.EXIT_VALIDATION


def test_measure_command(tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"atoms": ["a", "b"], "m": 1, "weights": [[3.0], [-4.0]]}))
    out = tmp_path / "out"
    assert cli.run(["measure", "--input", str(mu), "--output", str(out), "--no-timestamp"]) == 0
    res = read_report(out)["results"]
    assert res["total_variation"] == pytest.approx(7.0)
    assert res["hahn_negative_atoms"] == ["b"]


@pytest.mark.parametrize(
    "measure",
    [{"atoms": ["a", "b"], "m": 3, "weights": [[1.0], [-2.0]]},
     {"atoms": ["a", "b"], "weights": [[1.0], [-2.0]]}],
    ids=["wrong-m", "no-m"],
)
def test_measure_without_matching_m_is_validation_error(tmp_path, measure):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(measure))
    out = tmp_path / "out"
    assert cli.run(["measure", "--input", str(mu), "--output", str(out)]) == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_density_command(tmp_path):
    E = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 0.25, [-1, -1], [256, 256], 2 / 256
    )
    raster = tmp_path / "disk.csv"
    E.to_csv(raster)
    out = tmp_path / "out"
    code = cli.run(
        ["density", "--input", str(raster), "--point", "0,0", "--output", str(out), "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    assert read_report(out)["results"]["classification"] == "density-1"


def test_mollify_and_sobolev_commands(tmp_path):
    f = GridFunction.from_callable(
        lambda x, y: np.exp(-8 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)),
        [0, 0],
        [128, 128],
        1 / 128,
    )
    grid = tmp_path / "f.csv"
    f.to_csv(grid)

    out1 = tmp_path / "moll"
    assert cli.run(
        ["mollify", "--input", str(grid), "--eps", "0.05", "--output", str(out1), "--no-timestamp"]
    ) == 0
    assert (out1 / "mollified.csv").exists()
    assert read_report(out1)["results"]["kernel_mass"] == pytest.approx(1.0, abs=1e-8)

    out2 = tmp_path / "sob"
    assert cli.run(
        ["sobolev", "--input", str(grid), "--p", "1", "--output", str(out2), "--no-timestamp"]
    ) == 0
    res = read_report(out2)["results"]
    assert res["regime"] == "gns"
    assert res["embedding"]["holds"]


def test_weakdiff_command(tmp_path):
    h = 1e-3
    f = GridFunction.from_callable(lambda x: np.sin(x), [0.0], [1000], h)
    g = GridFunction.from_callable(lambda x: np.cos(x), [0.0], [1000], h)
    fp, gp = tmp_path / "f.csv", tmp_path / "g.csv"
    f.to_csv(fp)
    g.to_csv(gp)
    out = tmp_path / "out"
    code = cli.run(
        ["weakdiff", "--input", str(fp), "--input", str(gp), "--output", str(out), "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    assert read_report(out)["results"]["residual"] < 1e-6


def test_bv_command_with_levels_plot(tmp_path):
    f = GridFunction.from_callable(
        lambda x, y: np.exp(-10 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)),
        [0, 0],
        [128, 128],
        1 / 128,
    )
    grid = tmp_path / "f.csv"
    f.to_csv(grid)
    out = tmp_path / "out"
    code = cli.run(
        ["bv", "--input", str(grid), "--output", str(out), "--plot", "svg", "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    res = read_report(out)["results"]
    assert res["variation_coarea"] == pytest.approx(
        res["variation_gradient_integral"], rel=0.05
    )
    assert (out / "levels.svg").exists()


def test_csv_format(tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"atoms": ["a"], "m": 2, "weights": [[3.0, 4.0]]}))
    out = tmp_path / "out"
    assert cli.run(
        ["measure", "--input", str(mu), "--output", str(out), "--format", "csv", "--no-timestamp"]
    ) == 0
    text = (out / "report.csv").read_text()
    assert text.startswith("key,value\n")
    assert "results.total_variation,5.0" in text


def test_byte_identical_reruns(tmp_path):
    ifs_path = tmp_path / "cantor.json"
    ifs_path.write_text(cantor_ifs_json())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.run(["dim", "--input", str(ifs_path), "--output", str(out), "--no-timestamp"])
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_plot_unavailable_for_command(tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"atoms": ["a"], "m": 1, "weights": [[1.0]]}))
    out = tmp_path / "out"
    code = cli.run(
        ["measure", "--input", str(mu), "--output", str(out), "--plot", "svg"]
    )
    assert code == cli.EXIT_VALIDATION


def test_sobolev_morrey_regime_writes_report(tmp_path):
    f = GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) * np.cos(2 * y), [0, 0], [64, 64], 1 / 64
    )
    grid = tmp_path / "f.csv"
    f.to_csv(grid)
    out = tmp_path / "out"
    code = cli.run(
        ["sobolev", "--input", str(grid), "--p", "3", "--output", str(out), "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    res = read_report(out)["results"]
    assert res["regime"] == "morrey"
    assert isinstance(res["embedding"]["holds"], bool)


def test_bmo_of_a_constant_is_exactly_zero_and_rerun_byte_identical(tmp_path):
    grid = tmp_path / "const.csv"
    GridFunction(np.full((64, 64), 1.5), [0.0, 0.0], 1 / 64).to_csv(grid)
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        argv = ["sobolev", "--input", str(grid), "--p", "2", "--output", str(out), "--no-timestamp"]
        assert cli.run(argv) == cli.EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    res = json.loads(reports[0])["results"]
    assert res["regime"] == "bmo"
    assert res["embedding"]["bmo_seminorm"] == 0.0 and res["embedding"]["holds"] is True


def test_negative_point_is_a_value(tmp_path):
    E = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 0.25, [-1, -1], [128, 128], 2 / 128
    )
    raster = tmp_path / "disk.csv"
    E.to_csv(raster)
    out = tmp_path / "out"
    code = cli.run(
        ["density", "--input", str(raster), "--point", "-0.2,0", "--output", str(out),
         "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    res = read_report(out)["results"]
    assert res["point"] == [-0.2, 0.0]
    assert res["classification"] == "density-1"


def test_negative_range_is_a_value(tmp_path):
    out = tmp_path / "out"
    code = cli.run(
        ["area", "--map", "helix", "--range", "-1,1", "--output", str(out), "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    assert read_report(out)["results"]["length"] == pytest.approx(2 * math.sqrt(2), abs=1e-8)


def test_unknown_flag_is_validation_error(tmp_path):
    out = tmp_path / "out"
    code = cli.run(["dim", "--bogus", "1", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["kind"] == "validation"
    assert "--bogus" in err["error"]["message"]


def test_levels_plot_of_1d_bv_writes_only_error(tmp_path):
    f = GridFunction.from_callable(lambda x: np.sign(x - 0.5), [0.0], [256], 1 / 256)
    grid = tmp_path / "f.csv"
    f.to_csv(grid)
    out = tmp_path / "out"
    code = cli.run(["bv", "--input", str(grid), "--plot", "svg", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("mollify", ["--eps", "-1"]),
        ("sobolev", ["--p", "0.5"]),
        ("dim", ["--scales", "3..4"]),
        ("mollify", ["--eps", "inf"]),
        ("weakdiff", ["--axis", "2"]),
        ("mollify", ["--eps", "3"]),
        ("sobolev", ["--p", "nan"]),
        ("sobolev", ["--p", "inf"]),
        ("area", ["--map", "polar", "--range", "0,1"]),
        ("area", ["--map", "fold", "--range", "0,1"]),
        ("mollify", ["--eps", "1e308"]),  # an OverflowError traceback and no error.json
        ("mollify", ["--eps", "5e-324"]),
        ("sobolev", ["--p", "-1e308"]),
        ("sobolev", ["--p", "5e-324"]),
        ("dim", ["--scales", "3"]),
        ("dim", ["--scales", "a..b"]),
    ],
)
def test_library_input_errors_write_error_json(tmp_path, command, flags):
    f = GridFunction.from_callable(lambda x, y: x * y, [0, 0], [16, 16], 1 / 16)
    grid = tmp_path / "f.csv"
    f.to_csv(grid)
    ifs = tmp_path / "cantor.json"
    ifs.write_text(cantor_ifs_json(depth=4))
    inputs = {"dim": [ifs], "weakdiff": [grid, grid], "area": []}.get(command, [grid])
    out = tmp_path / "out"
    argv = [command, *(a for p in inputs for a in ("--input", str(p))), *flags]
    code = cli.run([*argv, "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert json.loads((out / "error.json").read_text())["error"]["kind"] == "validation"


def test_depth_flag_is_unknown(tmp_path):
    ifs = tmp_path / "cantor.json"
    ifs.write_text(cantor_ifs_json(depth=4))
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", str(ifs), "--depth", "3", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert "--depth" in json.loads((out / "error.json").read_text())["error"]["message"]


def test_a_usage_error_writes_error_json_into_an_output_given_with_equals(tmp_path):
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", "cantor.json", "--bogus", f"--output={out}"])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert "--bogus" in json.loads((out / "error.json").read_text())["error"]["message"]


def test_dim_checks_scales_before_building_the_attractor(tmp_path):
    ifs = tmp_path / "cantor.json"
    ifs.write_text(cantor_ifs_json())
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", str(ifs), "--scales", "6..3", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message == "at least 4 scales are required"


def test_dim_scales_past_the_double_range_write_error_json(tmp_path):
    ifs = tmp_path / "cantor.json"
    ifs.write_text(cantor_ifs_json(depth=4))
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", str(ifs), "--scales", "3..9999999999", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert "[-1023, 1074]" in json.loads((out / "error.json").read_text())["error"]["message"]


@pytest.mark.parametrize("shape", [(1,), (1, 1)], ids=["1-D", "2-D"])
@pytest.mark.parametrize("command, flags", [
    ("bv", []), ("bv", ["--plot", "svg"]), ("sobolev", ["--p", "1"]), ("sobolev", ["--p", "3"]),
    ("mollify", ["--eps", "0.25"]), ("weakdiff", []),
])
def test_one_cell_grid_keeps_the_exit_code_contract(tmp_path, shape, command, flags):
    grid = tmp_path / "one.csv"
    GridFunction(np.full(shape, 1.5), [0.0] * len(shape), 0.1).to_csv(grid)
    inputs = [grid, grid] if command == "weakdiff" else [grid]
    out = tmp_path / "out"
    code = cli.run([command, *(a for p in inputs for a in ("--input", str(p))), *flags,
                    "--output", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NONCONVERGENCE)
    assert (out / "error.json").exists() == (code != cli.EXIT_OK)


@pytest.mark.parametrize("bad", ["h=nan", "h=inf", "h=0", "origin=nan,0"])
@pytest.mark.parametrize("command, flags, kind", [
    ("sobolev", ["--p", "1"], "grid CSV"),
    ("bv", [], "grid CSV"),
    ("mollify", ["--eps", "0.25"], "grid CSV"),
    ("weakdiff", [], "grid CSV"),
    ("density", ["--point", "0.5,0.5"], "raster CSV"),
])
def test_a_bad_lattice_header_writes_only_error_json(tmp_path, bad, command, flags, kind):
    fields = {"dims": "16x16", "origin": "0,0", "h": "0.0625"}
    key, value = bad.split("=", 1)
    fields[key] = value
    path = tmp_path / "bad.csv"
    path.write_text(";".join(f"{k}={v}" for k, v in fields.items()) + "\n" + "1\n" * 256)
    inputs = [path, path] if command == "weakdiff" else [path]
    out = tmp_path / "out"
    code = cli.run([command, *(a for p in inputs for a in ("--input", str(p))), *flags,
                    "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message.startswith(f"cannot parse {kind} {path}: ")


@pytest.mark.parametrize("command, flags, names, kind", [
    ("measure", [], ["garbage.json"], "measure JSON"),
    ("dim", [], ["garbage.json"], "IFS JSON"),
    ("dim", [], ["garbage.csv"], "point CSV"),
    ("density", ["--point", "0.5,0.5"], ["garbage.csv"], "raster CSV"),
    ("mollify", ["--eps", "0.25"], ["garbage.csv"], "grid CSV"),
    ("weakdiff", [], ["grid2.csv", "garbage.csv"], "grid CSV"),
    ("sobolev", [], ["garbage.csv"], "grid CSV"),
    ("bv", [], ["garbage.csv"], "grid CSV"),
])
def test_an_unreadable_input_names_the_kind_it_was_read_as(fuzz_files, command, flags, names,
                                                           kind):
    out = Path(tempfile.mkdtemp(dir=fuzz_files))
    argv = [command, *(a for name in names for a in ("--input", str(fuzz_files / name)))]
    assert cli.run([*argv, *flags, "--output", str(out)]) == cli.EXIT_VALIDATION
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message.startswith(f"cannot parse {kind} {fuzz_files / names[-1]}: ")


def test_dim_refuses_lattice_csv(tmp_path):
    grid = tmp_path / "grid2.csv"
    GridFunction.from_callable(lambda x, y: np.sin(3 * x) * y, [0, 0], [16, 16], 1 / 16).to_csv(grid)
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", str(grid), "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert "lattice CSV" in json.loads((out / "error.json").read_text())["error"]["message"]


def test_dim_of_saturated_cloud_writes_only_error(tmp_path):
    axis = (np.arange(64) + 0.5) / 64
    cloud = tmp_path / "lattice.csv"
    PointCloud(tensor_points([axis, axis])).to_csv(cloud)
    out = tmp_path / "out"
    code = cli.run(["dim", "--input", str(cloud), "--scales", "3..10", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert "finest usable scale is 0.015625" in message


def _scipy_modules_loaded(code, *args):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip()


def test_importing_cli_loads_no_scipy():
    # the library runs on numpy alone
    assert _scipy_modules_loaded("import gmtkit.cli, sys") == "[]"


@pytest.mark.parametrize("name, key", [("helix", "length"), ("fold", "multiplicity_integral"),
                                       ("square", "multiplicity_integral")],
                         ids=["helix", "fold", "square"])
def test_one_dimensional_area_job_loads_no_scipy(tmp_path, name, key):
    # curve length and the 1-D multiplicity scans run on numpy alone
    code = ("import gmtkit.cli, sys; "
            "assert gmtkit.cli.run(sys.argv[1:]) == 0")
    argv = ["area", "--map", name, "--output", str(tmp_path / "out"), "--no-timestamp"]
    assert _scipy_modules_loaded(code, *argv) == "[]"
    assert key in read_report(tmp_path / "out")["results"]


@pytest.mark.parametrize("n", [2, 3], ids=["disk", "ball"])
def test_isodiametric_check_loads_no_scipy(n):
    # the diameter comes from lattice-line extremes, with numpy alone
    code = ("import sys, numpy as np; from gmtkit.grids import RasterSet; "
            "from gmtkit.hausdorff import isodiametric_check; n = int(sys.argv[1]); "
            "E = RasterSet.from_predicate(lambda *x: sum(t**2 for t in x) <= 1.0, [-1.0] * n, "
            "[64] * n, 1 / 32); measure, bound = isodiametric_check(E); assert measure <= bound")
    assert _scipy_modules_loaded(code, str(n)) == "[]"


def test_no_command_loads_scipy(tmp_path):
    # every subcommand, mollify and weakdiff included, runs in one fresh
    # interpreter on numpy alone
    def path(name):
        return str(tmp_path / name)

    (tmp_path / "mu.json").write_text(json.dumps({"atoms": ["a", "b"], "m": 1,
                                                  "weights": [[1.0], [-2.0]]}))
    (tmp_path / "cantor.json").write_text(cantor_ifs_json())
    RasterSet.from_predicate(lambda x, y: x < 0, [-1, -1], [64, 64], 2 / 64).to_csv(path("half.csv"))
    GridFunction.from_callable(lambda x, y: np.sin(3 * x) * y, [0, 0], [32, 32], 1 / 32).to_csv(path("f.csv"))
    GridFunction.from_callable(lambda x: np.maximum(x, 0.0), [-1], [2000], 1e-3).to_csv(path("xplus.csv"))
    GridFunction.from_callable(lambda x: (x > 0).astype(float), [-1], [2000], 1e-3) \
        .to_csv(path("heaviside.csv"))
    argvs = [
        ["measure", "--input", path("mu.json")],
        ["dim", "--input", path("cantor.json"), "--scales", "3..10"],
        ["density", "--input", path("half.csv"), "--point", "-0.5,0"],
        ["mollify", "--input", path("f.csv"), "--eps", "0.1"],
        ["weakdiff", "--input", path("xplus.csv"), "--input", path("heaviside.csv")],
        ["sobolev", "--input", path("f.csv"), "--p", "3"],
        ["bv", "--input", path("f.csv")],
        *(["area", "--map", name] for name in ("helix", "polar", "sphere", "fold", "square")),
    ]
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    argvs = [[*argv, "--output", path(f"out{i}"), "--no-timestamp"] for i, argv in enumerate(argvs)]
    code = ("import json, sys, gmtkit.cli; argvs = json.loads(sys.argv[1]); "
            "assert [gmtkit.cli.run(argv) for argv in argvs] == [gmtkit.cli.EXIT_OK] * len(argvs)")
    assert _scipy_modules_loaded(code, json.dumps(argvs)) == "[]"
    assert read_report(tmp_path / "out3")["results"]["kernel_mass"] == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------- fuzzed argv

# every flag with values of its type, bad ones included; None leaves the
# flag without a value
FUZZ_FLAG_VALUES = {
    "--seed": ["-1", "0", "7", "abc", None],
    "--p": ["-1", "0", "0.5", "1", "2", "3", "inf", "nan", "1e308", "-1e308", "5e-324", "abc",
            None],
    "--eps": ["-1", "0", "1e-3", "0.25", "3", "inf", "nan", "1e308", "-1e308", "5e-324", None],
    "--scales": ["3..6", "2..9", "3..4", "6..3", "-1..3", "a..b", "3"],
    "--map": ["helix", "polar", "sphere", "fold", "square", "nope", None],
    "--range": ["0,1", "-0.5,0.5", "1,0", "0,0", "nan,1", "0,1e308", "1", "abc"],
    "--point": ["0.5,0.5", "-0.25,0.5", "3,3", "0.5", "nan,0", "1e308,0", "abc", None],
    "--axis": ["-1", "0", "1", "2", "abc"],
    "--format": ["json", "csv", "xml"],
    "--plot": ["none", "svg", "png"],
    "--no-timestamp": [None],
    "--depth": ["3"],
    "--bogus": ["1", None],
}
FUZZ_FILES = [
    "grid2.csv", "grid1.csv", "raster.csv", "cloud.csv", "ifs.json", "mu.json",
    "empty.csv", "empty.json", "garbage.csv", "garbage.json", "truncated.csv",
    "truncated.json", "missing.csv",
]
# per command: input lists it accepts and the flags it reads besides the ones
# every command reads (--input, --output, --seed, --format, --no-timestamp)
FUZZ_COMMANDS = {
    "measure": ([["mu.json"]], []),
    "dim": ([["ifs.json"], ["cloud.csv"]], ["--scales", "--plot"]),
    "density": ([["raster.csv"]], ["--point"]),
    "mollify": ([["grid2.csv"], ["grid1.csv"]], ["--eps"]),
    "weakdiff": ([["grid2.csv", "grid2.csv"], ["grid1.csv", "grid1.csv"]], ["--axis"]),
    "sobolev": ([["grid2.csv"], ["grid1.csv"]], ["--p"]),
    "bv": ([["grid1.csv"], ["grid2.csv"]], ["--plot"]),
    "area": ([[]], ["--map", "--range"]),
    "nope": ([[]], []),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Tiny inputs (at most 16 x 16 cells or points): one valid file per
    format, plus empty, garbage and header-truncated ones."""
    root = tmp_path_factory.mktemp("fuzz")
    GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) * y, [0, 0], [16, 16], 1 / 16
    ).to_csv(root / "grid2.csv")
    GridFunction.from_callable(lambda x: np.sign(x - 0.5), [0.0], [16], 1 / 16).to_csv(
        root / "grid1.csv"
    )
    RasterSet.from_predicate(lambda x, y: x < 0.5, [0, 0], [16, 16], 1 / 16).to_csv(
        root / "raster.csv"
    )
    pts = np.random.default_rng(0).random((256, 2))
    np.savetxt(root / "cloud.csv", pts, delimiter=",", header="x1,x2", comments="")
    (root / "ifs.json").write_text(cantor_ifs_json(depth=4))
    (root / "mu.json").write_text(
        json.dumps({"atoms": ["a", "b"], "m": 1, "weights": [[1.0], [-2.0]]})
    )
    (root / "empty.csv").touch()
    (root / "empty.json").touch()
    (root / "garbage.csv").write_text("garbage\n1,2,x\n")
    (root / "garbage.json").write_text("{not json")
    (root / "truncated.csv").write_text("dims=16x16;origin=0\n")
    (root / "truncated.json").write_text('{"maps": [{"ratio": 0.3')
    return root


@st.composite
def fuzzed_argv(draw):
    """(command, input names, [(flag, value or None)]): mostly a command's
    own inputs and flags, sometimes any file and any flag."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    good_inputs, own_flags = FUZZ_COMMANDS[command]
    inputs = draw(
        st.sampled_from(good_inputs) | st.lists(st.sampled_from(FUZZ_FILES), max_size=2)
    )
    any_flag = st.sampled_from(sorted(FUZZ_FLAG_VALUES))
    flags = draw(st.lists(st.sampled_from(own_flags) | any_flag if own_flags else any_flag,
                          max_size=3))
    options = [(flag, draw(st.sampled_from(FUZZ_FLAG_VALUES[flag]))) for flag in flags]
    return command, inputs, options


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzzed_argv())
@example(case=("mollify", ["grid2.csv"], [("--eps", "1e308")]))  # an OverflowError traceback
def test_exit_code_contract_under_fuzzed_argv(fuzz_files, case):
    command, inputs, options = case
    out = Path(tempfile.mkdtemp(dir=fuzz_files))
    argv = [command, "--output", str(out)]
    for name in inputs:
        argv += ["--input", str(fuzz_files / name)]
    for flag, value in options:
        argv += [flag] if value is None else [flag, value]
    code = cli.run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NONCONVERGENCE)
    assert (out / "error.json").exists() == (code != cli.EXIT_OK)
    assert any(out.glob("report.*")) == (code == cli.EXIT_OK)
    for report in out.glob("report.json"):
        json.loads(report.read_text(), parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"report.json holds {name}, which is not JSON")


# the kind the command table names for each valid fuzz input
FUZZ_KINDS = {"mu.json": "measure JSON", "ifs.json": "IFS JSON or point CSV",
              "cloud.csv": "IFS JSON or point CSV", "raster.csv": "raster CSV",
              "grid1.csv": "grid CSV", "grid2.csv": "grid CSV"}


def test_command_table_matches_the_fuzz_table():
    stated = {command: ({tuple(FUZZ_KINDS[name] for name in names) for names in inputs},
                        sorted(flags))
              for command, (inputs, flags) in FUZZ_COMMANDS.items() if command != "nope"}
    table = {name: ({command.inputs},
                    sorted(command.flags + (("--plot",) if command.plot else ())))
             for name, command in cli.COMMANDS.items()}
    assert table == stated
    assert {name: c.plot for name, c in cli.COMMANDS.items() if c.plot} == {"dim": "loglog",
                                                                          "bv": "levels"}


# a value each flag accepts, and the flags a command needs to succeed
FOREIGN_VALUES = {"--p": "3", "--eps": "0.25", "--scales": "3..6", "--map": "helix",
                  "--range": "0,1", "--point": "0.25,0.5", "--axis": "0", "--plot": "svg"}
BASE_FLAGS = {"dim": ["--scales", "3..6"], "density": ["--point", "0.25,0.5"],
              "mollify": ["--eps", "0.25"], "area": ["--map", "helix"]}


@pytest.mark.parametrize("command", sorted(set(FUZZ_COMMANDS) - {"nope"}))
def test_a_flag_the_command_does_not_read_is_a_usage_error(fuzz_files, command):
    inputs, own = FUZZ_COMMANDS[command]
    base = [command, *(a for name in inputs[0] for a in ("--input", str(fuzz_files / name))),
            *BASE_FLAGS.get(command, [])]

    def run(extra):
        out = Path(tempfile.mkdtemp(dir=fuzz_files))
        return cli.run([*base, *extra, "--output", str(out)]), out

    assert run(["--seed", "3", "--format", "csv", "--no-timestamp"])[0] == cli.EXIT_OK
    foreign = [[flag, value] for flag, value in FOREIGN_VALUES.items() if flag not in own]
    assert sorted(own + [flag for flag, _ in foreign]) == sorted(FOREIGN_VALUES)
    if command == "area":
        foreign.append(["--input", str(fuzz_files / "grid2.csv")])
    for extra in foreign:
        code, out = run(extra)
        assert code == cli.EXIT_VALIDATION, extra
        assert sorted(p.name for p in out.iterdir()) == ["error.json"], extra
        assert extra[0] in json.loads((out / "error.json").read_text())["error"]["message"]


def test_a_run_builds_only_its_own_command_parser(tmp_path, monkeypatch):
    own = ("--input", "--output", "--seed", "--format", "--no-timestamp", "--map", "--range")
    monkeypatch.setattr(cli, "_FLAGS", {flag: cli._FLAGS[flag] for flag in own})
    out = tmp_path / "out"
    assert cli.run(["area", "--map", "helix", "--output", str(out)]) == cli.EXIT_OK
    assert "length" in read_report(out)["results"]


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: gmtkit [-h] command ..."),
    (["--help"], "usage: gmtkit [-h] command ..."),
    (["area", "-h"], "usage: gmtkit area [-h] [--input INPUT]"),
    (["dim", "--help"], "usage: gmtkit dim [-h] [--input INPUT]"),
])
def test_help_prints_usage_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(usage)


def test_a_flag_before_the_command_is_a_usage_error(tmp_path):
    out = tmp_path / "out"
    assert cli.run(["--output", str(out), "area", "--map", "helix"]) == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("abbreviation", ["--ra", "--no-time", "--out"])
def test_a_flag_is_never_abbreviated(tmp_path, abbreviation):
    # each argv would succeed if the prefix stood for --range, --no-timestamp, --output
    out = tmp_path / "out"
    value = {"--ra": ["0,1"], "--no-time": [], "--out": [str(out)]}[abbreviation]
    code = cli.run(["area", "--map", "helix", abbreviation, *value, "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert f"unrecognized arguments: {abbreviation}" in message


def test_non_finite_point_is_validation_error(tmp_path):
    raster = tmp_path / "r.csv"
    RasterSet.from_predicate(lambda x, y: x < 0.5, [0, 0], [16, 16], 1 / 16).to_csv(raster)
    out = tmp_path / "out"
    code = cli.run(["density", "--input", str(raster), "--point", "nan,0", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert "finite" in json.loads((out / "error.json").read_text())["error"]["message"]


def test_1d_bv_jumps_sit_on_the_grid_axis(tmp_path):
    # positions were measured from the grid's left edge: x = 1.0 for this step at 0
    f = GridFunction.from_callable(lambda x: (x > 0) + 0.1 * np.sin(x), [-1.0], [2000], 1e-3)
    grid = tmp_path / "step.csv"
    f.to_csv(grid)
    out = tmp_path / "out"
    assert cli.run(["bv", "--input", str(grid), "--output", str(out)]) == cli.EXIT_OK
    assert read_report(out)["results"]["jumps"] == [{"height": 1.0000999999958333, "x": 0.0}]


def test_sobolev_norms_past_the_float_range_of_v_to_the_p_stay_finite(tmp_path):
    # |v|^1000 overflows: the norms read Infinity and the Morrey ratio 0.0
    f = GridFunction.from_callable(lambda x, y: 3 * np.sin(3 * x) * y, [0, 0], [32, 32], 1 / 32)
    grid = tmp_path / "f.csv"
    f.to_csv(grid)
    out = tmp_path / "out"
    code = cli.run(["sobolev", "--input", str(grid), "--p", "1000", "--output", str(out)])
    assert code == cli.EXIT_OK
    res = read_report(out)["results"]
    assert (res["lp_norm"], res["grad_lp_norm"]) == (2.932212497793691, 8.815203829780314)
    assert res["embedding"] == {"holds": True, "worst_ratio": 0.16682831279553811}


def test_sobolev_norms_below_the_float_range_of_v_to_the_p_stay_positive(tmp_path):
    # |v|^1000 underflows to 0: the norms read 0.0 and Morrey dropped every pair
    f = GridFunction.from_callable(lambda x, y: 0.1 * np.sin(3 * x) * y, [0, 0], [32, 32], 1 / 32)
    grid = tmp_path / "f.csv"
    f.to_csv(grid)
    out = tmp_path / "out"
    code = cli.run(["sobolev", "--input", str(grid), "--p", "1000", "--output", str(out)])
    assert code == cli.EXIT_OK
    res = read_report(out)["results"]
    # the norms are 1-homogeneous and the Morrey ratio 0-homogeneous in f
    assert res["lp_norm"] == pytest.approx(0.1 / 3 * 2.932212497793691, rel=1e-14)
    assert res["grad_lp_norm"] == pytest.approx(0.1 / 3 * 8.815203829780314, rel=1e-14)
    assert res["embedding"] == {"holds": True, "worst_ratio": 0.16682831279553811}


def test_a_non_finite_report_writes_only_error_json(tmp_path, monkeypatch):
    # a handler's NaN or Infinity went into a report.json that is not JSON
    def overflow(args):
        return {"map": args.map, "length": math.nan, "runs": [1.0, -math.inf]}

    monkeypatch.setitem(cli.COMMANDS, "area", cli.COMMANDS["area"]._replace(handler=overflow))
    out = tmp_path / "out"
    assert cli.run(["area", "--map", "helix", "--output", str(out)]) == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message.endswith("not finite: results.length, results.runs[1]")


def test_area_ranges_near_the_float_range(tmp_path):
    # helix wrote "length": Infinity and square Infinity and NaN, both with exit 0
    out = tmp_path / "helix"
    assert cli.run(["area", "--map", "helix", "--range", "0,1e308", "--output", str(out)]) == 0
    assert read_report(out)["results"]["length"] == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
    out = tmp_path / "square"
    code = cli.run(["area", "--map", "square", "--range", "-1e200,1e200", "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    message = json.loads((out / "error.json").read_text())["error"]["message"]
    assert message == "square's image of ]-1e+200, 1e+200[ is not finite"


def test_flags_near_the_float_range_answer_without_warnings(tmp_path):
    grid, raster = tmp_path / "f.csv", tmp_path / "half.csv"
    GridFunction.from_callable(lambda x, y: np.sin(3 * x) * y, [0, 0], [32, 32], 1 / 32).to_csv(grid)
    RasterSet.from_predicate(lambda x, y: x < 0, [-1, -1], [64, 64], 2 / 64).to_csv(raster)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an overflow warning from the ball window's (x + r - origin) / h
        out = tmp_path / "density"
        assert cli.run(["density", "--input", str(raster), "--point", "1e308,0",
                        "--output", str(out)]) == cli.EXIT_OK
        assert read_report(out)["results"]["classification"] == "density-0"
        # C = 2np/(p - n) overflowed: worst_ratio 0.0
        ratios = []
        for p in ("1e308", "1e300"):
            out = tmp_path / p
            assert cli.run(["sobolev", "--input", str(grid), "--p", p, "--output", str(out)]) == 0
            ratios.append(read_report(out)["results"]["embedding"]["worst_ratio"])
        assert ratios[0] == ratios[1] > 0.0


def test_non_convergence_writes_only_error_json(tmp_path, monkeypatch):
    def diverge(args):
        raise NonConvergenceError("schedule did not settle")

    monkeypatch.setitem(cli.COMMANDS, "area", cli.COMMANDS["area"]._replace(handler=diverge))
    out = tmp_path / "out"
    assert cli.run(["area", "--map", "helix", "--output", str(out)]) == cli.EXIT_NONCONVERGENCE
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {"kind": "non-convergence", "message": "schedule did not settle"}
