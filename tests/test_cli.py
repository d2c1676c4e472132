import json
import math

import numpy as np
import pytest

from conftest import cantor_ifs_json
from gmtkit import cli
from gmtkit.grids import GridFunction, RasterSet


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


def test_area_helix(tmp_path):
    out = tmp_path / "out"
    code = cli.run(
        ["area", "--map", "helix", "--range", "0,1", "--output", str(out), "--no-timestamp"]
    )
    assert code == cli.EXIT_OK
    assert read_report(out)["results"]["length"] == pytest.approx(math.sqrt(2), abs=1e-8)


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
