"""``import gmtkit`` loads no library module; each loads on first use.

Every check runs in a fresh interpreter, since this process has loaded
the whole package already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmtkit
from gmtkit import cli
from golden_corpus import JOBS, write_inputs

# the gmtkit.* modules a job of each command loads, besides gmtkit.errors
_CLOSURES = {
    "measure": {"measures"},
    "dim": {"grids", "hausdorff"},
    "density": {"grids", "pointwise"},
    "mollify": {"grids", "smoothing"},
    "weakdiff": {"grids", "smoothing"},
    "sobolev": {"grids", "sobolev_bv"},
    "bv": {"grids", "sobolev_bv"},
    "area": {"area", "grids"},
}

# the layering errors <- grids <- feature modules: what each library module may import;
# every module not named here is a feature module, which imports errors and grids only
_MAY_IMPORT = {"errors": set(), "grids": {"errors"}}


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this gmtkit."""
    src = str(Path(gmtkit.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def _submodules(code: str) -> list[str]:
    """The gmtkit.* modules loaded after ``code`` runs, without the "gmtkit." prefix."""
    out = _python("-c", code + "\nimport json, sys\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('gmtkit.'))))")
    assert out.returncode == 0, out.stderr
    return [m[len("gmtkit."):] for m in json.loads(out.stdout.splitlines()[-1])]


def _importtime_modules(stderr: str) -> set[str]:
    """The gmtkit.* modules that ``python -X importtime`` logged, without the prefix."""
    names = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
             if line.startswith("import time:")}
    return {n[len("gmtkit."):] for n in names if n.startswith("gmtkit.")}


def test_import_gmtkit_loads_no_submodule():
    assert _submodules("import gmtkit") == []


def test_names_load_on_first_access():
    assert _submodules("import gmtkit; gmtkit.measures") == ["measures"]
    assert _submodules("import gmtkit; gmtkit.GridFunction") == ["errors", "grids"]
    assert _submodules("from gmtkit import area") == ["area", "errors", "grids"]
    assert _submodules("from gmtkit.grids import RasterSet") == ["errors", "grids"]
    everything = _submodules(
        "from gmtkit import *\n"
        "assert GridFunction is sobolev_bv.GridFunction is pointwise.GridFunction\n"
        "assert (area.__name__, RasterSet.__name__) == ('gmtkit.area', 'RasterSet')")
    assert everything == ["area", "errors", "grids", "hausdorff", "measures", "pointwise",
                          "smoothing", "sobolev_bv"]


def test_dir_and_unknown_names():
    assert _submodules(
        "import gmtkit\n"
        "assert set(gmtkit.__all__) <= set(dir(gmtkit))\n"
        "assert 'grids' in dir(gmtkit)\n"
        "try:\n"
        "    gmtkit.no_such_module\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'gmtkit' has no attribute 'no_such_module'\"\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')") == []


def test_lazily_loaded_modules_appear_in_importtime():
    # importlib.import_module would load them on a path that -X importtime does not log
    out = _python("-X", "importtime", "-c",
                  "import gmtkit, sys; gmtkit.sobolev_bv; gmtkit.area; gmtkit.measures\n"
                  "print(' '.join(m for m in sys.modules if m.startswith('gmtkit.')))")
    assert out.returncode == 0, out.stderr
    loaded = {m[len("gmtkit."):] for m in out.stdout.split()}
    assert loaded == {"area", "errors", "grids", "measures", "sobolev_bv"}
    assert _importtime_modules(out.stderr) == loaded


def _package_imports(source: str) -> set[str]:
    """The gmtkit.* modules that ``source`` imports anywhere, without the prefix."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("gmtkit" + (f".{node.module}" if node.module else "")) if node.level \
                else node.module
            names.update([base] if base != "gmtkit" else [f"gmtkit.{a.name}" for a in node.names])
    return {n.split(".")[1] for n in names if n.startswith("gmtkit.")}


def test_package_imports_reads_every_import_form():
    source = ("import numpy\nfrom typing import Callable\nfrom . import area\n"
              "from .grids import omega\nimport gmtkit.smoothing as sm\n"
              "def f():\n    from gmtkit.pointwise import density\n"
              "    from gmtkit import measures\n")
    assert _package_imports(source) == {"area", "grids", "smoothing", "pointwise", "measures"}


def test_feature_modules_import_only_errors_and_grids():
    library = {p.stem: _package_imports(p.read_text())
               for p in Path(gmtkit.__file__).parent.glob("*.py")
               if p.stem not in ("cli", "__init__")}
    assert {"errors", "grids", "area", "hausdorff", "sobolev_bv"} <= set(library)
    for name, imports in sorted(library.items()):
        allowed = _MAY_IMPORT.get(name, {"errors", "grids"})
        assert imports <= allowed, f"{name} imports {sorted(imports - allowed)}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("inputs")
    write_inputs(where)
    return where


def test_every_command_has_a_closure():
    assert set(_CLOSURES) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", list(_CLOSURES))
def test_a_cli_job_loads_only_its_command_modules(command, inputs):
    argv = next(argv for _, argv, code in JOBS if argv[0] == command and code == 0)
    out = _python("-X", "importtime", "-m", "gmtkit.cli", *argv,
                  "--output", f"out-{command}", "--no-timestamp", cwd=inputs)
    assert out.returncode == 0, out.stderr[-2000:]
    assert _importtime_modules(out.stderr) == _CLOSURES[command] | {"errors"}
