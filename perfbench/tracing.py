"""Per-layer timing from outside the program.

``Tracer.install`` replaces each traced public function of gmtkit by a
wrapper that records a span: calls, and self time (the span's duration
minus the time its child spans cover).  Every binding of the function in
a loaded ``gmtkit.*`` module is replaced, so calls between modules through
names bound at import (``from .pointwise import gradient_fd``) are seen
as well.  Private helpers, methods not listed below, and references
captured before ``install`` (closures, dispatch tables) are not wrapped;
their time counts as self time of the nearest traced caller.

This module imports only the standard library, so that loading it in a
cold CLI child does not change what ``import gmtkit`` costs.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

# layer (gmtkit module) -> traced public functions and methods
TRACED = {
    "cli": ["run", "emit_plot"],
    "grids": ["GridFunction.from_callable", "GridFunction.to_csv", "GridFunction.from_csv",
              "RasterSet.from_predicate", "RasterSet.to_csv", "RasterSet.from_csv"],
    "hausdorff": ["omega", "box_counts", "premeasure_delta", "ifs_points", "dimension_estimate",
                  "lipschitz_image_bound_check", "IfsSystem.from_json", "PointCloud.from_csv"],
    "area": ["builtin_map", "curve_length", "surface_measure", "area_formula_with_multiplicity",
             "change_of_variables", "jacobian_l1_check"],
    "measures": ["total_variation", "partition_variation_sup", "jordan_decomposition",
                 "hahn_decomposition"],
    "pointwise": ["density", "approx_limit", "directional_derivative", "gradient_fd",
                  "default_radii"],
    "smoothing": ["make_standard_mollifier", "MollifierKernel.mass", "mollify",
                  "weak_derivative_residual", "TestFunctionBattery.seeded", "bump_value",
                  "bump_grad"],
    "sobolev_bv": ["sobolev_norm", "gns_check", "poincare_cube_check", "bmo_seminorm",
                   "morrey_check", "variation_1d", "bv_norm", "perimeter",
                   "perimeter_calibration", "seeded_bump_field", "variation_nd",
                   "decompose_1d"],
}
LAYERS = list(TRACED)

# first call in a process, reported apart from warm calls
FIRST_CALL = ("area.curve_length", "smoothing.make_standard_mollifier")


def _box_count_work(args: dict, result) -> tuple[str, float]:
    return "hausdorff.box_counts.points", float(
        args["cloud"].size * args["n_offsets"] * len(args["scales"]))


def _mollified_cells(args: dict, result) -> tuple[str, float]:
    return "smoothing.mollify.cells", float(result.values.size)


def _csv_bytes(args: dict, result) -> tuple[str, float]:
    return "grids.csv_bytes", float(os.path.getsize(args["path"]))


# traced function -> work counter derived from its arguments and result
COUNTERS = {
    "hausdorff.box_counts": _box_count_work,
    "smoothing.mollify": _mollified_cells,
    "grids.GridFunction.to_csv": _csv_bytes,
    "grids.GridFunction.from_csv": _csv_bytes,
    "grids.RasterSet.to_csv": _csv_bytes,
    "grids.RasterSet.from_csv": _csv_bytes,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for layer, funcs in TRACED.items():
        for func in funcs:
            units[f"{layer}.{func}.calls"] = "count"
            units[f"{layer}.{func}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.import_s"] = "s"
    units["cli.run_s"] = "s"
    for key in FIRST_CALL:
        units[f"{key}.first_s"] = "s"
    units["hausdorff.box_counts.points"] = "count"
    units["smoothing.mollify.cells"] = "count"
    units["grids.csv_bytes"] = "bytes"
    units["trace.overhead_pct"] = "%"
    return units


def empty_totals() -> dict:
    return {"calls": {}, "self_s": {}, "first_s": {}, "counters": {}}


def add_totals(into: dict, other: dict) -> None:
    for part in ("calls", "self_s", "counters"):
        for key, value in other[part].items():
            into[part][key] = into[part].get(key, 0) + value
    for key, samples in other["first_s"].items():
        into["first_s"].setdefault(key, []).extend(samples)


def totals_to_metrics(totals: dict, rounds: int) -> dict[str, float]:
    """Counts and times per round; first-call times as a median."""
    out = {}
    for key, n in totals["calls"].items():
        out[f"{key}.calls"] = n / rounds
        out[f"{key}.self_s"] = totals["self_s"][key] / rounds
    for name, value in totals["counters"].items():
        out[name] = value / rounds
    for key, samples in totals["first_s"].items():
        out[f"{key}.first_s"] = statistics.median(samples)
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds of each gmtkit layer from ``-X importtime``."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2].startswith("gmtkit.") and parts[1].isdigit():
            layer = parts[2][len("gmtkit."):]
            if layer in TRACED:
                out[layer] = int(parts[1]) / 1e6
    return out


class Tracer:
    """Span recorder over the functions in ``TRACED``."""

    def __init__(self):
        self.totals = empty_totals()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen_first: set[str] = set()

    def reset(self) -> None:
        """Drop counts and times; first-call times are per process and stay."""
        first = self.totals["first_s"]
        self.totals = empty_totals()
        self.totals["first_s"] = first

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gmtkit" or name.startswith("gmtkit."))]
        for layer, funcs in TRACED.items():
            module = sys.modules.get(f"gmtkit.{layer}")
            if module is None:  # a layer the process never loaded has no calls
                continue
            for func in funcs:
                key = f"{layer}.{func}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(key, raw.__func__)))
                    else:
                        self._patch(cls, attr, self._wrap(key, raw))
                    continue
                original = getattr(module, func)
                wrapped = self._wrap(key, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, key: str, fn):
        stack = self._stack
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn) if counter else None
        first = key in FIRST_CALL
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                totals = self.totals
                totals["calls"][key] = totals["calls"].get(key, 0) + 1
                totals["self_s"][key] = totals["self_s"].get(key, 0.0) + dt - child
                if first and key not in self._seen_first:
                    self._seen_first.add(key)
                    totals["first_s"].setdefault(key, []).append(dt)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name, amount = counter(bound.arguments, result)
                totals["counters"][name] = totals["counters"].get(name, 0.0) + amount
            return result

        return wrapper
