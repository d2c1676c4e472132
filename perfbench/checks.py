"""Correctness checks for benchmark outputs.

Every reference here is computed apart from gmtkit: closed-form values
(ln 2 / ln 3, sqrt(2) per unit of helix parameter, 4 pi, pi), direct
sums written out in numpy, or a property the method must have
(monotonicity, scaling, an inequality holding).  No check compares
against a stored copy of an earlier output.  A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA = "gmtkit/1"
CANTOR_DIM = math.log(2) / math.log(3)
SIERPINSKI_DIM = math.log(3) / math.log(2)


class CheckFailed(AssertionError):
    """An output disagrees with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(name: str, got, want: float, tol: float) -> None:
    """|got - want| <= tol, with None and NaN counted as failures."""
    ok = got is not None and math.isfinite(got) and abs(got - want) <= tol
    require(ok, f"{name}: got {got!r}, want {want!r} +- {tol:g}")


# ----------------------------------------------------------- geometry


def cantor_slope(slope: float) -> None:
    close("cantor box-counting slope", slope, CANTOR_DIM, 0.02)


def sierpinski_slope(slope: float) -> None:
    close("sierpinski box-counting slope", slope, SIERPINSKI_DIM, 0.1)


def square_grid_slope(slope: float) -> None:
    close("dense square grid slope", slope, 2.0, 0.1)


def helix_length(length: float, lo: float, hi: float) -> None:
    # |d/dt (cos t, sin t, t)| = sqrt(2) everywhere
    close("helix length", length, (hi - lo) * math.sqrt(2), 1e-8)


def sphere_area(area: float) -> None:
    close("unit sphere area", area, 4 * math.pi, 1e-6)


def polar_disk_area(area: float) -> None:
    close("polar substitution lhs", area, math.pi, 1e-6)


def area_formula_sides(name: str, lhs: float, rhs: float, want: float) -> None:
    close(f"{name} multiplicity integral", lhs, want, 1e-3 * want)
    close(f"{name} jacobian integral", rhs, want, 1e-3 * want)


def jacobian_l1(lhs: float, rhs: float) -> None:
    close("polar int |det D phi|", lhs, math.pi, 0.05 * math.pi)
    close("polar multiplicity integral", rhs, math.pi, 0.05 * math.pi)


def total_variation(tv: float, partition_sup: float, weights: np.ndarray) -> None:
    norms = float(np.sqrt((np.asarray(weights, dtype=float) ** 2).sum(axis=1)).sum())
    close("total variation vs sum of atom norms", tv, norms, 1e-12 * max(1.0, norms))
    close("total variation vs partition supremum", partition_sup, tv, 1e-12 * max(1.0, tv))


def premeasure_properties(monotone: list[float], scaled: tuple[float, float],
                          lipschitz: tuple[float, float]) -> None:
    require(all(b >= a - 1e-9 for a, b in zip(monotone, monotone[1:])),
            f"premeasure not monotone as delta shrinks: {monotone}")
    lhs, rhs = scaled
    require(abs(lhs - rhs) <= 1e-9 * max(1.0, rhs), f"t^s scaling broken: {lhs} vs {rhs}")
    image, bound = lipschitz
    require(image <= bound + 1e-9, f"Lipschitz image bound broken: {image} > {bound}")


# ------------------------------------------------------------ lattice


def density_ratio(name: str, ratio: float, want: float) -> None:
    close(f"density {name}", ratio, want, 1e-3)


def approx_limit_smooth(value, fx: float) -> None:
    close("approximate limit at a smooth point", value, fx, 0.02)


def approx_limit_jump(value) -> None:
    require(value is None, f"approximate limit at a jump should not exist, got {value!r}")


def directional_derivative(got: float, v) -> None:
    # f(x, y) = x^2 y / (x^2 + y^2) is 1-homogeneous: f(t v) / t = f(v)
    v1, v2 = float(v[0]), float(v[1])
    close(f"directional derivative along {v1:.4g},{v2:.4g}", got,
          v1 * v1 * v2 / (v1 * v1 + v2 * v2), 1e-6)


def mollifier_mass(mass: float) -> None:
    close("mollifier mass", mass, 1.0, 1e-8)


def standard_kernel(n: int, eps: float, h: float) -> np.ndarray:
    """Sampled standard mollifier exp(1/(r^2-1)), unit discrete mass."""
    kr = int(math.ceil(eps / h)) - 1
    offsets = np.arange(-kr, kr + 1) * h
    grids = np.meshgrid(*([offsets] * n), indexing="ij")
    r2 = sum(g * g for g in grids) / (eps * eps)
    K = np.zeros_like(r2)
    inside = r2 < 1.0
    K[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return K / K.sum()


def mollified_cells(out: np.ndarray, f: np.ndarray, eps: float, h: float,
                    cells: np.ndarray) -> None:
    """Selected cells of a 'valid'-mode mollification equal direct sums."""
    K = standard_kernel(f.ndim, eps, h)
    w = K.shape[0]
    scale = float(np.abs(f).max()) or 1.0
    for idx in cells:
        window = f[tuple(slice(i, i + w) for i in idx)]
        want = float((window * K).sum())
        close(f"mollified cell {tuple(int(i) for i in idx)}", float(out[tuple(idx)]),
              want, 1e-10 * scale)


def constant_mollified(out: np.ndarray, c: float) -> None:
    worst = float(np.abs(out - c).max())
    require(worst <= 1e-12 * max(1.0, abs(c)), f"constant {c} mollified off by {worst:.3g}")


def weak_residual(residual: float) -> None:
    require(residual <= 1e-4, f"weak-derivative residual {residual:.3g} > 1e-4")


def variation_routes(grad: float, coarea: float, div_sup: float) -> None:
    require(grad > 0, f"gradient-integral variation {grad} not positive")
    rel = abs(coarea - grad) / grad
    require(rel <= 0.02, f"coarea {coarea} vs gradient integral {grad}: {rel:.2%} > 2%")
    require(div_sup <= grad * (1 + 1e-12),
            f"divergence-sup lower bound {div_sup} exceeds gradient integral {grad}")


def inequality_holds(name: str, lhs: float, rhs: float) -> None:
    require(lhs <= rhs, f"{name} inequality fails: {lhs} > {rhs}")


def bmo_of_constant(value: float) -> None:
    require(value == 0.0, f"BMO seminorm of a constant is {value!r}, not 0")


def decomposition_sums(f: np.ndarray, ac: np.ndarray, jump: np.ndarray,
                       singular: np.ndarray) -> None:
    f = np.asarray(f, dtype=float)
    worst = float(np.abs(ac + jump + singular - (f - f[0])).max())
    require(worst <= 1e-12 * max(1.0, float(np.abs(f).max())),
            f"BV parts do not sum to f - f(0): off by {worst:.3g}")


def bit_exact(name: str, a: np.ndarray, b: np.ndarray) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    require(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
            f"{name}: round trip is not bit-exact")


# ---------------------------------------------------------- CLI reports


def report_header(report: dict, command: str) -> dict:
    require(report.get("schema") == SCHEMA, f"schema {report.get('schema')!r} != {SCHEMA!r}")
    require(report.get("command") == command, f"command {report.get('command')!r} != {command!r}")
    require("timestamp" not in report, "--no-timestamp report carries a timestamp")
    return report["results"]


def csv_report(text: str) -> dict:
    """Rebuild the flat key -> value map of a ``--format csv`` report."""
    lines = text.splitlines()
    require(lines and lines[0] == "key,value", "CSV report lacks its key,value header")
    out = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        out[key] = json.loads(value)
    return out


def read_lattice_csv(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Read the documented lattice CSV (header dims=..;origin=..;h=..)."""
    with open(path) as fh:
        header = dict(part.split("=", 1) for part in fh.readline().strip().split(";"))
        values = np.array([float(line) for line in fh if line.strip()])
    shape = tuple(int(s) for s in header["dims"].split("x"))
    origin = np.array([float(s) for s in header["origin"].split(",")])
    return values.reshape(shape), origin, float(header["h"])


def sobolev_gns(results: dict, p: float, n: int) -> None:
    require(results.get("regime") == "gns", f"regime {results.get('regime')!r} != 'gns'")
    emb = results["embedding"]
    require(emb["holds"] is True, f"GNS report says holds={emb['holds']!r}")
    inequality_holds("GNS", emb["lhs"], emb["rhs"])
    close("p*", results["p_star"], n * p / (n - p), 1e-12)


def sobolev_bmo_constant(results: dict) -> None:
    require(results.get("regime") == "bmo", f"regime {results.get('regime')!r} != 'bmo'")
    emb = results["embedding"]
    bmo_of_constant(emb["bmo_seminorm"])
    require(emb["holds"] is True, f"BMO report says holds={emb['holds']!r}")


def bv_1d(results: dict, f: np.ndarray, h: float) -> None:
    f = np.asarray(f, dtype=float)
    variation = float(np.abs(np.diff(f)).sum())
    close("1-D variation", results["variation"], variation, 1e-9)
    close("1-D BV norm", results["bv_norm"], float(np.abs(f).sum() * h) + variation, 1e-9)
    rise = results["ac_rise"] + results["singular_rise"] + sum(j["height"] for j in results["jumps"])
    close("BV parts rise", rise, float(f[-1] - f[0]), 1e-9)
