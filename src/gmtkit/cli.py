"""Batch command-line front end: ``gmtkit <command> [flags]``.

COMMANDS drives each run: the command name is parsed first, then a parser
built for that command's flags alone (``gmtkit -h`` lists the commands,
``gmtkit <command> -h`` the flags); each --input file is read as the kind
the table names before the handler runs.  A run writes a versioned JSON
(or CSV) report plus optional SVG plots.  All randomness flows from
--seed; --no-timestamp drops the one timestamp field for byte-stable runs.
A command imports the library modules it runs when it runs (its handler
and its input readers), so a cold job loads no other module.

Exit codes: 0 success, 1 validation error (argv usage errors and every
library input error, i.e. any ValueError, included), 2 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import gmtkit

from .errors import NonConvergenceError

SCHEMA = "gmtkit/1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2


class ValidationFailure(ValueError):
    """Bad config or input file; maps to exit code 1."""


def _parse_floats(text: str, count: int | None = None) -> list[float]:
    vals = [float(p) for p in text.split(",") if p != ""]
    if count is not None and len(vals) != count:
        raise ValidationFailure(f"expected {count} comma-separated values, got {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise ValidationFailure(f"values must be finite, got {text!r}")
    return vals


def _parse_scales(text: str) -> np.ndarray:
    """'a..b' -> dyadic scales 2^-a .. 2^-b."""
    try:
        a, b = map(int, text.split(".."))
    except (ValueError, TypeError) as exc:
        raise ValidationFailure(f"bad --scales {text!r}; expected 'a..b'") from exc
    return gmtkit.hausdorff.default_scales(a, b)


# each --input kind's reader; it loads its module through the package's
# first-access attributes and looks its class up per call, not at import
_READERS = {
    "measure JSON": lambda p: gmtkit.measures.AtomicMeasure.from_json(p.read_text()),
    "IFS JSON": lambda p: gmtkit.hausdorff.IfsSystem.from_json(p.read_text()),
    "point CSV": lambda p: gmtkit.hausdorff.PointCloud.from_csv(p),
    "raster CSV": lambda p: gmtkit.RasterSet.from_csv(p),
    "grid CSV": lambda p: gmtkit.GridFunction.from_csv(p),
}


def _load(path: str, kind: str):
    """One input file read as ``kind`` ("IFS JSON or point CSV": by suffix); a missing
    or empty file, or a parse failure, is a ValidationFailure naming the kind read."""
    p = Path(path)
    if not p.is_file():
        raise ValidationFailure(f"input file not found: {path}")
    if p.stat().st_size == 0:
        raise ValidationFailure(f"input file is empty: {path}")
    if kind == "IFS JSON or point CSV":
        kind = "IFS JSON" if p.suffix == ".json" else "point CSV"
    try:
        return _READERS[kind](p)
    except Exception as exc:
        raise ValidationFailure(f"cannot parse {kind} {path}: {exc}") from exc


# ---------------------------------------------------------------- commands


def _cmd_measure(args, mu: gmtkit.measures.AtomicMeasure) -> dict:
    from . import measures as ms

    result = {
        "atoms": list(mu.atoms),
        "m": mu.m,
        "total_variation": ms.total_variation(mu, mu.full_subset()),
        "atom_norms": np.linalg.norm(mu.weights, axis=1).tolist(),
    }
    if mu.m == 1:
        pos, neg = ms.jordan_decomposition(mu)
        e_pos, e_neg = ms.hahn_decomposition(mu)
        result["jordan_positive"] = pos.weights[:, 0].tolist()
        result["jordan_negative"] = neg.weights[:, 0].tolist()
        result["hahn_positive_atoms"] = [a for a, f in zip(mu.atoms, e_pos.flags) if f]
        result["hahn_negative_atoms"] = [a for a, f in zip(mu.atoms, e_neg.flags) if f]
    return result


def _cmd_dim(args, obj: gmtkit.hausdorff.IfsSystem | gmtkit.hausdorff.PointCloud) -> dict:
    from . import hausdorff as hd

    est = hd.dimension_estimate(obj, _parse_scales(args.scales))
    return {
        "slope": est.slope,
        "intercept": est.intercept,
        "r2": est.r2,
        "degenerate": est.degenerate,
        "scales": est.scales.tolist(),
        "counts": est.counts.tolist(),
    }


def _cmd_density(args, E: gmtkit.RasterSet) -> dict:
    from . import pointwise as pw

    x = _parse_floats(args.point, E.ndim)
    report = pw.density(E, x)
    return {
        "point": x,
        "classification": report.classification,
        "radii": report.radii.tolist(),
        "ratios": report.ratios.tolist(),
        "limit_estimate": report.limit_estimate,
    }


def _cmd_mollify(args, f: gmtkit.GridFunction) -> dict:
    from . import smoothing as sm

    kernel = sm.make_standard_mollifier(f.ndim, args.eps)
    out = sm.mollify(f, kernel)
    out_path = Path(args.output) / "mollified.csv"
    out.to_csv(out_path)
    return {
        "eps": args.eps,
        "kernel_mass": kernel.mass(),
        "output_grid": out_path.name,
        "input_extents": list(f.extents),
        "output_extents": list(out.extents),
    }


def _cmd_weakdiff(args, f: gmtkit.GridFunction, g: gmtkit.GridFunction) -> dict:
    from . import smoothing as sm

    battery = sm.TestFunctionBattery.seeded(*f._box(), seed=args.seed)
    residual = sm.weak_derivative_residual(f, g, args.axis, battery)
    return {"axis": args.axis, "residual": residual, "battery_size": battery.count}


def _cmd_sobolev(args, f: gmtkit.GridFunction) -> dict:
    from . import sobolev_bv as sb

    p = args.p
    rep = sb.sobolev_norm(f, p)
    result = {
        "p": p,
        "lp_norm": rep.lp_norm,
        "grad_lp_norm": rep.grad_lp_norm,
        "sobolev_norm": rep.sobolev_norm,
        "p_star": rep.p_star,
    }
    n = f.ndim
    if p < n:
        lhs, rhs, C = sb.gns_check(f, p)
        result["regime"] = "gns"
        result["embedding"] = {"lhs": lhs, "rhs": rhs, "constant": C, "holds": bool(lhs <= rhs)}
    elif p == n:
        b = sb.bmo_seminorm(f)
        bound = 2 * float(np.abs(f.values).max())
        result["regime"] = "bmo"
        result["embedding"] = {"bmo_seminorm": b, "bound": bound, "holds": bool(b <= bound)}
    else:
        worst = sb.morrey_check(f, p, seed=args.seed)
        result["regime"] = "morrey"
        result["embedding"] = {"worst_ratio": worst, "holds": bool(worst <= 1.0)}
    return result


def _cmd_bv(args, f: gmtkit.GridFunction) -> dict:
    from . import sobolev_bv as sb

    if f.ndim == 1:
        dec = sb.decompose_1d(f.values, h=f.h)
        return {
            "variation": sb.variation_1d(f.values),
            "bv_norm": sb.bv_norm(f.values, h=f.h),
            "jumps": [{"x": float(f.origin[0] + x), "height": h} for x, h in dec.jump_locations],
            "ac_rise": float(dec.ac_part[-1] - dec.ac_part[0]),
            "singular_rise": float(dec.cantor_part[-1] - dec.cantor_part[0]),
        }
    grad = sb.variation_nd(f, "gradient-integral")
    coarea = sb.variation_nd(f, "coarea")
    return {
        "variation_gradient_integral": grad.tv,
        "variation_coarea": coarea.tv,
        "per_level": coarea.per_level,
    }


def _cmd_area(args) -> dict:
    from . import area as ar

    params = {} if args.range is None else dict(zip(("lo", "hi"), _parse_floats(args.range, 2)))
    phi = ar.builtin_map(args.map, **params)
    if phi.k == 1 and phi.injective:
        return {"map": args.map, "length": ar.curve_length(phi)}
    if phi.injective:
        return {"map": args.map, "surface_measure": ar.surface_measure(phi)}
    lhs, rhs = ar.area_formula_with_multiplicity(phi, n_y=4096)
    return {"map": args.map, "multiplicity_integral": lhs, "jacobian_integral": rhs}


class Command(NamedTuple):
    """A subcommand: its handler, the kind of each --input file in order
    (the handler takes the args and those files, loaded), the flags it reads
    besides _COMMON, and its plot kind (None: it takes no --plot)."""

    handler: Callable[..., dict]
    inputs: tuple[str, ...]
    flags: tuple[str, ...] = ()
    plot: str | None = None


COMMANDS = {
    "measure": Command(_cmd_measure, ("measure JSON",)),
    "dim": Command(_cmd_dim, ("IFS JSON or point CSV",), ("--scales",), plot="loglog"),
    "density": Command(_cmd_density, ("raster CSV",), ("--point",)),
    "mollify": Command(_cmd_mollify, ("grid CSV",), ("--eps",)),
    "weakdiff": Command(_cmd_weakdiff, ("grid CSV", "grid CSV"), ("--axis",)),
    "sobolev": Command(_cmd_sobolev, ("grid CSV",), ("--p",)),
    "bv": Command(_cmd_bv, ("grid CSV",), plot="levels"),
    "area": Command(_cmd_area, (), ("--map", "--range")),
}


# ------------------------------------------------------------------ output


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(obj)))


def _write_report(report: dict, out_dir: Path, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        path = out_dir / "report.csv"
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        with open(path, "w") as fh:
            fh.write("key,value\n")
            for k, v in rows:
                fh.write(f"{k},{v}\n")
    return path


_SVG_W, _SVG_H, _SVG_MARGIN = 480, 360, 40


def _svg_series(xs, ys, line_from=None):
    """Axis frame and one series: step polyline, or markers and the line_from (slope, intercept)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    w, h, margin = _SVG_W, _SVG_H, _SVG_MARGIN

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (w - 2 * margin)

    def sy(y):
        return h - margin - (y - y0) / (y1 - y0) * (h - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<rect x="{margin}" y="{margin}" width="{w - 2 * margin}" '
        f'height="{h - 2 * margin}" fill="none" stroke="black"/>\n'
    ]
    if line_from is None:
        pts = []
        for i in range(len(xs)):
            pts.append(f"{sx(xs[i]):.2f},{sy(ys[i]):.2f}")
            if i + 1 < len(xs):
                pts.append(f"{sx(xs[i + 1]):.2f},{sy(ys[i]):.2f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="steelblue"/>\n')
    else:
        slope, intercept = line_from
        ya, yb = slope * x0 + intercept, slope * x1 + intercept
        parts.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(ya):.2f}" x2="{sx(x1):.2f}" '
            f'y2="{sy(yb):.2f}" stroke="firebrick"/>\n'
        )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>\n')
    parts.append(
        f'<text x="{margin}" y="{h - 8}" font-size="11">x: [{x0:.4g}, {x1:.4g}]</text>\n'
        f'<text x="8" y="{margin - 8}" font-size="11">y: [{y0:.4g}, {y1:.4g}]</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def emit_plot(report: dict, kind: str, out_dir: Path) -> Path:
    """Write a loglog (dimension fit) or levels (coarea) SVG from a report."""
    result = report.get("results", {})
    if kind == "loglog":
        if "scales" not in result or "counts" not in result:
            raise ValidationFailure("report lacks the scales/counts series for a loglog plot")
        scales = np.asarray(result["scales"], dtype=float)
        counts = np.asarray(result["counts"], dtype=float)
        if scales.size == 0:
            raise ValidationFailure("empty series")
        xs = np.log(1.0 / scales)
        ys = np.log(counts)
        svg = _svg_series(xs, ys, line_from=(result["slope"], result["intercept"]))
        path = out_dir / "loglog.svg"
    elif kind == "levels":
        levels = result.get("per_level")
        if not levels:
            raise ValidationFailure("report lacks the per_level series for a levels plot")
        xs = [t for t, _ in levels]
        ys = [p for _, p in levels]
        svg = _svg_series(xs, ys)
        path = out_dir / "levels.svg"
    else:
        raise ValidationFailure(f"unknown plot kind {kind!r}")
    path.write_text(svg)
    return path


# -------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """argparse held to the exit-code contract.

    A token that starts with '-' and a digit (``--point -0.5,0``) is a
    value, never a flag; a flag is never abbreviated (``--p`` is not
    ``--point``); a usage error raises ValidationFailure (exit 1) where
    argparse would exit 2, the code for non-convergence.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse's own pattern takes only a single number (-1, -.5)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValidationFailure(f"{self.prog}: {message}")


# the flags every command reads; _FLAGS holds each flag's one spec
_COMMON = ("--input", "--output", "--seed", "--format", "--no-timestamp")
_FLAGS = {
    "--input": dict(action="append", default=[], help="input file; given twice for weakdiff"),
    "--output": dict(default=".", help="output directory"),
    "--seed": dict(type=int, default=42),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--no-timestamp": dict(action="store_true",
                           help="omit the timestamp field for byte-identical reruns"),
    "--p": dict(type=float, default=2.0, help="Lebesgue/Sobolev exponent"),
    "--eps": dict(type=float, required=True, help="mollifier width"),
    "--scales": dict(default="3..10", help="dyadic scale range a..b"),
    "--map": dict(required=True, help="builtin map name: helix, polar, sphere, fold, square"),
    "--range": dict(help="domain lo,hi of the helix and square maps"),
    "--point": dict(required=True, help="query point x1,...,xn"),
    "--axis": dict(type=int, default=0, help="axis of the weak derivative"),
    "--plot": dict(choices=["none", "svg"], default="none"),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    """The command name, then a parser built for that command's flags alone."""
    top = _Parser(prog="gmtkit", description="Batch front end for the gmtkit analysis library.")
    top.add_argument("command", choices=COMMANDS, metavar="command", help=", ".join(COMMANDS))
    rest = top.add_argument("flags", nargs=argparse.REMAINDER, help="see gmtkit <command> -h")
    rest.required = False  # "gmtkit" alone lacks only the command
    first = top.parse_args(argv)
    command = COMMANDS[first.command]
    parser = _Parser(prog=f"gmtkit {first.command}")
    for flag in _COMMON + command.flags + (("--plot",) if command.plot else ()):
        parser.add_argument(flag, **_FLAGS[flag])
    args, unread = parser.parse_known_args(first.flags, argparse.Namespace(command=first.command))
    if unread:
        top.error(f"unrecognized arguments: {' '.join(unread)}")
    return args


def _argv_output(argv: list[str]) -> Path:
    """The --output directory named in an argv that failed to parse."""
    for i, token in enumerate(argv):
        if token == "--output" and i + 1 < len(argv):
            return Path(argv[i + 1])
        if token.startswith("--output="):
            return Path(token.split("=", 1)[1])
    return Path(".")


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except ValidationFailure as exc:
        _write_error(_argv_output(argv), "validation", str(exc))
        return EXIT_VALIDATION
    out_dir = Path(args.output)
    command = COMMANDS[args.command]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if len(args.input) != len(command.inputs):
            raise ValidationFailure(f"{args.command} takes {len(command.inputs)} --input file(s), "
                                    f"got {len(args.input)}")
        inputs = [_load(path, kind) for path, kind in zip(args.input, command.inputs)]
        results = command.handler(args, *inputs)
        report = {"schema": SCHEMA, "command": args.command, "seed": args.seed,
                  "results": results}
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        bad = [k for k, v in rows if v in ("NaN", "Infinity", "-Infinity")]
        if bad:
            raise ValidationFailure(f"report values must be finite; not finite: {', '.join(bad)}")
        if not args.no_timestamp:
            report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        # the plot goes first: a report that cannot be plotted (1-D bv has
        # no per_level series) fails the job before report.json exists
        if getattr(args, "plot", "none") == "svg":
            emit_plot(report, command.plot, out_dir)
        _write_report(report, out_dir, args.format)
        return EXIT_OK
    except NonConvergenceError as exc:
        _write_error(out_dir, "non-convergence", str(exc))
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        # every library input error (ResolutionError, RegimeError, ...) is one
        _write_error(out_dir, "validation", str(exc))
        return EXIT_VALIDATION


def _write_error(out_dir: Path, kind: str, message: str) -> None:
    payload = {"schema": SCHEMA, "error": {"kind": kind, "message": message}}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass
    print(json.dumps(payload), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
