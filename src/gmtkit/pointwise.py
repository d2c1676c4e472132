"""Pointwise differentiation and density theory on grid functions.

Directional derivatives use Richardson-extrapolated central differences;
set density, approximate limits and Lebesgue points are ball averages with
cell-center membership.  Classification of finite-resolution limits uses
fixed bands (see the module constants) since exact limits are out of reach
on a lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergenceError, ResolutionError, _check_count, _check_real
from .grids import GridFunction, RasterSet
from .hausdorff import omega

__all__ = [
    "DensityReport",
    "directional_derivative",
    "gradient_fd",
    "jacobian_fd",
    "pointwise_lipschitz",
    "density",
    "approx_limit",
    "lebesgue_point_check",
    "approx_partials",
    "default_radii",
]

# finite-resolution stand-ins for "density 1 / density 0 / neither"
DENSITY_ONE_BAND = 0.95
DENSITY_ZERO_BAND = 0.05
OSCILLATION_SPREAD = 0.15

RICHARDSON_RTOL = 1e-6


def directional_derivative(
    f: Callable | GridFunction,
    x: Sequence[float],
    v: Sequence[float],
    h0: float = 0.1,
    levels: int = 10,
) -> float:
    """Derivative of t -> f(x + t v) at 0 by extrapolated central differences.

    Raises NonConvergenceError when the extrapolation table does not settle
    (no-limit signal).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise ValueError("direction must be nonzero")
    _check_real("h0", h0)
    _check_count("levels", levels, 1, "step size")
    if isinstance(f, GridFunction):
        evaluate = lambda p: f.interpolate(p)
    else:
        evaluate = lambda p: float(f(*p))
    steps = h0 / 2.0 ** np.arange(levels)
    diffs = np.array(
        [(evaluate(x + t * v) - evaluate(x - t * v)) / (2 * t) for t in steps]
    )
    # Richardson table for the h^2 expansion of the central difference
    table = diffs.copy()
    prev_best = None
    for col in range(1, levels):
        factor = 4.0**col
        table = (factor * table[1:] - table[:-1]) / (factor - 1)
        best = table[0]
        if prev_best is not None and abs(best - prev_best) < RICHARDSON_RTOL * (
            1 + abs(best)
        ):
            return float(best)
        prev_best = best
    raise NonConvergenceError("directional derivative schedule did not converge")


def gradient_fd(f: GridFunction) -> np.ndarray:
    """Finite-difference gradient field, shape (ndim, *extents).

    Central differences in the interior (O(h^2)), second-order one-sided
    stencils on the faces.
    """
    if any(s < 3 for s in f.extents):
        raise ValueError("need at least 3 samples per axis")
    return np.stack(
        [np.gradient(f.values, f.h, axis=d, edge_order=2) for d in range(f.ndim)]
    )


def jacobian_fd(
    phi: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    step: float = 1e-6,
) -> tuple[np.ndarray, float | None]:
    """Jacobian matrix by central differences; (matrix, det) with det only
    when the matrix is square.

    ``phi`` maps a point array of shape (k,) to an array of shape (n,).
    """
    J = _central_differences(phi, np.asarray(x, dtype=float), step)
    det = float(np.linalg.det(J)) if J.shape[0] == J.shape[1] else None
    return J, det


def _central_differences(
    phi: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference derivatives of ``phi`` along each coordinate of
    ``x`` (the last axis of x), stacked on a new last axis: a (k,) point
    gives an (n, k) Jacobian, an (N, k) point array an (N, n, k) one.
    """
    k = x.shape[-1]
    cols = []
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        cols.append((np.asarray(phi(x + e)) - np.asarray(phi(x - e))) / (2 * step))
    return np.stack(cols, axis=-1)


def default_radii(f: GridFunction | RasterSet, x: Sequence[float], count: int = 8) -> np.ndarray:
    """Geometric radius schedule from a quarter of the box down to ~3h."""
    _check_count("count", count, 1, "radius")
    lo, hi = f._box()
    x = f._point(x)
    span = min(min(x[d] - lo[d], hi[d] - x[d]) for d in range(f.ndim))
    r0 = max(span * 0.9, 4 * f.h)
    radii = [r0]
    while len(radii) < count and radii[-1] / 2 >= 3 * f.h:
        radii.append(radii[-1] / 2)
    return np.array(radii)


def pointwise_lipschitz(
    f: GridFunction,
    x: Sequence[float],
    radii: Sequence[float] | None = None,
) -> float:
    """Shell-wise sup of |f(x)-f(y)|/|x-y|, as a limsup estimate.

    Returns math.inf when the shell maxima keep growing as the shells
    shrink (locally unbounded difference quotients).
    """
    x, radii = _schedule(f, x, radii)
    # snap to the cell center so quotients are measured between samples
    x = f._center(np.array(f.index_of(x)))
    fx = f.value_at(x)
    shell_max = []
    for (dist2, vals), r_in in zip(_ball_samples(f, x, radii), list(radii[1:]) + [0.0]):
        dist = np.sqrt(dist2)
        sel = dist > max(r_in, f.h * 0.49)
        if not sel.any():
            continue
        shell_max.append(float((np.abs(vals[sel] - fx) / dist[sel]).max()))
    if not shell_max:
        raise ResolutionError("no lattice points inside the radius schedule")
    increasing = all(b >= a for a, b in zip(shell_max, shell_max[1:]))
    if len(shell_max) >= 3 and increasing and shell_max[-1] > 2 * shell_max[0]:
        return math.inf
    return max(shell_max[-2:])


def _schedule(f: GridFunction | RasterSet, x: Sequence[float], radii: Sequence[float] | None):
    """The checked point and its radii (``default_radii`` when None), never empty."""
    x = f._point(x)
    radii = np.asarray(default_radii(f, x) if radii is None else radii, dtype=float)
    if radii.size == 0:
        raise ValueError("the radius schedule is empty")
    for r in radii:
        _check_real("radius", r)
    return x, radii


def _ball_samples(f: GridFunction | RasterSet, x: np.ndarray, radii: np.ndarray):
    """Per radius r, (squared distances to x, samples) of the cells whose
    center lies in B(x, r), in row-major order.  All balls are cut from one
    window, taken at the largest radius."""
    window, offsets = f._ball_window(x, max(radii, default=0.0))
    dist2 = sum(d**2 for d in offsets)
    block = f._cells[window]
    return [(dist2[inside], block[inside]) for inside in (dist2 <= r * r for r in radii)]


@dataclass(frozen=True)
class DensityReport:
    """Ball-density ratios of a raster set at a point across radii."""

    radii: np.ndarray
    ratios: np.ndarray
    limit_estimate: float | None
    classification: str  # density-1 | density-0 | boundary | oscillating


def _balls(f: GridFunction | RasterSet, samples: list, radii: np.ndarray):
    """(samples in B(x, r), omega_n r^n) per radius from ``_ball_samples``;
    radii under 3h are a ResolutionError."""
    if radii.min() < 3 * f.h:
        raise ResolutionError(f"radius {radii.min()} below lattice resolution {f.h}")
    wn = omega(f.ndim)
    return [(vals, wn * r**f.ndim) for (_, vals), r in zip(samples, radii)]


def _density_ratios(balls: list[tuple[np.ndarray, float]], E: RasterSet) -> np.ndarray:
    """|E ∩ B| / |B| per ball, each given by its samples of E's indicator."""
    return np.array([min(E._midpoint_sum(inball) / vol, 1.0) for inball, vol in balls])


def density(E: RasterSet, x: Sequence[float], radii: Sequence[float] | None = None) -> DensityReport:
    """Density ratios Lebesgue(E ∩ B(x,r)) / (omega_n r^n) across radii."""
    x, radii = _schedule(E, x, radii)
    ratios = _density_ratios(_balls(E, _ball_samples(E, x, radii), radii), E)
    tail = ratios[-3:] if len(ratios) >= 3 else ratios
    spread = float(tail.max() - tail.min())
    estimate = float(tail.mean())
    if spread > OSCILLATION_SPREAD:
        cls, limit = "oscillating", None
    elif estimate > DENSITY_ONE_BAND:
        cls, limit = "density-1", estimate
    elif estimate < DENSITY_ZERO_BAND:
        cls, limit = "density-0", estimate
    else:
        cls, limit = "boundary", estimate
    return DensityReport(radii=radii, ratios=ratios, limit_estimate=limit, classification=cls)


def _limsups(balls: list[tuple[np.ndarray, float]], f: GridFunction) -> np.ndarray:
    """Per ball, the least t with {f > t} of density zero in it: its k-th
    largest sample, where k samples are the fewest that fail the predicate
    of ``_density_ratios`` (counts past the band plus one cell all fail it
    and are not built), or -inf when the ball holds fewer than k."""
    out, cell = [], f._weight
    for v, vol in balls:
        counts = np.arange(min(v.size, int(DENSITY_ZERO_BAND * vol / cell) + 2) + 1)
        k = int(np.searchsorted(counts * cell / vol, DENSITY_ZERO_BAND))
        out.append(np.partition(v, v.size - k)[v.size - k] if k <= v.size else -math.inf)
    return np.array(out, dtype=float)


def approx_limit(
    f: GridFunction,
    x: Sequence[float],
    eps_list: Sequence[float] = (0.2, 0.1, 0.05),
    radii: Sequence[float] | None = None,
) -> float | None:
    """Approximate limit of f at x, or None when it does not exist.

    A set has density zero at x when, in some ball B(x, r), its sample
    count times h^n is below DENSITY_ZERO_BAND of omega_n r^n.  Balls under
    8h are dropped when larger ones exist (they overstate thin sets by
    O(h/r)); a ball in use under 3h is a ResolutionError.  The median near
    x is returned when every {|f - median| >= eps} has density zero, else
    the midpoint of the approximate limsup and liminf (``_limsups``) when
    they agree within min(eps_list).  Otherwise the per-ball gaps,
    extrapolated linearly to r = 0 from the largest and smallest ball, tell
    "too coarse" (a ResolutionError: they close within min(eps_list)) from
    "no limit" (None).
    """
    x, radii = _schedule(f, x, radii)
    if len(eps_list) == 0:
        raise ValueError("eps_list must hold at least one tolerance")
    for eps in eps_list:
        _check_real("eps_list", eps)
    tol = min(eps_list)  # the sets shrink as eps grows, so the least eps decides
    samples = _ball_samples(f, x, radii)
    near = samples[radii.argmin()][1]
    if near.size == 0:
        raise ResolutionError("no samples near x")
    keep = [i for i, r in enumerate(radii) if r >= 8 * f.h] or list(range(len(radii)))
    balls = _balls(f, [samples[i] for i in keep], radii[keep])
    candidate = float(np.median(near))
    if _limsups([(np.abs(v - candidate), vol) for v, vol in balls], f).min() < tol:
        return candidate
    # the liminf is -limsup(-f); a ball with too few samples bounds neither
    ups = np.maximum(_limsups(balls, f), f.values.min())
    downs = np.minimum(-_limsups([(-v, vol) for v, vol in balls], f), f.values.max())
    up, down = float(ups.min()), float(downs.max())
    if abs(up - down) <= tol:
        return 0.5 * (up + down)
    r, gap = radii[keep], ups - downs
    a, b = int(r.argmax()), int(r.argmin())
    if r[a] > r[b]:
        slope = (gap[a] - gap[b]) / (r[a] - r[b])
        if gap[b] - slope * r[b] <= tol:
            need = (tol - gap[b]) / slope + r[b] if slope > 0 else r[b]
            raise ResolutionError(f"approximate limit at {x.tolist()} unresolved: needs a ball "
                                  f"of radius <= {need:.3g}, smallest used {r[b]:.3g}")
    return None


def lebesgue_point_check(
    f: GridFunction,
    x: Sequence[float],
    radii: Sequence[float] | None = None,
    tol: float = 0.05,
) -> tuple[np.ndarray, bool]:
    """Ball averages of |f - f(x)| per radius and a Lebesgue-point flag;
    radii under 3h are a ResolutionError."""
    x, radii = _schedule(f, x, radii)
    _check_real("tol", tol)
    fx = f.value_at(x)
    averages = np.array([f._midpoint_sum(np.abs(vals - fx)) / vol
                         for vals, vol in _balls(f, _ball_samples(f, x, radii), radii)])
    return averages, bool(averages[radii.argmin()] < tol)


def approx_partials(
    f: GridFunction,
    x: Sequence[float],
    max_steps: int = 8,
    central_fraction: float = 0.8,
) -> np.ndarray:
    """Robust per-axis derivative: median of the central 80% of one-sided
    difference quotients, the finite analog of discarding a density-0
    exceptional set.
    """
    _check_count("max_steps", max_steps, 1, "step")
    _check_real("central_fraction", central_fraction, maximum=1)
    idx = np.array(f.index_of(x))
    out = np.zeros(f.ndim)
    steps = np.arange(-max_steps, max_steps + 1)
    for d in range(f.ndim):
        line = f.values[tuple(idx[:d]) + (slice(None),) + tuple(idx[d + 1 :])]
        nb = steps[(steps != 0) & (idx[d] + steps >= 0) & (idx[d] + steps < f.extents[d])]
        if nb.size == 0:
            raise ResolutionError(f"axis {d} has no neighbours at x")
        q = np.sort((line[idx[d] + nb] - line[idx[d]]) / (nb * f.h))
        drop = int(len(q) * (1 - central_fraction) / 2)
        kept = q[drop : len(q) - drop] if len(q) > 2 * drop else q
        out[d] = float(np.median(kept))
    return out
