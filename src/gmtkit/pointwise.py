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

from .errors import NonConvergenceError, ResolutionError
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
    if radii is None:
        radii = default_radii(f, x)
    radii = np.asarray(radii, dtype=float)
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
    for r in radii:
        if r < 3 * f.h:
            raise ResolutionError(f"radius {r} below lattice resolution {f.h}")
    wn = omega(f.ndim)
    return [(vals, wn * r**f.ndim) for (_, vals), r in zip(samples, radii)]


def _density_ratios(balls: list[tuple[np.ndarray, float]], cell: float) -> np.ndarray:
    """|E ∩ B| / |B| per ball, each given by its samples of E's indicator."""
    return np.array([min(float(inball.sum()) * cell / vol, 1.0) for inball, vol in balls])


def density(E: RasterSet, x: Sequence[float], radii: Sequence[float] | None = None) -> DensityReport:
    """Density ratios Lebesgue(E ∩ B(x,r)) / (omega_n r^n) across radii."""
    x = E._point(x)
    if radii is None:
        radii = default_radii(E, x)
    radii = np.asarray(radii, dtype=float)
    ratios = _density_ratios(_balls(E, _ball_samples(E, x, radii), radii), E.h**E.ndim)
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


def approx_limit(
    f: GridFunction,
    x: Sequence[float],
    eps_list: Sequence[float] = (0.2, 0.1, 0.05),
    radii: Sequence[float] | None = None,
) -> float | None:
    """Approximate limit of f at x, or None when it does not exist.

    The samples of f in each ball B(x, r) are taken once.  A set {P(f)}
    has density zero at x when, in some ball, the count of samples where
    P holds times h^n is below DENSITY_ZERO_BAND of omega_n r^n.  Only
    radii of at least 8h are used when there are any (smaller balls
    overstate thin sets by O(h/r)); a radius in use below 3h is a
    ResolutionError.  A candidate (the median near x) passes when every
    {|f - candidate| >= eps} has density zero; otherwise the approximate
    limsup/liminf are bracketed by threshold bisection on the same
    samples, and None is returned when they disagree.
    """
    x = f._point(x)
    if radii is None:
        radii = default_radii(f, x)
    radii = np.asarray(radii, dtype=float)
    samples = _ball_samples(f, x, radii)
    near = samples[-1][1]
    if near.size == 0:
        raise ResolutionError("no samples near x")
    keep = [i for i, r in enumerate(radii) if r >= 8 * f.h] or list(range(len(radii)))
    balls = _balls(f, [samples[i] for i in keep], radii[keep])
    cell = f.h**f.ndim

    def density_zero(pred: Callable[[np.ndarray], np.ndarray]) -> bool:
        ratios = _density_ratios([(pred(vals), vol) for vals, vol in balls], cell)
        return float(ratios.min()) < DENSITY_ZERO_BAND

    candidate = float(np.median(near))
    if all(density_zero(lambda v: np.abs(v - candidate) >= eps) for eps in eps_list):
        return candidate

    lo_all, hi_all = float(f.values.min()), float(f.values.max())

    def bisect(upper: bool) -> float:
        # limsup: least t with {f > t} of density zero; liminf: greatest t with {f < t}
        lo, hi = lo_all, hi_all
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if density_zero(lambda v: v > mid if upper else v < mid) == upper:
                hi = mid
            else:
                lo = mid
        return hi if upper else lo

    up, down = bisect(upper=True), bisect(upper=False)
    if abs(up - down) <= min(eps_list):
        return 0.5 * (up + down)
    return None


def lebesgue_point_check(
    f: GridFunction,
    x: Sequence[float],
    radii: Sequence[float] | None = None,
    tol: float = 0.05,
) -> tuple[np.ndarray, bool]:
    """Ball averages of |f - f(x)| per radius and a Lebesgue-point flag;
    radii under 3h are a ResolutionError."""
    x = f._point(x)
    if radii is None:
        radii = default_radii(f, x)
    radii = np.asarray(radii, dtype=float)
    fx = f.value_at(x)
    cell = f.h**f.ndim
    averages = np.array([
        float(np.abs(vals - fx).sum()) * cell / vol
        for vals, vol in _balls(f, _ball_samples(f, x, radii), radii)
    ])
    return averages, bool(averages[-1] < tol)


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
    x = np.asarray(x, dtype=float)
    idx = np.array(f.index_of(x))
    out = np.zeros(f.ndim)
    for d in range(f.ndim):
        quotients = []
        for j in range(1, max_steps + 1):
            for sign in (+1, -1):
                nb = idx.copy()
                nb[d] += sign * j
                if 0 <= nb[d] < f.extents[d]:
                    q = (f.values[tuple(nb)] - f.values[tuple(idx)]) / (sign * j * f.h)
                    quotients.append(q)
        if not quotients:
            raise ResolutionError(f"axis {d} has no neighbours at x")
        q = np.sort(np.asarray(quotients))
        drop = int(len(q) * (1 - central_fraction) / 2)
        kept = q[drop : len(q) - drop] if len(q) > 2 * drop else q
        out[d] = float(np.median(kept))
    return out
