"""Sobolev norms, embedding-regime checks, BV variation and perimeter.

The three embedding regimes are routed by (p, n): p < n uses the
Gagliardo-Nirenberg-Sobolev inequality with C(n,1) = 1 and
C(n,p) = p(n-1)/(n-p); p = n is checked through BMO boundedness; p > n
through the Morrey Hölder bound with C(n,p) = 2np/(p-n).

Face counting measures the l1 (Manhattan) perimeter; a per-resolution
calibration factor (rasterized ball against its surface measure) corrects
it for smooth level sets in the coarea consistency check.  Both count
faces without an n-D raster: the ball's from (n-1)-D projections, the
level sets' in one pass over the grid's faces.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RegimeError, _check_count, _check_real
from .grids import GridFunction, RasterSet, _lattice_bump, gradient_fd, omega

__all__ = [
    "SobolevReport",
    "VariationReport",
    "Bv1dDecomposition",
    "sobolev_norm",
    "gns_check",
    "poincare_cube_check",
    "bmo_seminorm",
    "dyadic_cubes",
    "morrey_check",
    "variation_1d",
    "bv_norm",
    "perimeter",
    "perimeter_calibration",
    "variation_nd",
    "decompose_1d",
    "tonelli_variation",
    "lsc_check",
    "seeded_bump_field",
]


@dataclass(frozen=True)
class SobolevReport:
    p: float
    lp_norm: float
    grad_lp_norm: float
    sobolev_norm: float
    p_star: float | None  # np/(n-p) when p < n


@dataclass(frozen=True)
class VariationReport:
    tv: float
    method: str  # gradient-integral | coarea | divergence-sup
    per_level: list[tuple[float, float]] | None = None


@dataclass(frozen=True)
class Bv1dDecomposition:
    ac_part: np.ndarray
    jump_part: np.ndarray
    cantor_part: np.ndarray
    jump_locations: list[tuple[float, float]]  # (position, height)


def _lp(values: np.ndarray, p: float, f: GridFunction) -> float:
    _check_real("p", p, 1)  # every L^p norm here needs a finite p >= 1
    v = np.abs(values)
    try:
        with np.errstate(over="ignore"):
            total = f._midpoint_sum(v**p)
    except ValueError:  # |v|^p or its sum passed the float range
        total = math.inf
    if sys.float_info.min <= total < math.inf:
        return total ** (1.0 / p)
    top = float(v.max())  # |v|^p overflowed or underflowed: scale by max |v|
    return top and top * f._midpoint_sum((v / top) ** p) ** (1.0 / p)


def _grad_norm(f: GridFunction) -> np.ndarray:
    return np.sqrt((gradient_fd(f) ** 2).sum(axis=0))


def sobolev_norm(f: GridFunction, p: float) -> SobolevReport:
    """Discrete W^{1,p} norm: L^p norm of f plus L^p norm of |grad f|."""
    lp = _lp(f.values, p, f)
    grad_lp = _lp(_grad_norm(f), p, f)
    n = f.ndim
    p_star = n * p / (n - p) if p < n else None
    return SobolevReport(p, lp, grad_lp, lp + grad_lp, p_star)


def gns_check(f: GridFunction, p: float) -> tuple[float, float, float]:
    """(lhs, rhs, constant) of ||f||_{p*} <= C(n,p) ||grad f||_p, p < n."""
    n = f.ndim
    if not 1 <= p < n:
        raise RegimeError(f"GNS needs 1 <= p < n; got p = {p}, n = {n} "
                          "(use the BMO or Morrey checks for p >= n)")
    C = 1.0 if p == 1 else p * (n - 1) / (n - p)
    p_star = n * p / (n - p)
    lhs = _lp(f.values, p_star, f)
    rhs = C * _lp(_grad_norm(f), p, f)
    return lhs, rhs, C


def poincare_cube_check(
    f: GridFunction, cube_lo: Sequence[float], side: float, p: float
) -> tuple[float, float]:
    """(lhs, rhs) of the cube Poincaré inequality with C = (n^(p+1))^(1/p)."""
    n = f.ndim
    sl = f._cube_slices(cube_lo, side)
    block = f.values[sl]
    mean = float(block.mean())
    lhs = _lp(block - mean, p, f)
    p = float(p)  # the rule passed in _lp; an int p would meet an exact big-int power
    gn = _grad_norm(f)[sl]
    try:
        C = (n ** (p + 1)) ** (1.0 / p)
    except OverflowError:  # n^(p+1) leaves the float range
        C = n ** ((p + 1) / p)
    return lhs, C * side * _lp(gn, p, f)


def _dyadic_blocks(f: GridFunction, generations: int):
    """(first index, cells per side) of each cube ``dyadic_cubes`` lists."""
    _check_count("generations", generations, 1, "cube generation")
    side0 = float((np.array(f.extents) * f.h).min())
    for g in range(generations):
        m = f._to_cells(side0 / 2**g, rounding=np.rint)
        if m < 2:
            break
        for idx in np.ndindex(*[s // m for s in f.extents]):
            yield np.array(idx) * m, m


def dyadic_cubes(f: GridFunction, generations: int) -> list[tuple[np.ndarray, float]]:
    """(lower corner, side) of every dyadic cube of the box, up to a depth.

    Only cubes whose side is an exact cell multiple are emitted.
    """
    return [(f._corner(i0), m * f.h) for i0, m in _dyadic_blocks(f, generations)]


def bmo_seminorm(f: GridFunction, cubes: Sequence[tuple[np.ndarray, float]] | None = None,
                 generations: int = 4) -> float:
    """sup over cubes of the mean oscillation (1/|Q|) int_Q |f - f_Q|.

    A given cube that leaves the lattice or spans no cell is a ValueError."""
    if cubes is None:
        blocks = [f.values[tuple(map(slice, i, i + m))] for i, m in _dyadic_blocks(f, generations)]
    else:
        blocks = [f.values[f._cube_slices(lo, side)] for lo, side in cubes]
    return max((float(np.abs(b - b.mean()).mean()) for b in blocks), default=0.0)


def morrey_check(
    f: GridFunction, p: float, n_pairs: int = 200, seed: int = 42
) -> float:
    """Worst |f(z)-f(y)| / (C |z-y|^{1-n/p} ||grad f||_p) over sampled pairs."""
    n = f.ndim
    if not n < p <= sys.float_info.max:  # an int past the float range too
        raise RegimeError(f"Morrey needs n < p < inf; got p = {p}, n = {n}")
    _check_count("n_pairs", n_pairs, 1, "pair")
    C = 2.0 * n * p / (p - n)
    C = C if C < math.inf else 2.0 * n / (1 - n / p)  # 2np overflowed
    grad_lp = _lp(_grad_norm(f), p, f)
    # one draw yields the integers of n_pairs successive (z, y) draws
    iz, iy = np.moveaxis(
        np.random.default_rng(seed).integers(0, f.extents, size=(n_pairs, 2, n)), 1, 0
    )
    z, y = f._center(iz), f._center(iy)
    dist = np.sqrt(((z - y) ** 2).sum(axis=1))
    denom = C * dist ** (1 - n / p) * grad_lp
    ok = denom > 0  # drops z = y, where dist = 0
    diff = np.abs(f.values[tuple(iz[ok].T)] - f.values[tuple(iy[ok].T)])
    return float((diff / denom[ok]).max(initial=0.0))


def _samples_1d(samples: Sequence[float], h: float | None = None) -> GridFunction:
    """The one 1-D sample rule: 2 or more finite samples, h finite, > 0 (None: 1/N), origin 0."""
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)):
        raise ValueError(f"need a row of at least 2 samples, all finite; got shape {v.shape}")
    if h is not None:
        _check_real("h", h)
    return GridFunction(v, [0.0], 1.0 / v.size if h is None else h)


def variation_1d(samples: Sequence[float]) -> float:
    """Total variation of sampled values: sum of |successive differences|."""
    return _samples_1d(samples)._variation()


def bv_norm(samples: Sequence[float], h: float | None = None) -> float:
    """||f||_BV = L1 norm + variation for samples on ]0,1[."""
    f = _samples_1d(samples, h)
    return f._midpoint_sum(np.abs(f.values)) + f._variation()


def perimeter(E: RasterSet, corrected: bool = False) -> float:
    """Discrete perimeter: h^(n-1) times the count of interior faces where
    the mask changes (the l1 perimeter).  With ``corrected`` the Manhattan
    bias is divided out using the per-resolution disk calibration.
    """
    raw = E._variation()
    return raw / perimeter_calibration(E.ndim, E.h) if corrected and E.ndim >= 2 else raw


@functools.lru_cache(maxsize=None)
def perimeter_calibration(n: int, h: float) -> float:
    """Face-count perimeter of the rasterized unit ball over its true
    surface measure; ~4/pi for the disk.  Cached per (n, h).

    The ball is the cells of ceil(2.4 / h)^n from -1.2 whose centers have
    ``sum(x**2 for x in xs) <= 1``.  c^2 falls, then rises along an axis and
    float sums are monotone, so each line holds one run of them, counted
    from (n-1)-D sums, in that axis order, with the line's term at min c^2
    (the run is nonempty) and at its two ends (the run touches the box).
    A lattice whose ball has no face (one cell per axis, or every cell in
    it) has no calibration: ``ValueError``.
    """
    _check_count("n", n, 1, "axis")
    _check_real("h", h)
    _check_real("2.4 / h (cells per axis)", 2.4 / h)
    line = RasterSet(np.zeros((math.ceil(2.4 / h),) + (1,) * (n - 1), bool), [-1.2] * n, h)
    weight = line._weight(faces=True)  # a ValueError past the float range, before any square
    faces = 0
    if line.extents[0] > 1:  # one cell has no face, and its center's square may overflow
        c2 = line.axis_centers(0) ** 2
        axes = [c2.reshape([-1 if j == k else 1 for j in range(n)]) for k in range(n)]

        def run(d: int, c2d: float) -> np.ndarray:  # the sum <= 1 with axis d's term c2d
            return sum(c2d if k == d else axes[k] for k in range(n)) <= 1.0

        faces = sum(np.sum(2 * run(d, c2.min()) - run(d, c2[0]) - run(d, c2[-1])) for d in range(n))
    if faces == 0:
        raise ValueError(f"the rasterized unit ball has no face at n = {n}, h = {h}: "
                         "no perimeter calibration")
    return float(faces) * weight / (n * omega(n))


def seeded_bump_field(
    f: GridFunction, seed: int, n_bumps: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """A smooth vector field on f's lattice with |Phi(x)| <= 1 pointwise.

    Returns (field, divergence) with analytic divergence; used by the
    divergence-sup variation lower bound.
    """
    _check_count("n_bumps", n_bumps, 1, "bump")
    rng = np.random.default_rng(seed)
    lo, hi = f._box()
    n = f.ndim
    field = np.zeros((n,) + f.extents)
    div = np.zeros(f.extents)
    for d in range(n):
        for _ in range(n_bumps):
            c = lo + (0.1 + 0.8 * rng.random(n)) * (hi - lo)
            r = float((hi - lo).min()) * (0.15 + 0.35 * rng.random())
            amp = rng.standard_normal()
            window, inside, phi, grad = _lattice_bump(f, c, r, d)
            # outside its support a bump adds only zeros
            field[d][window][inside] += amp * phi
            div[window][inside] += amp * grad
    norm = np.sqrt((field**2).sum(axis=0)).max()
    if norm > 0:
        field /= norm
        div /= norm
    return field, div


def variation_nd(
    f: GridFunction,
    method: str = "gradient-integral",
    n_levels: int = 64,
    n_fields: int = 32,
    seed: int = 42,
) -> VariationReport:
    """Total variation of a grid function by one of three routes.

    gradient-integral: cell sums of |grad f| (exact for W^{1,1} data);
    coarea: level-set perimeters integrated over thresholds (calibrated);
    divergence-sup: max of int f div(Phi) over a seeded smooth family with
    |Phi| <= 1 — a lower bound by construction.
    """
    _check_count("n_levels", n_levels, 1, "level")
    _check_count("n_fields", n_fields, 1, "field")
    if method == "gradient-integral":
        return VariationReport(f._midpoint_sum(_grad_norm(f)), method)
    if method == "coarea":
        tmin, tmax = float(f.values.min()), float(f.values.max())
        if tmax <= tmin:
            return VariationReport(0.0, method, [])
        dt = (tmax - tmin) / n_levels
        levels = tmin + dt * (np.arange(n_levels) + 0.5)
        # a cell lies in {f > levels[l]} iff l < k, and a face bounds that
        # set iff min k <= l < max k of its two cells: one pass for all levels
        k = np.searchsorted(levels, f.values, side="left")
        starts = np.zeros(n_levels + 1, dtype=np.int64)
        for kd in (np.moveaxis(k, d, 0) for d in range(f.ndim)):
            starts += np.bincount(np.minimum(kd[:-1], kd[1:]).ravel(), minlength=n_levels + 1)
            starts -= np.bincount(np.maximum(kd[:-1], kd[1:]).ravel(), minlength=n_levels + 1)
        per_level = []
        total = 0.0
        for t, faces in zip(levels, np.cumsum(starts)):
            pe = f._weighted(lambda: faces, faces=True)
            pe = pe / perimeter_calibration(f.ndim, f.h) if f.ndim >= 2 else pe
            per_level.append((float(t), pe))
            total += pe * dt
        return VariationReport(total, method, per_level)
    if method == "divergence-sup":
        best = 0.0
        for j in range(n_fields):
            _, div = seeded_bump_field(f, seed + j)
            val = abs(f._midpoint_sum(f.values * div))
            best = max(best, val)
        return VariationReport(best, method)
    raise ValueError(f"unknown method {method!r}")


def decompose_1d(
    samples: Sequence[float],
    h: float | None = None,
    jump_threshold: float = 8.0,
    window: int | None = None,
    dominance: float = 0.5,
) -> Bv1dDecomposition:
    """Split sampled 1-D BV data into absolutely continuous, jump and
    singular (Cantor-type) parts.

    A jump is an increment that exceeds ``jump_threshold`` times the median
    absolute increment *and* carries at least the ``dominance`` fraction of
    the total increment mass in its window — singular staircases spread
    their mass across neighbours and fail the second test.  Jumps are
    peeled off iteratively, largest first.  Of the remaining increments,
    those with difference quotients beyond 10x the 90th percentile go to
    the singular part; the rest integrate into the absolutely continuous
    part.  The three parts sum to f - f(first sample) exactly.  Samples and
    h follow the rule of ``variation_1d`` and ``bv_norm``; each position is
    measured from the left edge of the first sample's cell.
    """
    g = _samples_1d(samples, h)
    f, h = g.values, g.h
    _check_real("jump_threshold", jump_threshold)
    _check_real("dominance", dominance, maximum=1)
    if window is not None:
        _check_count("window", window, 1, "increment")
    N = f.size
    d = np.diff(f)
    masd = float(np.median(np.abs(d)))
    W = window if window is not None else max(4, min(32, N // 8))
    resid = d.copy()
    jumps = np.zeros_like(d)
    while True:
        cand = np.flatnonzero(np.abs(resid) > jump_threshold * masd)
        if cand.size == 0:
            break
        cand = cand[np.argsort(-np.abs(resid[cand]))]
        peeled = False
        for i in cand:
            lo, hi = max(0, i - W), min(len(resid), i + W + 1)
            local = float(np.abs(resid[lo:hi]).sum())
            if local > 0 and abs(resid[i]) >= dominance * local:
                jumps[i] = jumps[i] + resid[i]
                resid[i] = 0.0
                peeled = True
        if not peeled:
            break
    q = np.abs(resid) / h
    pct90 = float(np.quantile(q, 0.9))
    ac_mask = q <= 10.0 * pct90
    ac_inc = np.where(ac_mask, resid, 0.0)
    sing_inc = np.where(ac_mask, 0.0, resid)

    def integrate(inc: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(inc)])

    locations = [
        (float((i + 1) * h), float(jumps[i])) for i in np.flatnonzero(jumps != 0.0)
    ]
    return Bv1dDecomposition(
        ac_part=integrate(ac_inc),
        jump_part=integrate(jumps),
        cantor_part=integrate(sing_inc),
        jump_locations=locations,
    )


def tonelli_variation(f: GridFunction) -> tuple[float, float]:
    """(int of per-row variation dy, int of per-column variation dx)."""
    if f.ndim != 2:
        raise ValueError("Tonelli variation is defined for 2-D grids")
    return f._variation([0]), f._variation([1])  # along x per y, along y per x


def lsc_check(
    sequence: Sequence[GridFunction], limit: GridFunction
) -> tuple[float, float]:
    """(liminf of the sequence variations, variation of the L1 limit).

    Lower semicontinuity demands tv(limit) <= liminf.
    """
    for g in sequence:
        limit._check_same_lattice(g, "sequence and limit must share one lattice")

    def tv(g: GridFunction) -> float:
        if g.ndim == 1:
            return variation_1d(g.values)
        return variation_nd(g, "gradient-integral").tv

    tvs = [tv(g) for g in sequence]
    return float(min(tvs)), tv(limit)
