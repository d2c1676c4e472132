"""Linear and parametric area formulas, multiplicity, change of variables.

J(T) = sqrt(det(T^t T)) is computed two independent ways (singular values
and the Cauchy-Binet minor expansion) so each can certify the other.
Parametric surface integrals are midpoint cell sums of the pointwise
Jacobian; cell centers never touch chart seams or coordinate
singularities, so angular charts integrate over the open box directly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergenceError, _check_count
from .grids import GridFunction, RasterSet, _centers_1d, tensor_points
from .hausdorff import SingularMapError, lebesgue_measure
from .pointwise import _central_differences, gradient_fd

__all__ = [
    "LinearMap",
    "ParametricMap",
    "MultiplicityProfile",
    "j_linear",
    "cauchy_binet",
    "image_measure_linear",
    "builtin_map",
    "curve_length",
    "graph_area",
    "surface_measure",
    "multiplicity",
    "area_formula_with_multiplicity",
    "change_of_variables",
    "jacobian_l1_check",
]


@dataclass(frozen=True)
class LinearMap:
    """T: R^k -> R^n as an n x k matrix, k <= n."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", M)
        if not np.all(np.isfinite(M)):
            raise ValueError("matrix entries must be finite")
        if M.shape[1] > M.shape[0]:
            raise ValueError("need k <= n (tall or square matrix)")

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def j_linear(T: LinearMap) -> float:
    """J(T) = sqrt(det(T^t T)), as the product of singular values."""
    return float(np.prod(np.linalg.svd(T.matrix, compute_uv=False)))


def cauchy_binet(T: LinearMap) -> float:
    """J(T) through the minor expansion: sqrt of the sum of squared
    k x k minors over all row subsets.
    """
    M = T.matrix
    k = T.k
    total = 0.0
    for rows in itertools.combinations(range(T.n), k):
        total += float(np.linalg.det(M[list(rows), :])) ** 2
    return math.sqrt(total)


def image_measure_linear(T: LinearMap, E: RasterSet) -> float:
    """H^k(T(E)) = J(T) * Lebesgue(E) for injective T."""
    if E.ndim != T.k:
        raise ValueError("raster dimension must equal k")
    J = j_linear(T)
    if J <= 0:
        raise SingularMapError("T must be injective (J(T) > 0)")
    return J * lebesgue_measure(E)


@dataclass(frozen=True)
class ParametricMap:
    """Black-box map Phi: box in R^k -> R^n with optional analytic Jacobian.

    ``evaluator`` maps an (N, k) array of points to an (N, n) array;
    ``jacobian`` (optional) maps it to (N, n, k).  Injectivity is asserted
    by the caller, never detected.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    n: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    injective: bool = False

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.domain_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.domain_hi, dtype=float))
        object.__setattr__(self, "domain_lo", lo)
        object.__setattr__(self, "domain_hi", hi)
        if lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
            raise ValueError("domain box must be finite and nondegenerate")
        if self.k > self.n:
            raise ValueError("need k <= n")

    @property
    def k(self) -> int:
        return self.domain_lo.shape[0]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=float)

    def jacobian_at(self, pts: np.ndarray, step: float) -> np.ndarray:
        """(N, n, k) Jacobian: analytic if available, else central differences."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.jacobian is not None:
            return np.asarray(self.jacobian(pts), dtype=float)
        return _central_differences(self, pts, step)

    def j_at(self, pts: np.ndarray, step: float) -> np.ndarray:
        """Pointwise J(Phi) = sqrt(det(DPhi^t DPhi)), shape (N,).

        k = 1 is |dPhi|.  k = 2 is the closed form sqrt(max(a c - b^2, 0))
        with a = |d_0 Phi|^2, b = d_0 Phi . d_1 Phi and c = |d_1 Phi|^2;
        k >= 3 takes det of the Gram matrices.
        """
        J = self.jacobian_at(pts, step)
        if self.k == 1:
            return np.sqrt((J[:, :, 0] ** 2).sum(axis=1))
        if self.k == 2:
            # one column pair per target axis: numpy reduces the short
            # axis of an (N, n) array far slower
            d0, d1 = J[:, :, 0].T, J[:, :, 1].T
            a = sum(x * x for x in d0)
            b = sum(x * y for x, y in zip(d0, d1))
            c = sum(y * y for y in d1)
            return np.sqrt(np.maximum(a * c - b * b, 0.0))
        G = np.einsum("pik,pil->pkl", J, J)
        return np.sqrt(np.maximum(np.linalg.det(G), 0.0))

    def _check_scannable(self) -> None:
        if self.k != self.n or self.k > 2:
            raise ValueError(f"implemented for k = n <= 2; got k = {self.k}, n = {self.n}")

    def signed_det(self, pts: np.ndarray, step: float) -> np.ndarray:
        if self.k != self.n:
            raise ValueError("signed determinant needs k = n")
        return np.linalg.det(self.jacobian_at(pts, step))


def _helix(lo: float = 0.0, hi: float = 1.0) -> ParametricMap:
    """x -> (cos x, sin x, x) on ]lo, hi[."""
    return ParametricMap(
        evaluator=lambda p: np.stack([np.cos(p[:, 0]), np.sin(p[:, 0]), p[:, 0]], axis=1),
        domain_lo=[float(lo)], domain_hi=[float(hi)], n=3,
        jacobian=lambda p: np.stack(
            [-np.sin(p[:, 0]), np.cos(p[:, 0]), np.ones(len(p))], axis=1
        )[:, :, None],
        injective=True,
    )


def _polar(r_hi: float = 1.0) -> ParametricMap:
    """(r, theta) -> (r cos theta, r sin theta) on ]0, r_hi[ x ]-pi, pi[."""
    return ParametricMap(
        evaluator=lambda p: np.stack(
            [p[:, 0] * np.cos(p[:, 1]), p[:, 0] * np.sin(p[:, 1])], axis=1
        ),
        domain_lo=[0.0, -math.pi], domain_hi=[float(r_hi), math.pi], n=2,
        jacobian=lambda p: np.stack([
            np.stack([np.cos(p[:, 1]), -p[:, 0] * np.sin(p[:, 1])], axis=1),
            np.stack([np.sin(p[:, 1]), p[:, 0] * np.cos(p[:, 1])], axis=1),
        ], axis=1),
        injective=True,
    )


def _sphere() -> ParametricMap:
    """(theta, phi) -> the unit sphere on ]0, pi[ x ]0, 2 pi[."""

    def sphere_eval(p):
        th, ph = p[:, 0], p[:, 1]
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)

    def sphere_jac(p):
        th, ph = p[:, 0], p[:, 1]
        d_th = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], axis=1)
        d_ph = np.stack([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros(len(p))], axis=1)
        return np.stack([d_th, d_ph], axis=2)

    return ParametricMap(
        evaluator=sphere_eval,
        domain_lo=[0.0, 0.0], domain_hi=[math.pi, 2 * math.pi], n=3,
        jacobian=sphere_jac,
        injective=True,
    )


def _fold(laps: int = 2) -> ParametricMap:
    """Piecewise-linear tent with ``laps`` laps on ]0, 1[."""
    _check_count("laps", laps, 1, "lap")

    def fold_eval(p):
        u = np.clip(p[:, 0], 0.0, 1.0) * laps
        m = np.floor(u).astype(int)
        frac = u - m
        val = np.where(m % 2 == 0, frac, 1.0 - frac)
        return val[:, None]

    return ParametricMap(
        evaluator=fold_eval,
        domain_lo=[0.0], domain_hi=[1.0], n=1,
        injective=laps == 1,
    )


def _square(lo: float = -1.0, hi: float = 1.0) -> ParametricMap:
    """x -> x^2 on ]lo, hi[, whose image must be finite."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(max(lo * lo, hi * hi)):
        raise ValueError(f"square's image of ]{lo:g}, {hi:g}[ is not finite")
    return ParametricMap(
        evaluator=lambda p: p[:, :1] ** 2,
        domain_lo=[lo], domain_hi=[hi], n=1,
        jacobian=lambda p: (2 * p[:, :1])[:, :, None],
        injective=lo >= 0 or hi <= 0,
    )


_BUILTIN_MAPS = dict(helix=_helix, polar=_polar, sphere=_sphere, fold=_fold, square=_square)


def builtin_map(name: str, **params) -> ParametricMap:
    """Named maps and the keyword parameters each takes: helix (lo, hi),
    polar (r_hi), sphere (none), fold (laps), square (lo, hi).  An unknown
    name, or a parameter the named map does not take, is a ValueError."""
    factory = _BUILTIN_MAPS.get(name)
    if factory is None:
        raise ValueError(f"unknown builtin map {name!r}")
    takes = list(inspect.signature(factory).parameters)
    extra = sorted(set(params) - set(takes))
    if extra:
        raise ValueError(f"builtin map {name!r} does not take {', '.join(extra)}; "
                         f"it takes {', '.join(takes) or 'no parameters'}")
    return factory(**params)


def graph_area(f: GridFunction, mask: np.ndarray | None = None) -> float:
    """Area of the graph of f over its box: sum of h^k sqrt(1 + |grad f|^2)."""
    gn2 = (gradient_fd(f) ** 2).sum(axis=0)
    integrand = np.sqrt(1.0 + gn2)
    if mask is not None:
        integrand = np.where(mask, integrand, 0.0)
    return f._midpoint_sum(integrand)


def _cell_centers(phi: ParametricMap, m: int, rows: slice = slice(None)) -> np.ndarray:
    """Centers of the cells in the first-axis rows ``rows`` of the m cells
    per axis of phi's domain box, shape (cells, k) in row-major order."""
    lo, hi = phi.domain_lo, phi.domain_hi
    steps = (hi - lo) / m
    axes = [_centers_1d(lo[d], m, steps[d]) for d in range(phi.k)]
    axes[0] = axes[0][rows]
    return tensor_points(axes)


# cells per block of ``_cell_sum``: bounds the Jacobian and its temporaries
_BLOCK_CELLS = 32768


def _cell_sum(
    phi: ParametricMap,
    E: RasterSet | None,
    m: int,
    u: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Midpoint sum of u J(Phi) (J(Phi) without u) over the m cells per axis
    whose centers lie in E.

    Cells are evaluated in blocks of whole first-axis rows, about
    ``_BLOCK_CELLS`` cells each, into one array that is summed once, so u
    (called once per block) must be pointwise."""
    _check_count("m", m, 1, "cell per axis")
    row = m ** (phi.k - 1)
    rows = max(1, _BLOCK_CELLS // row)
    steps = (phi.domain_hi - phi.domain_lo) / m
    J = np.empty(m * row)
    for r in range(0, m, rows):
        pts = _cell_centers(phi, m, slice(r, r + rows))
        block = J[r * row : r * row + len(pts)]
        block[:] = phi.j_at(pts, step=float(steps.min()) / 4)
        if u is not None:
            block *= np.asarray(u(pts), dtype=float).reshape(-1)
        if E is not None:
            block[~E.contains(pts)] = 0.0
    return float(J.sum() * np.prod(steps))


def surface_measure(
    phi: ParametricMap, E: RasterSet | None = None, m: int = 256
) -> float:
    """H^k(Phi(E)) = int_E J(Phi) for injective Phi: midpoint cell sums at
    m and 2m cells per axis, Richardson-combined as (4 fine - coarse) / 3,
    or as fine + (fine - coarse) / 3 where 4 fine overflows.  Every k uses
    it, curve length (k = 1) included.
    """
    if not phi.injective:
        raise ValueError("surface_measure needs the injectivity flag; "
                         "use the multiplicity-weighted operations otherwise")
    coarse = _cell_sum(phi, E, m)
    fine = _cell_sum(phi, E, 2 * m)
    extrapolated = (4 * fine - coarse) / 3
    return extrapolated if math.isfinite(extrapolated) else fine + (fine - coarse) / 3


def curve_length(phi: ParametricMap, nodes: int = 1024) -> float:
    """H^1 of an injective curve: ``surface_measure`` for k = 1, midpoint
    sums of |dPhi/dt| on ``nodes`` and 2 * ``nodes`` cells, Richardson-combined
    (which also cancels the O(step^2) error of a central-difference speed)."""
    if phi.k != 1:
        raise ValueError("curve_length needs a 1-parameter map")
    _check_count("nodes", nodes, 1, "cell")
    return surface_measure(phi, m=nodes)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Preimage count N(Phi, E, y) with its refinement trace."""

    y: np.ndarray
    counts: tuple[int, ...]  # one per partition depth
    count: int | None  # stabilized value, None if the trace never settled
    stabilized: bool


def _simplex_preimages(
    phi: ParametricMap, E: RasterSet | None, depth: int, y_axes: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Preimages under the piecewise-linear (PL) interpolant of phi (k = n
    <= 2) on the depth-indexed partition, for every y of the tensor grid
    ``y_axes[0] x ... x y_axes[n-1]`` (each axis ascending); with E, only
    the simplices of cells whose center lies in E.

    k = 1: each cell [a, b] counts when min(Phi a, Phi b) <= y < max(Phi a,
    Phi b), with x the linear interpolate.  k = 2: each cell splits along
    its (i+1, j)-(i, j+1) diagonal into two triangles, and y counts when
    all three edge cross products have the sign of the triangle's signed
    area (a zero-area triangle counts nothing); x comes from the
    barycentric coordinates.  Each lattice edge's cross product is taken
    from its lower-index end, so two triangles sharing an edge see exactly
    opposite signs, and a zero is broken as for y + (eps, eps^2)
    (Simulation of Simplicity): a y on a vertex or edge image is counted
    once per sheet.  Only the y in a cell's image box are tested, so
    memory grows with the hits, not with the grid.

    Returns ``(y, x)``: the row-major flat y index of every (y, preimage)
    pair, in simplex order (cell, then triangle), and the preimages,
    shape (pairs, k).
    """
    _check_count("depth", depth, 0, "cell per axis")
    k = phi.k
    m = 2**depth
    lo, hi = phi.domain_lo, phi.domain_hi
    steps = (hi - lo) / m
    corners = [lo[d] + np.arange(m + 1) * steps[d] for d in range(k)]
    V = phi(tensor_points(corners)).reshape(*(m + 1,) * k, k)
    cell = np.arange(m**k)
    if E is not None:
        cell = cell[E.contains(_cell_centers(phi, m))]
    # candidates: the y in each cell's half-open image box [min, max) per
    # axis, which holds the boxes of the cell's simplices; cells are dropped
    # as soon as an axis leaves their range empty (a NaN bound sorts past
    # the end and always does)
    first, width = [], []
    for d, ax in enumerate(y_axes):
        cell_corners = [
            V[tuple(slice(o, m + o) for o in offset) + (d,)]
            for offset in itertools.product((0, 1), repeat=k)
        ]
        box_lo = functools.reduce(np.minimum, cell_corners).reshape(-1)[cell]
        box_hi = functools.reduce(np.maximum, cell_corners).reshape(-1)[cell]
        f = np.searchsorted(ax, box_lo)
        w = np.searchsorted(ax, box_hi) - f
        keep = np.flatnonzero(w > 0)
        cell = cell[keep]
        first = [a[keep] for a in first] + [f[keep]]
        width = [a[keep] for a in width] + [w[keep]]
    del cell_corners, box_lo, box_hi
    per_cell = functools.reduce(np.multiply, width)
    owner = np.repeat(np.arange(len(cell)), per_cell)
    # a pair's rank in its cell's block of y, split into one offset per axis
    # (the last axis fastest)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    y = np.zeros(len(owner), dtype=np.int64)
    stride = 1
    for d in reversed(range(k)):
        w = width[d][owner]
        y += (first[d][owner] + rank % w) * stride
        rank //= w
        stride *= len(y_axes[d])
    cell = cell[owner]
    del owner, rank
    if k == 1:
        y_pts = y_axes[0][y]
        fa, fb = V[cell, 0], V[cell + 1, 0]
        return y, (corners[0][cell] + (y_pts - fa) / (fb - fa) * steps[0])[:, None]
    # both triangles of each candidate cell: t = 0 is (i, j), (i+1, j),
    # (i, j+1) and t = 1 is (i+1, j+1), (i, j+1), (i+1, j), both positively
    # oriented in R^2
    y, cell = np.repeat(y, 2), np.repeat(cell, 2)
    t = np.tile([0, 1], len(cell) // 2)
    i, j = np.divmod(cell, m)
    y0, y1 = (ax[iy] for ax, iy in zip(y_axes, np.unravel_index(y, [len(ax) for ax in y_axes])))
    X, Y = V[..., 0].ravel(), V[..., 1].ravel()
    row = m + 1

    def edge(p, q):
        """Cross product with y of the edge from vertex p to q, its sign
        with a zero broken as for y + (eps, eps^2), and the edge vector."""
        dx, dy = X[q] - X[p], Y[q] - Y[p]
        c = dx * (y1 - Y[p]) - dy * (y0 - X[p])
        tie = np.where(dy != 0, -np.sign(dy), np.sign(dx))
        return c, np.where(c != 0, np.sign(c), tie), dx, dy

    # the triangle's edges from their lower-index ends: axis-0 edge
    # (i, j+t)-(i+1, j+t), axis-1 edge (i+t, j)-(i+t, j+1) and the diagonal
    # (i, j+1)-(i+1, j); t = 0 runs the first forward and the others backward
    v = i * row + j
    c_h, s_h, dx_h, dy_h = edge(v + t, v + t + row)
    c_v, s_v, dx_v, dy_v = edge(v + t * row, v + t * row + 1)
    _, s_g, _, _ = edge(v + 1, v + row)
    area = dx_h * dy_v - dy_h * dx_v
    sigma = np.sign(area) * (1 - 2 * t)
    hit = np.flatnonzero((area != 0) & (s_h == sigma) & (s_v == -sigma) & (s_g == -sigma))
    i, j, t, area = i[hit], j[hit], t[hit], area[hit]
    x0 = corners[0][i + t] + -c_v[hit] * steps[0] / area
    x1 = corners[1][j + t] + c_h[hit] * steps[1] / area
    return y[hit], np.stack([x0, x1], axis=1)


def _preimage_sums(
    phi: ParametricMap,
    E: RasterSet | None,
    depth: int,
    y_axes: Sequence[np.ndarray],
    u: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """For every y of the tensor grid ``y_axes[0] x ... x y_axes[n-1]``, the
    number of PL preimages at partition depth ``depth``
    (``_simplex_preimages``), or with u the sum of u over them, as an
    array of that shape; a y-grid integral is its whole sum times the
    cell volume."""
    y, x = _simplex_preimages(phi, E, depth, y_axes)
    shape = tuple(len(ax) for ax in y_axes)
    weights = None if u is None else np.asarray(u(x), dtype=float).reshape(-1)
    return np.bincount(y, weights=weights, minlength=math.prod(shape)).reshape(shape)


def multiplicity(
    phi: ParametricMap,
    y: Sequence[float],
    E: RasterSet | None = None,
    depths: Sequence[int] = range(4, 12),
) -> MultiplicityProfile:
    """N(Phi, E, y) for k = n <= 2: the preimage count of y under the PL
    interpolant of Phi on the depth-indexed partition (half-open simplices,
    ties broken as for y + (eps, eps^2)), refined until two consecutive
    depths agree.  That is N(Phi, E, y) for almost every y; at a critical
    value it is a tie-break artefact (x^2 and z^2 at 0 give 2, sin 3x at
    its maximum 1 gives 0).
    """
    phi._check_scannable()
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (phi.n,) or not np.all(np.isfinite(y)):
        raise ValueError(f"y must be a finite point of R^{phi.n}")
    counts = []
    for depth in depths:
        counts.append(int(_preimage_sums(phi, E, depth, y[:, None]).sum()))
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return MultiplicityProfile(y, tuple(counts), counts[-1], True)
    return MultiplicityProfile(y, tuple(counts), None, False)


# per k = n: the y-grid's probe lattice points per domain axis and padding per
# side (a share of the image span), change_of_variables's default n_y and depth
_Y_GRID = {1: (4096, 0.05, 256, 12), 2: (256, 0.02, 128, 9)}


def _y_grid(phi: ParametricMap, n_y: int) -> tuple[list[np.ndarray], float]:
    """Axes of the n_y-per-axis grid of cell centers spanning the image of
    phi's probe lattice, widened by its pad of the span per side (both from
    ``_Y_GRID`` by phi.k), and the volume of one grid cell."""
    _check_count("n_y", n_y, 1, "y-cell per axis")
    probe, pad = _Y_GRID[phi.k][:2]
    lo, hi = phi.domain_lo, phi.domain_hi
    img = phi(tensor_points([np.linspace(lo[d], hi[d], probe) for d in range(phi.k)]))
    # one reduction per column: numpy reduces an (N, n) array along axis 0
    # about 15 times slower
    y_lo = np.array([col.min() for col in img.T])
    y_hi = np.array([col.max() for col in img.T])
    span = y_hi - y_lo
    y_lo = y_lo - pad * span
    dy = (y_hi + pad * span - y_lo) / n_y
    return [_centers_1d(y_lo[d], n_y, dy[d]) for d in range(phi.n)], float(np.prod(dy))


def _preimage_integral(phi: ParametricMap, E: RasterSet | None, depth: int, n_y: int,
                       u: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """int sum_{x in Phi^-1(y)} u(x) dy, or int N(Phi, E, y) dy without u, on
    the n_y-per-axis ``_y_grid`` at partition depth ``depth``: the whole-grid
    sum of ``_preimage_sums`` times the y-cell volume."""
    y_axes, cell = _y_grid(phi, n_y)
    return float(_preimage_sums(phi, E, depth, y_axes, u).sum()) * cell


def area_formula_with_multiplicity(
    phi: ParametricMap,
    E: RasterSet | None = None,
    n_y: int = 256,
    depth: int = 12,
    m_cells: int = 4096,
) -> tuple[float, float]:
    """(lhs, rhs) of  int N(Phi, E, y) dy  =  int_E J(Phi)  for k = n = 1.

    The lhs integrates ``multiplicity``'s PL preimage counts (a cell counts
    when min(Phi a, Phi b) <= y < max(Phi a, Phi b)) over a y-grid spanning
    the observed image, at depths ``depth`` and ``depth - 1``
    (Richardson-free stabilization check, so depth below 1 is a
    ValueError), as the whole-grid sum times dy; the rhs is a midpoint sum
    of |Phi'|.  The counts are exact off the critical values, a null set
    (Sard): a y-cell center on a turning value is counted 0 times at a
    maximum and twice at a minimum.
    """
    if phi.k != 1 or phi.n != 1:
        raise ValueError("the two-sided area formula is implemented for k = n = 1")
    _check_count("depth", depth, 1, "partition level below it")
    _check_count("m_cells", m_cells, 1, "cell")
    y_axes, dy = _y_grid(phi, n_y)
    counts = _preimage_sums(phi, E, depth, y_axes)
    counts_prev = _preimage_sums(phi, E, depth - 1, y_axes)
    disagree = float(np.mean(counts != counts_prev))
    if disagree > 0.05:
        raise NonConvergenceError(f"multiplicity unstable on {disagree:.0%} of the y-grid")
    return float(counts.sum()) * dy, _cell_sum(phi, E, m_cells)


def change_of_variables(
    phi: ParametricMap,
    u: Callable[[np.ndarray], np.ndarray],
    E: RasterSet | None = None,
    n_y: int | None = None,
    depth: int | None = None,
    m_cells: int = 4096,
) -> tuple[float, float]:
    """(lhs, rhs) of  int u J(Phi)  =  int sum_{x in Phi^-1(y)} u(x) dy
    for k = n <= 2.

    The lhs is a midpoint sum of u J(Phi): ``m_cells`` cells for k = 1;
    for k = 2, max(512, round(sqrt(m_cells))) cells per axis.
    It calls u once per block of cells (``_cell_sum``), so u must be
    pointwise: row i of its (N,) result depends on row i of the points only.
    The rhs sums u over the preimages of each y of a y-grid under the PL
    interpolant of Phi (half-open simplices, ties broken as for
    y + (eps, eps^2), so a y on a vertex or edge image is counted once per
    sheet and a critical value, a null set, gets an arbitrary count), and
    integrates as the whole-grid sum of those totals times the y-cell
    volume.  It is the same engine and the same sum as ``multiplicity``'s
    counts, so it needs no injectivity flag, and with u = 1 it equals the
    multiplicity integral on the same grid bit for bit (for k = 1,
    ``area_formula_with_multiplicity``'s lhs; for k = 2 at n_y = 64 and
    depth 7, ``jacobian_l1_check``'s rhs).  The scan runs at partition
    depth ``depth`` (None: 12 for k = 1, 9 for k = 2) on ``n_y`` y-cells
    per axis (None: 256 for k = 1, 128 for k = 2) spanning the observed
    image plus 5 % (k = 1) or 2 % (k = 2) per side.  ``m_cells``, ``n_y``
    and ``depth`` must be ints >= 1.
    """
    phi._check_scannable()
    grid_n_y, grid_depth = _Y_GRID[phi.k][2:]
    n_y = grid_n_y if n_y is None else n_y
    depth = grid_depth if depth is None else depth
    _check_count("depth", depth, 1, "partition level")
    _check_count("m_cells", m_cells, 1, "cell")
    lhs = _cell_sum(phi, E, m_cells if phi.k == 1 else max(512, round(math.sqrt(m_cells))), u)
    return lhs, _preimage_integral(phi, E, depth, n_y, u)


def jacobian_l1_check(
    phi: ParametricMap, E: RasterSet | None = None, m_cells: int = 4096
) -> tuple[float, float]:
    """(int |det DPhi|, int N(Phi, E, y) dy) for k = n <= 2; they must agree.

    For k = 1 both sides are ``area_formula_with_multiplicity``'s, swapped.
    For k = 2 the lhs is a midpoint sum on round(sqrt(m_cells)) cells per
    axis and the rhs is the whole-grid sum of the counts N, times the y-cell
    area, on a 64 x 64 y-grid spanning the image (plus 2 % per side) at
    partition depth 7, cheaper than ``change_of_variables``'s default grid;
    ``change_of_variables`` with u = 1, n_y = 64 and depth = 7 gives the
    same rhs bit for bit.  N at each y is the PL preimage count of
    ``multiplicity``, ties broken as for y + (eps, eps^2); it is exact off
    the critical values (z^2 at 0 counts 2).  ``m_cells`` must be an int >= 1.
    """
    phi._check_scannable()
    _check_count("m_cells", m_cells, 1, "cell")
    if phi.k == 1:
        return area_formula_with_multiplicity(phi, E, m_cells=m_cells)[::-1]
    return _cell_sum(phi, E, round(math.sqrt(m_cells))), _preimage_integral(phi, E, 7, 64)
