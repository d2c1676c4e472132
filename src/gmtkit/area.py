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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonConvergenceError, SingularMapError, _check_count
from .grids import (GridFunction, RasterSet, _central_differences, _centers_1d, gradient_fd,
                    lebesgue_measure, tensor_points)

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


def _gram_j(d0: Sequence[np.ndarray], d1: Sequence[np.ndarray]) -> np.ndarray:
    """J of a k = 2 Jacobian from its columns d0 and d1, one array per target
    axis (numpy reduces the short axis of an (N, n) array far slower):
    sqrt(max(a c - b^2, 0)) with a = |d0|^2, b = d0 . d1 and c = |d1|^2."""
    a = sum(x * x for x in d0)
    b = sum(x * y for x, y in zip(d0, d1))
    c = sum(y * y for y in d1)
    return np.sqrt(np.maximum(a * c - b * b, 0.0))


@dataclass(frozen=True)
class ParametricMap:
    """Black-box map Phi: box in R^k -> R^n with optional analytic Jacobian.

    ``evaluator`` maps an (N, k) array of points to an (N, n) array;
    ``jacobian`` (optional) maps it to (N, n, k).  The cell sums and the
    preimage scans call both on one block of points at a time, so both
    must be pointwise: row i of the result depends on row i of the points
    only.  Injectivity is asserted by the caller, never detected.  A map
    built here is called on such (N, k) blocks only; a ``builtin_map`` is
    evaluated once per axis value on the sums' and scans' tensor grids.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    n: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    injective: bool = False
    # a builtin map's (value, jacobian) formula on per-axis arrays (_from_columns)
    _columns: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
            return _gram_j(J[:, :, 0].T, J[:, :, 1].T)
        G = np.einsum("pik,pil->pkl", J, J)
        return np.sqrt(np.maximum(np.linalg.det(G), 0.0))

    def _on_grid(self, axes: Sequence[np.ndarray], step: float | None = None) -> np.ndarray:
        """Phi (N, n), or with a step ``j_at``'s J(Phi) (N,), on the tensor grid
        axes[0] x ... x axes[k-1] in row-major order: a builtin map's formula
        on np.ix_(*axes), broadcast, or any other map on the grid's points."""
        value, jacobian = self._columns or (None, None)
        if value is None or (step is not None and (jacobian is None or self.k != 2)):
            pts = tensor_points(axes)
            return self(pts) if step is None else self.j_at(pts, step)
        x = np.ix_(*axes)
        if step is None:
            return np.stack(np.broadcast_arrays(*value(*x)), axis=-1).reshape(-1, self.n)
        D = jacobian(*x)
        J = _gram_j([d[0] for d in D], [d[1] for d in D])
        return np.broadcast_to(J, tuple(len(ax) for ax in axes)).ravel()

    def _check_scannable(self) -> None:
        if self.k != self.n or self.k > 2:
            raise ValueError(f"implemented for k = n <= 2; got k = {self.k}, n = {self.n}")

    def signed_det(self, pts: np.ndarray, step: float) -> np.ndarray:
        if self.k != self.n:
            raise ValueError("signed determinant needs k = n")
        return np.linalg.det(self.jacobian_at(pts, step))


def _from_columns(value: Callable[..., list], jacobian: Callable[..., list] | None,
                  lo: Sequence[float], hi: Sequence[float], n: int,
                  injective: bool) -> ParametricMap:
    """A builtin map from its one formula on per-axis arrays x that
    broadcast: value(*x) gives Phi's n coordinates and jacobian(*x), if
    given, DPhi's entries as n rows of k.  The point form calls them on
    the columns p[:, d] and stacks; ``_on_grid`` calls them on np.ix_ of a
    tensor grid's axes."""

    def evaluator(p):
        return np.stack(value(*p.T), axis=1)

    def point_jacobian(p):
        J = np.empty((len(p), n, len(lo)))
        for i, row in enumerate(jacobian(*p.T)):
            for j, entry in enumerate(row):
                J[:, i, j] = entry
        return J

    phi = ParametricMap(evaluator, lo, hi, n, injective=injective,
                        jacobian=None if jacobian is None else point_jacobian)
    object.__setattr__(phi, "_columns", (value, jacobian))
    return phi


def _helix(lo: float = 0.0, hi: float = 1.0) -> ParametricMap:
    """x -> (cos x, sin x, x) on ]lo, hi[."""
    return _from_columns(lambda x: [np.cos(x), np.sin(x), x],
                         lambda x: [[-np.sin(x)], [np.cos(x)], [1.0]],
                         [float(lo)], [float(hi)], n=3, injective=True)


def _polar(r_hi: float = 1.0) -> ParametricMap:
    """(r, theta) -> (r cos theta, r sin theta) on ]0, r_hi[ x ]-pi, pi[, whose
    image's area pi r_hi^2 must be finite."""
    r_hi = float(r_hi)
    if math.pi * r_hi * r_hi == math.inf:
        raise ValueError(f"polar's image of radius {r_hi:g} has an area past the float range")

    def polar_jac(r, t):
        cos_t, sin_t = np.cos(t), np.sin(t)
        return [[cos_t, -r * sin_t], [sin_t, r * cos_t]]

    return _from_columns(lambda r, t: [r * np.cos(t), r * np.sin(t)], polar_jac,
                         [0.0, -math.pi], [r_hi, math.pi], n=2, injective=True)


def _sphere() -> ParametricMap:
    """(theta, phi) -> the unit sphere on ]0, pi[ x ]0, 2 pi[."""

    def sphere_eval(th, ph):
        sin_th = np.sin(th)
        return [sin_th * np.cos(ph), sin_th * np.sin(ph), np.cos(th)]

    def sphere_jac(th, ph):
        sin_th, cos_th, sin_ph, cos_ph = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        # columns d/dtheta and d/dphi
        return [[cos_th * cos_ph, -sin_th * sin_ph],
                [cos_th * sin_ph, sin_th * cos_ph],
                [-sin_th, 0.0]]

    return _from_columns(sphere_eval, sphere_jac, [0.0, 0.0], [math.pi, 2 * math.pi], n=3,
                         injective=True)


def _fold(laps: int = 2) -> ParametricMap:
    """Piecewise-linear tent with ``laps`` laps on ]0, 1[."""
    _check_count("laps", laps, 1, "lap")

    def fold_eval(x):
        u = np.clip(x, 0.0, 1.0) * laps
        m = np.floor(u).astype(int)
        frac = u - m
        return [np.where(m % 2 == 0, frac, 1.0 - frac)]

    return _from_columns(fold_eval, None, [0.0], [1.0], n=1, injective=laps == 1)


def _square(lo: float = -1.0, hi: float = 1.0) -> ParametricMap:
    """x -> x^2 on ]lo, hi[, whose image must be finite."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(max(lo * lo, hi * hi)):
        raise ValueError(f"square's image of ]{lo:g}, {hi:g}[ is not finite")
    return _from_columns(lambda x: [x**2], lambda x: [[2 * x]], [lo], [hi], n=1,
                         injective=lo >= 0 or hi <= 0)


_BUILTIN_MAPS = dict(helix=_helix, polar=_polar, sphere=_sphere, fold=_fold, square=_square)


def builtin_map(name: str, **params) -> ParametricMap:
    """Named maps and the keyword parameters each takes: helix (lo, hi),
    polar (r_hi), sphere (none), fold (laps), square (lo, hi).  An unknown
    name, or a parameter the named map does not take, is a ValueError.
    Each map is one formula on per-axis arrays, evaluated once per axis
    value on the tensor grids of the cell sums and preimage scans and on
    the columns of a point block otherwise, with the same bits."""
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


def _cell_axes(phi: ParametricMap, m: int, rows: slice = slice(None)) -> list[np.ndarray]:
    """Per-axis centers of the m cells per axis of phi's domain box, the
    first axis cut to the rows ``rows``: the cell centers are their tensor
    grid."""
    lo, hi = phi.domain_lo, phi.domain_hi
    steps = (hi - lo) / m
    axes = [_centers_1d(lo[d], m, steps[d]) for d in range(phi.k)]
    axes[0] = axes[0][rows]
    return axes


# cells per block of ``_cell_sum`` and of the preimage scan, and simplices
# per chunk of the scan's tests: bounds the arrays and their temporaries
_BLOCK_CELLS = 32768


def _pointwise_values(u: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    """u at the (N, k) points pts as an (N,) array; a ValueError naming
    the shape u returned unless it holds one value per point."""
    values = np.asarray(u(pts), dtype=float)
    if values.size != len(pts):
        raise ValueError(f"u must return one value per point; on {len(pts)} points "
                         f"it returned shape {values.shape}")
    return values.reshape(-1)


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
    (called once per block, on the block's centers) must be pointwise."""
    _check_count("m", m, 1, "cell per axis")
    row = m ** (phi.k - 1)
    rows = max(1, _BLOCK_CELLS // row)
    steps = (phi.domain_hi - phi.domain_lo) / m
    J = np.empty(m * row)
    for r in range(0, m, rows):
        axes = _cell_axes(phi, m, slice(r, r + rows))
        block = J[r * row : (r + len(axes[0])) * row]
        block[:] = phi._on_grid(axes, step=float(steps.min()) / 4)
        if u is None and E is None:
            continue
        pts = tensor_points(axes)
        if u is not None:
            block *= _pointwise_values(u, pts)
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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
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
    once per sheet.

    The partition is scanned in blocks of whole first-axis cell rows,
    about ``_BLOCK_CELLS`` cells each, with Phi evaluated on the block's
    own rows of vertices; so Phi, called once per block, must be
    pointwise.  Only the y in a cell's image box are candidates, and a
    block's candidate (cell, y) pairs are tested in chunks of at most
    ``_BLOCK_CELLS`` simplices (``_BLOCK_CELLS // k`` pairs).  Memory
    holds one block or one chunk, never the whole lattice or all pairs.

    Yields ``(y, x)`` per chunk: the row-major flat y index of every (y,
    preimage) pair and the preimages, shape (pairs, k), in simplex order
    (cell, then triangle) within and across chunks.
    """
    _check_count("depth", depth, 0, "cell per axis")
    k = phi.k
    m = 2**depth
    lo, hi = phi.domain_lo, phi.domain_hi
    steps = (hi - lo) / m
    corners = [lo[d] + np.arange(m + 1) * steps[d] for d in range(k)]
    row = m ** (k - 1)
    rows = max(1, _BLOCK_CELLS // row)
    chunk = max(1, _BLOCK_CELLS // k)
    for r in range(0, m, rows):
        extent = (min(rows, m - r),) + (m,) * (k - 1)
        block_corners = [corners[0][r : r + extent[0] + 1], *corners[1:]]
        V = phi._on_grid(block_corners).reshape(*(e + 1 for e in extent), k)
        cell = np.arange(extent[0] * row)
        if E is not None:
            cell = cell[E.contains(tensor_points(_cell_axes(phi, m, slice(r, r + extent[0]))))]
        cell, first, width = _box_candidates(V, extent, cell, y_axes)
        per_cell = functools.reduce(np.multiply, width)
        end = np.cumsum(per_cell)
        start = end - per_cell
        pairs = int(end[-1]) if len(end) else 0
        if k == 2:
            X, Y = V[..., 0].ravel(), V[..., 1].ravel()
        for p in range(0, pairs, chunk):
            q = min(p + chunk, pairs)
            # the chunk's cells, each repeated for its share of the pairs [p, q)
            c0, c1 = np.searchsorted(end, [p, q - 1], side="right")
            share = np.minimum(end[c0 : c1 + 1], q) - np.maximum(start[c0 : c1 + 1], p)
            owner = np.repeat(np.arange(c0, c1 + 1), share)
            # a pair's rank in its cell's block of y, split into one offset
            # per axis (the last axis fastest)
            rank = np.arange(p, q) - start[owner]
            y = np.zeros(q - p, dtype=np.int64)
            stride = 1
            for d in reversed(range(k)):
                w = width[d][owner]
                y += (first[d][owner] + rank % w) * stride
                rank //= w
                stride *= len(y_axes[d])
            c = cell[owner]
            if k == 1:
                fa, fb = V[c, 0], V[c + 1, 0]
                x = block_corners[0][c] + (y_axes[0][y] - fa) / (fb - fa) * steps[0]
                yield y, x[:, None]
            else:
                yield _triangle_preimages(X, Y, m, c, y, y_axes, block_corners, steps)


def _box_candidates(
    V: np.ndarray, extent: tuple[int, ...], cell: np.ndarray, y_axes: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The cells of a block, from the flat indices ``cell`` into its
    ``extent`` cells, whose half-open image box [min, max) holds a y of
    the grid on every axis, with the first y index and the count of y per
    axis in that box.  The box holds the boxes of the cell's simplices.
    V holds the block's vertex images; cells are dropped as soon as an
    axis leaves their range empty (a NaN bound sorts past the end and
    always does)."""
    first, width = [], []
    for d, ax in enumerate(y_axes):
        cell_corners = [
            V[tuple(slice(o, e + o) for o, e in zip(offset, extent)) + (d,)]
            for offset in itertools.product((0, 1), repeat=len(extent))
        ]
        box_lo = functools.reduce(np.minimum, cell_corners).reshape(-1)[cell]
        box_hi = functools.reduce(np.maximum, cell_corners).reshape(-1)[cell]
        f = np.searchsorted(ax, box_lo)
        w = np.searchsorted(ax, box_hi) - f
        keep = np.flatnonzero(w > 0)
        cell = cell[keep]
        first = [a[keep] for a in first] + [f[keep]]
        width = [a[keep] for a in width] + [w[keep]]
    return cell, first, width


def _triangle_preimages(
    X: np.ndarray,
    Y: np.ndarray,
    m: int,
    cell: np.ndarray,
    y: np.ndarray,
    y_axes: Sequence[np.ndarray],
    corners: Sequence[np.ndarray],
    steps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_simplex_preimages``'s k = 2 test of one chunk of candidate (cell,
    y) pairs of a block: X and Y are the row-major vertex images of the
    block's m + 1 wide rows, ``corners`` their coordinates per axis and
    ``cell`` a flat cell index in the block."""
    # both triangles of each candidate cell: t = 0 is (i, j), (i+1, j),
    # (i, j+1) and t = 1 is (i+1, j+1), (i, j+1), (i+1, j), both positively
    # oriented in R^2
    y, cell = np.repeat(y, 2), np.repeat(cell, 2)
    t = np.tile([0, 1], len(cell) // 2)
    i, j = np.divmod(cell, m)
    y0, y1 = (ax[iy] for ax, iy in zip(y_axes, np.unravel_index(y, [len(ax) for ax in y_axes])))
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
    cell volume.

    Each chunk of preimages is added into one y-grid array in pair order
    (``np.add.at``), so the sums have the bits of one pass over all pairs,
    and memory holds that array and one chunk.  u, called once per chunk
    that has preimages, must be pointwise."""
    shape = tuple(len(ax) for ax in y_axes)
    sums = np.zeros(math.prod(shape), dtype=np.int64 if u is None else float)
    for y, x in _simplex_preimages(phi, E, depth, y_axes):
        if len(y):
            np.add.at(sums, y, 1 if u is None else _pointwise_values(u, x))
    return sums.reshape(shape)


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
    img = phi._on_grid([np.linspace(lo[d], hi[d], probe) for d in range(phi.k)])
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
    The lhs calls u once per block of cells (``_cell_sum``) and the rhs
    once per chunk of preimages (``_preimage_sums``), so u, like Phi, must
    be pointwise: value i of its result depends on row i of the points
    only, and a result without one value per point is a ValueError.  The
    rhs sums u over the preimages of each y of a y-grid under the PL
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
