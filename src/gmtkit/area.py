"""Linear and parametric area formulas, multiplicity, change of variables.

J(T) = sqrt(det(T^t T)) is computed two independent ways (singular values
and the Cauchy-Binet minor expansion) so each can certify the other.
Parametric surface integrals are midpoint cell sums of the pointwise
Jacobian; cell centers never touch chart seams or coordinate
singularities, so angular charts integrate over the open box directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergenceError
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
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("domain box must be nondegenerate")
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
        """Pointwise J(Phi) = sqrt(det(DPhi^t DPhi)), shape (N,)."""
        J = self.jacobian_at(pts, step)
        if self.k == 1:
            return np.sqrt((J[:, :, 0] ** 2).sum(axis=1))
        G = np.einsum("pik,pil->pkl", J, J)
        return np.sqrt(np.maximum(np.linalg.det(G), 0.0))

    def signed_det(self, pts: np.ndarray, step: float) -> np.ndarray:
        if self.k != self.n:
            raise ValueError("signed determinant needs k = n")
        return np.linalg.det(self.jacobian_at(pts, step))


def builtin_map(name: str, **params) -> ParametricMap:
    """Named maps: helix, polar, sphere, fold, square.

    helix: x -> (cos x, sin x, x) on ]lo, hi[ (default ]0, 1[);
    polar: (r, theta) -> (r cos theta, r sin theta) on ]0,1[ x ]-pi,pi[;
    sphere: (theta, phi) -> unit sphere on ]0,pi[ x ]0,2pi[;
    fold: piecewise-linear tent with ``laps`` laps on ]0, 1[;
    square: x -> x^2 on ]lo, hi[ (default ]-1, 1[).
    """
    if name == "helix":
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", 1.0))
        return ParametricMap(
            evaluator=lambda p: np.stack(
                [np.cos(p[:, 0]), np.sin(p[:, 0]), p[:, 0]], axis=1
            ),
            domain_lo=[lo],
            domain_hi=[hi],
            n=3,
            jacobian=lambda p: np.stack(
                [-np.sin(p[:, 0]), np.cos(p[:, 0]), np.ones(len(p))], axis=1
            )[:, :, None],
            injective=True,
        )
    if name == "polar":
        r_hi = float(params.get("r_hi", 1.0))
        return ParametricMap(
            evaluator=lambda p: np.stack(
                [p[:, 0] * np.cos(p[:, 1]), p[:, 0] * np.sin(p[:, 1])], axis=1
            ),
            domain_lo=[0.0, -math.pi],
            domain_hi=[r_hi, math.pi],
            n=2,
            jacobian=lambda p: np.stack(
                [
                    np.stack([np.cos(p[:, 1]), -p[:, 0] * np.sin(p[:, 1])], axis=1),
                    np.stack([np.sin(p[:, 1]), p[:, 0] * np.cos(p[:, 1])], axis=1),
                ],
                axis=1,
            ),
            injective=True,
        )
    if name == "sphere":
        def sphere_eval(p):
            th, ph = p[:, 0], p[:, 1]
            return np.stack(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
            )

        def sphere_jac(p):
            th, ph = p[:, 0], p[:, 1]
            d_th = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], axis=1)
            d_ph = np.stack([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros(len(p))], axis=1)
            return np.stack([d_th, d_ph], axis=2)

        return ParametricMap(
            evaluator=sphere_eval,
            domain_lo=[0.0, 0.0],
            domain_hi=[math.pi, 2 * math.pi],
            n=3,
            jacobian=sphere_jac,
            injective=True,
        )
    if name == "fold":
        laps = int(params.get("laps", 2))
        if laps < 1:
            raise ValueError("laps must be >= 1")

        def fold_eval(p):
            u = np.clip(p[:, 0], 0.0, 1.0) * laps
            m = np.floor(u).astype(int)
            frac = u - m
            val = np.where(m % 2 == 0, frac, 1.0 - frac)
            return val[:, None]

        return ParametricMap(
            evaluator=fold_eval,
            domain_lo=[0.0],
            domain_hi=[1.0],
            n=1,
            injective=laps == 1,
        )
    if name == "square":
        lo = float(params.get("lo", -1.0))
        hi = float(params.get("hi", 1.0))
        return ParametricMap(
            evaluator=lambda p: p[:, :1] ** 2,
            domain_lo=[lo],
            domain_hi=[hi],
            n=1,
            jacobian=lambda p: (2 * p[:, :1])[:, :, None],
            injective=lo >= 0 or hi <= 0,
        )
    raise ValueError(f"unknown builtin map {name!r}")


def graph_area(f: GridFunction, mask: np.ndarray | None = None) -> float:
    """Area of the graph of f over its box: sum of h^k sqrt(1 + |grad f|^2)."""
    gn2 = (gradient_fd(f) ** 2).sum(axis=0)
    integrand = np.sqrt(1.0 + gn2)
    if mask is not None:
        integrand = np.where(mask, integrand, 0.0)
    return float(integrand.sum() * f.h**f.ndim)


def _cell_centers(phi: ParametricMap, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the m cells per axis of phi's domain box, shape (m**k, k),
    and the cell steps per axis."""
    lo, hi = phi.domain_lo, phi.domain_hi
    steps = (hi - lo) / m
    return tensor_points([_centers_1d(lo[d], m, steps[d]) for d in range(phi.k)]), steps


def _cell_sum(
    phi: ParametricMap,
    E: RasterSet | None,
    m: int,
    u: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Midpoint sum of u J(Phi) (J(Phi) without u) over the m cells per axis
    whose centers lie in E."""
    if m < 1:
        raise ValueError("need at least one cell per axis")
    pts, steps = _cell_centers(phi, m)
    J = phi.j_at(pts, step=float(steps.min()) / 4)
    if u is not None:
        J = np.asarray(u(pts), dtype=float).reshape(-1) * J
    if E is not None:
        J = np.where(E.contains(pts), J, 0.0)
    return float(J.sum() * np.prod(steps))


def surface_measure(
    phi: ParametricMap, E: RasterSet | None = None, m: int = 256
) -> float:
    """H^k(Phi(E)) = int_E J(Phi) for injective Phi: midpoint cell sums at
    m and 2m cells per axis, Richardson-combined.  Every k uses it, curve
    length (k = 1) included.
    """
    if not phi.injective:
        raise ValueError("surface_measure needs the injectivity flag; "
                         "use the multiplicity-weighted operations otherwise")
    coarse = _cell_sum(phi, E, m)
    fine = _cell_sum(phi, E, 2 * m)
    return (4 * fine - coarse) / 3


def curve_length(phi: ParametricMap, nodes: int = 1024) -> float:
    """H^1 of an injective curve: ``surface_measure`` for k = 1, midpoint
    sums of |dPhi/dt| on ``nodes`` and 2 * ``nodes`` cells, Richardson-combined
    (which also cancels the O(step^2) error of a central-difference speed)."""
    if phi.k != 1:
        raise ValueError("curve_length needs a 1-parameter map")
    return surface_measure(phi, m=nodes)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Preimage count N(Phi, E, y) with its refinement trace."""

    y: np.ndarray
    counts: tuple[int, ...]  # one per partition depth
    count: int | None  # stabilized value, None if the trace never settled
    stabilized: bool


def _partition_boxes(
    phi: ParametricMap, E: RasterSet | None, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Padded image boxes of the cells of the depth-indexed partition.

    Returns ``(lo, hi, member)``: ``lo`` and ``hi`` have shape
    ``(2**depth,) * k + (n,)`` and bound each cell's image box (corner
    samples, inflated by half its own extent); ``member`` marks the cells
    whose center lies in E, or is None without E.
    """
    lo, hi = phi.domain_lo, phi.domain_hi
    k = phi.k
    m = 2**depth
    steps = (hi - lo) / m
    corners = [lo[d] + np.arange(m + 1) * steps[d] for d in range(k)]
    box_lo = box_hi = phi(tensor_points(corners)).reshape(*(m + 1,) * k, phi.n)
    for d in range(k):
        sl_a = [slice(None)] * (k + 1)
        sl_b = [slice(None)] * (k + 1)
        sl_a[d] = slice(None, box_lo.shape[d] - 1)
        sl_b[d] = slice(1, None)
        box_lo = np.minimum(box_lo[tuple(sl_a)], box_lo[tuple(sl_b)])
        box_hi = np.maximum(box_hi[tuple(sl_a)], box_hi[tuple(sl_b)])
    pad = 0.25 * (box_hi - box_lo) + 1e-12
    member = None if E is None else E.contains(_cell_centers(phi, m)[0]).reshape((m,) * k)
    return box_lo - pad, box_hi + pad, member


def _same_y_links(key: np.ndarray, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Links between hits at the same y whose cells are neighbours (full
    adjacency: indices differ by at most 1 on every axis), as index pairs
    ``(src, dst)`` into ``key``, the ascending pair keys ``y * m**k + cell``.
    Only forward offsets (lexicographically positive) are looked up, so
    each neighbouring pair is linked once, from its lower cell.
    """
    coords = np.unravel_index(key % m**k, (m,) * k)
    src, dst = [], []
    forward = [o for o in itertools.product((-1, 0, 1), repeat=k) if o > (0,) * k]
    for offset in forward:
        ok = np.ones(len(key), dtype=bool)
        for c, o in zip(coords, offset):
            ok &= (c + o >= 0) & (c + o < m)
        nodes = np.flatnonzero(ok)
        want = key[nodes] + sum(o * m ** (k - 1 - d) for d, o in enumerate(offset))
        pos = np.minimum(np.searchsorted(key, want), len(key) - 1)
        found = key[pos] == want
        src.append(nodes[found])
        dst.append(pos[found])
    return np.concatenate(src), np.concatenate(dst)


def _hit_pairs(
    phi: ParametricMap, E: RasterSet | None, depth: int, y_axes: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (y, cell) pair of the depth-indexed partition whose padded cell
    image box contains y, for the y of the tensor grid ``y_axes[0] x ... x
    y_axes[n-1]`` (each axis ascending); with E, only cells whose center
    lies in E.

    Returns ``(y, cell, src, dst)``: the row-major flat indices of the
    pairs, sorted by y and then by cell, and their same-y neighbour links
    (``_same_y_links``).  The partition is built once and only the pairs
    are listed, so memory grows with the hits, not with the grid.
    """
    box_lo, box_hi, member = _partition_boxes(phi, E, depth)
    m = 2**depth
    n_cells = m**phi.k
    cells = np.arange(n_cells) if member is None else np.flatnonzero(member)
    box_lo = box_lo.reshape(n_cells, phi.n)[cells]
    box_hi = box_hi.reshape(n_cells, phi.n)[cells]
    # searchsorted makes the comparisons y >= lo and y <= hi on each
    # ascending axis; a NaN bound (always NaN on both sides) sorts past the
    # end and leaves the range empty
    first = [np.searchsorted(ax, box_lo[:, d], side="left") for d, ax in enumerate(y_axes)]
    width = [
        np.maximum(np.searchsorted(ax, box_hi[:, d], side="right") - first[d], 0)
        for d, ax in enumerate(y_axes)
    ]
    del box_lo, box_hi  # per-cell arrays: free them before the pair arrays grow
    per_cell = np.prod(width, axis=0)
    owner = np.repeat(np.arange(len(cells)), per_cell)
    # a pair's rank in its cell's block of y, split into one offset per axis
    # (the last axis fastest)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    y = np.zeros(len(owner), dtype=np.int64)
    stride = 1
    for d in reversed(range(len(y_axes))):
        w = width[d][owner]
        y += (first[d][owner] + rank % w) * stride
        rank //= w
        stride *= len(y_axes[d])
    key = np.sort(y * n_cells + cells[owner])
    src, dst = _same_y_links(key, m, phi.k)
    y, cell = np.divmod(key, n_cells)
    return y, cell, src, dst


def _hit_clusters(
    phi: ParametricMap, E: RasterSet | None, depth: int, y_axes: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``_hit_pairs``'s pairs ``(y, cell)`` with the hit cluster of each,
    ``(y, cell, label, n_clusters)``: the clusters are the connected
    components of the same-y links, numbered from 0."""
    y, cell, src, dst = _hit_pairs(phi, E, depth, y_axes)
    if phi.k == 1:
        # 1-D clusters are runs: one starts at each pair no link points to
        first = np.ones(len(y), dtype=bool)
        first[dst] = False
        return y, cell, np.cumsum(first) - 1, int(first.sum())
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(len(y),) * 2)
    n_clusters, label = connected_components(graph, directed=False)
    return y, cell, label, n_clusters


def _multiplicity_counts(
    phi: ParametricMap, E: RasterSet | None, depth: int, y_axes: Sequence[np.ndarray]
) -> np.ndarray:
    """Hit-cluster counts at partition depth ``depth`` for every y of the
    tensor grid ``y_axes[0] x ... x y_axes[n-1]``, as an array of that
    shape."""
    y, _, label, n_clusters = _hit_clusters(phi, E, depth, y_axes)
    shape = tuple(len(ax) for ax in y_axes)
    cluster_y = np.zeros(n_clusters, dtype=np.int64)
    cluster_y[label] = y
    return np.bincount(cluster_y, minlength=math.prod(shape)).reshape(shape)


def _preimage_integral(
    phi: ParametricMap,
    u: Callable[[np.ndarray], np.ndarray],
    E: RasterSet | None,
    depth: int,
    y_axes: Sequence[np.ndarray],
    cell: float,
) -> float:
    """int sum_{x in Phi^-1(y) cap E} u(x) dy over the tensor y-grid
    ``y_axes`` of cell volume ``cell``.  Each hit cluster of a y at
    partition depth ``depth`` is one preimage, the cell of the cluster whose
    image is nearest y (the first in pair order on ties)."""
    y, cell_of, label, n_clusters = _hit_clusters(phi, E, depth, y_axes)
    centers = _cell_centers(phi, 2**depth)[0]
    shape = tuple(len(ax) for ax in y_axes)
    y_pts = np.stack([ax[i] for ax, i in zip(y_axes, np.unravel_index(y, shape))], axis=1)
    dist = ((phi(centers)[cell_of] - y_pts) ** 2).sum(axis=1)
    nearest = np.full(n_clusters, np.inf)
    np.minimum.at(nearest, label, dist)
    ties = np.flatnonzero(dist == nearest[label])
    best = np.full(n_clusters, len(dist))
    np.minimum.at(best, label[ties], ties)
    u_best = np.asarray(u(centers[cell_of[best]]), dtype=float).reshape(-1)
    totals = np.zeros(math.prod(shape))
    np.add.at(totals, y[best], u_best)
    # a running sum in row-major order, not numpy's pairwise sum, so the
    # rounding is that of the plain per-y integral
    integral = 0.0
    for total in totals.tolist():
        integral += total * cell
    return integral


def multiplicity(
    phi: ParametricMap,
    y: Sequence[float],
    E: RasterSet | None = None,
    depths: Sequence[int] = range(4, 12),
) -> MultiplicityProfile:
    """N(Phi, E, y): connected clusters (full adjacency) of partition cells
    whose padded image box contains y, refined until two consecutive depths
    agree.  Each depth is one hit-pair scan over a one-point y-grid.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (phi.n,) or not np.all(np.isfinite(y)):
        raise ValueError(f"y must be a finite point of R^{phi.n}")
    counts = []
    for depth in depths:
        counts.append(int(_multiplicity_counts(phi, E, depth, y[:, None]).sum()))
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return MultiplicityProfile(y, tuple(counts), counts[-1], True)
    return MultiplicityProfile(y, tuple(counts), None, False)


def _y_grid(
    phi: ParametricMap, n_y: int, probe: int, pad: float
) -> tuple[list[np.ndarray], float]:
    """Axes of the n_y-per-axis grid of cell centers spanning the image of
    a ``probe``-per-axis lattice of phi's domain box, widened by ``pad`` of
    its span per side, and the volume of one grid cell."""
    if n_y < 1:
        raise ValueError("need at least one y-cell per axis")
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


def _y_grid_1d(phi: ParametricMap, n_y: int) -> tuple[np.ndarray, float]:
    (ys,), dy = _y_grid(phi, n_y, 4096, 0.05)
    return ys, dy


def area_formula_with_multiplicity(
    phi: ParametricMap,
    E: RasterSet | None = None,
    n_y: int = 256,
    depth: int = 12,
    m_cells: int = 4096,
) -> tuple[float, float]:
    """(lhs, rhs) of  int N(Phi, E, y) dy  =  int_E J(Phi)  for k = n = 1.

    The lhs integrates the hit-run counts of one hit-pair scan per depth
    over a y-grid spanning the observed image (two depths,
    Richardson-free stabilization check); the rhs is a midpoint sum of
    |Phi'|.
    """
    if phi.k != 1 or phi.n != 1:
        raise ValueError("the two-sided area formula is implemented for k = n = 1")
    ys, dy = _y_grid_1d(phi, n_y)
    counts = _multiplicity_counts(phi, E, depth, [ys])
    counts_prev = _multiplicity_counts(phi, E, depth - 1, [ys])
    disagree = float(np.mean(counts != counts_prev))
    if disagree > 0.05:
        raise NonConvergenceError(
            f"multiplicity unstable on {disagree:.0%} of the y-grid"
        )
    lhs = float(counts.sum() * dy)
    rhs = _cell_sum(phi, E, m_cells)
    return lhs, rhs


def change_of_variables(
    phi: ParametricMap,
    u: Callable[[np.ndarray], np.ndarray],
    E: RasterSet | None = None,
    n_y: int = 256,
    depth: int = 12,
    m_cells: int = 4096,
) -> tuple[float, float]:
    """(lhs, rhs) of  int u J(Phi)  =  int sum_{x in Phi^-1(y)} u(x) dy
    for k = n <= 2.

    The lhs is a midpoint sum of u J(Phi): ``m_cells`` cells for k = 1;
    for k = 2, sqrt(m_cells) cells per axis when m_cells > 4096, else 512.
    The rhs lists every (y, cell) hit of a y-grid in one hit-pair scan and
    sums u over one preimage per hit cluster, the cell whose image is
    nearest y; it is the same engine as ``jacobian_l1_check``'s
    multiplicity integral, so it needs no injectivity flag.  For k = 1 the
    scan runs at partition depth ``depth`` on ``n_y`` y-cells spanning the
    observed image (plus 5 % per side).  For k = 2 it runs at depth 9 (the
    lhs's default 512 cells per axis) on a 128 x 128 y-grid spanning the
    image (plus 2 % per side); ``n_y`` and ``depth`` are not used, but
    ``m_cells``, ``n_y`` and ``depth`` below 1 are a ValueError either way.
    """
    if phi.k != phi.n or phi.k > 2:
        raise ValueError("implemented for k = n <= 2")
    if min(m_cells, n_y, depth) < 1:
        raise ValueError(
            "need at least one cell, one y-cell and one partition level; "
            f"got m_cells={m_cells}, n_y={n_y}, depth={depth}"
        )
    if phi.k == 1:
        lhs = _cell_sum(phi, E, m_cells, u)
        ys, dy = _y_grid_1d(phi, n_y)
        return lhs, _preimage_integral(phi, u, E, depth, [ys], dy)
    lhs = _cell_sum(phi, E, int(round(math.sqrt(m_cells))) if m_cells > 4096 else 512, u)
    y_axes, cell = _y_grid(phi, 128, 256, 0.02)
    return lhs, _preimage_integral(phi, u, E, 9, y_axes, cell)


def jacobian_l1_check(
    phi: ParametricMap, E: RasterSet | None = None, m_cells: int = 4096
) -> tuple[float, float]:
    """(int |det DPhi|, int N(Phi, E, y) dy) for k = n <= 2; they must agree.

    For k = 1 both sides are ``area_formula_with_multiplicity``'s, swapped.
    For k = 2 the lhs is a midpoint sum on sqrt(m_cells) cells per axis and
    the rhs is ``change_of_variables``'s preimage integral with u = 1 at
    partition depth 7 on a 64 x 64 y-grid spanning the image (plus 2 % per
    side): N at each y is the hit-cluster count of ``multiplicity``.
    """
    if phi.k != phi.n:
        raise ValueError("needs k = n")
    if phi.k == 1:
        rhs, lhs = area_formula_with_multiplicity(phi, E, m_cells=m_cells)
        return lhs, rhs
    if phi.k != 2:
        raise ValueError("implemented for k = n <= 2")
    lhs = _cell_sum(phi, E, int(round(math.sqrt(m_cells))))
    y_axes, cell = _y_grid(phi, 64, 256, 0.02)
    return lhs, _preimage_integral(phi, lambda p: np.ones(len(p)), E, 7, y_axes, cell)
