"""Hausdorff premeasures, box-counting dimension, and measure transforms.

Point clouds stand in for subsets of R^n; covers are dyadic boxes anchored
at the coordinate origin, which keeps every estimate reproducible.  The
box-counting slope is the computable proxy for the Hausdorff dimension of
the self-similar test sets this module targets.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResolutionError, SingularMapError, _check_count, _check_real
from .grids import RasterSet, _write_csv_rows, lebesgue_measure, omega

__all__ = [
    "PointCloud",
    "SimilarityMap",
    "IfsSystem",
    "DimensionEstimate",
    "SingularMapError",
    "omega",
    "box_counts",
    "premeasure_delta",
    "dimension_estimate",
    "default_scales",
    "ifs_points",
    "lebesgue_measure",
    "linear_image_measure_check",
    "isodiametric_check",
    "raster_diameter",
    "lipschitz_image_bound_check",
]


@dataclass(frozen=True)
class PointCloud:
    """Finite list of points in R^n."""

    points: np.ndarray  # shape (N, n)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.shape[1] < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def translate(self, v: Sequence[float]) -> "PointCloud":
        return PointCloud(self.points + np.asarray(v, dtype=float))

    def scale(self, t: float) -> "PointCloud":
        return PointCloud(self.points * t)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(f"x{i + 1}" for i in range(self.n)) + "\n")
            _write_csv_rows(fh, self.points, ",".join(["%.18e"] * self.n))

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        """One point per row after a header line; a grid or raster CSV,
        whose first line is a lattice header, is a ValueError."""
        with open(path) as fh:
            if fh.readline().startswith("dims="):
                raise ValueError("lattice CSV (dims=...;origin=...;h=... header), not a point CSV")
            pts = np.loadtxt(fh, delimiter=",", ndmin=2)
        return cls(pts)


@dataclass(frozen=True)
class SimilarityMap:
    """x -> ratio * R x + offset with R orthogonal and 0 < ratio < 1."""

    ratio: float
    offset: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "offset", np.atleast_1d(np.asarray(self.offset, dtype=float)))
        if not 0 < self.ratio < 1:
            raise ValueError("contraction ratio must lie in (0, 1)")
        if self.rotation is not None:
            R = np.asarray(self.rotation, dtype=float)
            if not np.allclose(R.T @ R, np.eye(R.shape[0]), atol=1e-10):
                raise ValueError("rotation part must be orthogonal")
            object.__setattr__(self, "rotation", R)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        out = pts if self.rotation is None else pts @ self.rotation.T
        return self.ratio * out + self.offset


@dataclass(frozen=True)
class IfsSystem:
    """Iterated function system of similarity maps."""

    maps: tuple
    depth: int = 0  # 0 = choose per scale range

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) < 2:
            raise ValueError("an IFS needs at least two maps")
        _check_count("depth", self.depth, 0, "level, or 0 to choose from min_scale")

    @property
    def n(self) -> int:
        return self.maps[0].offset.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "maps": [
                    {
                        "ratio": m.ratio,
                        "offset": m.offset.tolist(),
                        **({"rotation": m.rotation.tolist()} if m.rotation is not None else {}),
                    }
                    for m in self.maps
                ],
                "depth": self.depth,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "IfsSystem":
        data = json.loads(text)
        maps = tuple(
            SimilarityMap(
                ratio=m["ratio"],
                offset=m["offset"],
                rotation=m.get("rotation"),
            )
            for m in data["maps"]
        )
        return cls(maps=maps, depth=data.get("depth", 0))


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares box-counting fit: slope estimates the dimension."""

    slope: float
    intercept: float
    scales: np.ndarray
    counts: np.ndarray
    r2: float

    @property
    def degenerate(self) -> bool:
        return self.r2 == 0.0


def _distinct_rows(idx: np.ndarray) -> int:
    """Number of distinct rows of an (N, n) array (box indices or points).

    Sorts the rows lexicographically and counts the places where a row
    differs from its predecessor; exact for any int64 entries, with no
    combined key that could overflow.
    """
    if len(idx) == 0:
        return 0
    rows = idx[np.lexsort(idx.T)]
    return 1 + int(np.any(rows[1:] != rows[:-1], axis=1).sum())


def box_counts(
    cloud: PointCloud, scales: Sequence[float], n_offsets: int = 16
) -> np.ndarray:
    """Occupied boxes of side delta per scale, averaged over grid phases.

    Counts are averaged over ``n_offsets`` (an int >= 1) deterministic
    diagonal shifts of the box grid (offset j*delta/n_offsets on every
    axis).  The average is the sausage-volume count
    Lebesgue(E + [-delta, 0]^n) / delta^n, which kills the grid-alignment
    oscillation that biases slope fits on self-similar sets; a single
    anchored grid is the n_offsets = 1 case.

    Each count is the number of distinct integer box indices
    floor((x - shift) / delta) over the cloud.  Subtraction, division by
    delta > 0 and floor are monotone in IEEE doubles, so the floors of each
    axis's min and max coordinate are exactly the least and greatest index
    on that axis.  When the index box they span holds at most
    max(4N, 2^16) boxes, every point's box folds into one mixed-radix key
    and the count is the number of entries marked in a boolean occupancy
    array, sized by N and reused across offsets, with no sort; a larger
    span (3-D or fine-scale clouds) is counted by ``_distinct_rows``.  A
    scale at which a coordinate's index would not fit in int64 is a
    ValueError.
    """
    _check_count("n_offsets", n_offsets, 1, "grid phase")
    cols = np.ascontiguousarray(cloud.points.T)  # one contiguous row per axis
    lows, highs = cols.min(axis=1, initial=math.inf), cols.max(axis=1, initial=-math.inf)
    reach = float(max(-lows.min(), highs.max(), 0.0))
    size = cols.shape[1]
    limit = max(4 * size, 2**16)
    floors = np.empty_like(cols)
    keys = np.empty(size, dtype=np.intp)
    occupied = np.zeros(limit, dtype=bool)
    counts = []
    for delta in scales:
        _check_real("scales", delta, maximum=sys.float_info.max / n_offsets)  # delta * j is finite
        if reach >= 2.0**62 * delta:
            raise ValueError(f"box indices at scale {delta:g} overflow int64 (|x| up to {reach:g})")
        total = 0
        for j in range(n_offsets if size else 0):  # an empty cloud has no boxes
            shift = delta * j / n_offsets
            np.subtract(cols, shift, out=floors)
            np.divide(floors, delta, out=floors)
            np.floor(floors, out=floors)
            first = [math.floor((x - shift) / delta) for x in lows]
            spans = [math.floor((x - shift) / delta) - a + 1 for x, a in zip(highs, first)]
            boxes = math.prod(spans)
            if boxes > limit:
                total += _distinct_rows(floors.astype(np.int64).T)
                continue
            # every term below is an integer of magnitude < prod(spans), so exact
            key = floors[0]
            key -= first[0]
            for row, a, span in zip(floors[1:], first[1:], spans[1:]):
                row -= a
                key *= span
                key += row
            np.copyto(keys, key, casting="unsafe")
            occupied[keys] = True
            total += np.count_nonzero(occupied[:boxes])
            occupied[keys] = False
        counts.append(total / n_offsets)
    return np.array(counts, dtype=float)


def premeasure_delta(
    cloud: PointCloud, s: float, delta: float, refine_floor: float | None = None
) -> float:
    """Upper estimate of the size-delta Hausdorff premeasure H^s_delta.

    By default uses the origin-anchored box cover at grid size
    delta/sqrt(n), so every covering box has diameter exactly delta.

    With ``refine_floor`` set, the estimate is the minimum over all dyadic
    grid sizes 2^-j in [refine_floor, delta/sqrt(n)] — finer grids are
    still admissible delta-covers, and because the candidate family is
    nested across delta the refined estimate is monotone as delta shrinks
    (matching the true premeasure).  The floor must stay above the cloud's
    sampling resolution or the estimate decays with the finite sample.  An
    interval that holds no dyadic size is a ValueError.
    """
    _check_real("delta", delta)
    _check_real("s", s, 0)
    s = float(s)  # an int s would meet exact big-int powers
    g_max = delta / math.sqrt(cloud.n)
    sizes = [g_max]
    if refine_floor is not None:
        _check_real("refine_floor", refine_floor)
        if refine_floor > g_max:
            raise ValueError("refine_floor exceeds the admissible grid size")
        # frexp: x = m 2^e with 1/2 <= m < 1, exactly.  2^-k <= g_max from k = 1 - e on;
        # 2^-k >= the floor up to k = 1 - e at m = 1/2 (a power of two), else up to -e
        (_, e), (m, f) = math.frexp(g_max), math.frexp(refine_floor)
        sizes = default_scales(1 - e, (m == 0.5) - f).tolist()
        if not sizes:
            raise ValueError(f"no dyadic grid size lies in [{refine_floor}, {g_max}]")
    if cloud.size == 0:
        return 0.0
    counts = box_counts(cloud, sizes, n_offsets=1)
    diameters = [g * math.sqrt(cloud.n) for g in sizes]
    try:
        return min(omega(s) / 2**s * float(c) * d**s for d, c in zip(diameters, counts))
    except OverflowError:  # 2^s or d^s alone leaves the float range: omega(s) c (d/2)^s in logs
        half = math.lgamma(1 + s / 2) / s if s < 1e305 else (math.log(s / 2) - 1) / 2
        top = min(s * (math.log(math.sqrt(math.pi) * d / 2) - half) + math.log(c)
                  for d, c in zip(diameters, counts))
        if top > 709:
            raise ValueError(f"H^s_delta at s = {s}, delta = {delta} passes the float range")
        return math.exp(top)


def default_scales(k_min: int = 3, k_max: int = 10) -> np.ndarray:
    """Dyadic scale schedule 2^-k, k = k_min..k_max, decreasing; k_min and
    k_max must lie in [-1023, 1074], where 2^-k is a positive finite double."""
    if min(k_min, k_max) < -1023 or max(k_min, k_max) > 1074:
        raise ValueError(f"scale exponents must lie in [-1023, 1074] (2^-k a positive finite "
                         f"double); got k = {k_min}..{k_max}")
    return 2.0 ** (-np.arange(k_min, k_max + 1))


def ifs_points(ifs: IfsSystem, depth: int | None = None, min_scale: float | None = None) -> PointCloud:
    """Attractor sample: all depth-fold map compositions applied to a seed.

    A depth of None or 0 defers to ``ifs.depth``; where that is 0 too, picks
    the smallest depth whose residual contraction (max ratio)^depth
    out-resolves min_scale / 4.
    """
    if depth is not None:
        _check_count("depth", depth, 0, "level, or 0 to choose from min_scale")
    depth = depth or ifs.depth
    if depth == 0:
        if min_scale is None:
            raise ValueError("either depth or min_scale must be given")
        _check_real("min_scale", min_scale)
        rmax = max(m.ratio for m in ifs.maps)
        depth = max(1, math.ceil(math.log(min_scale / 4) / math.log(rmax)))
    # fixed point of the first map as seed; any bounded seed works
    seed = ifs.maps[0].offset / (1 - ifs.maps[0].ratio)
    pts = seed[None, :]
    for _ in range(depth):
        pts = np.concatenate([m.apply(pts) for m in ifs.maps], axis=0)
    return PointCloud(pts)


def dimension_estimate(
    obj: PointCloud | IfsSystem,
    scales: Sequence[float] | None = None,
) -> DimensionEstimate:
    """Box-counting slope of log(count) against log(1/delta).

    A scale is saturated when its averaged count reaches the number of
    distinct points: every point sits in a box of its own, so the count
    measures the sampling, not the set.  Saturation at the two finest
    scales while a coarser one is unsaturated is a ResolutionError that
    names the finest usable scale, the coarsest saturated one.
    """
    scales = np.asarray(default_scales() if scales is None else scales, dtype=float)
    if len(scales) < 4:
        raise ValueError("at least 4 scales are required")
    for delta in scales:
        _check_real("scales", delta)
    if np.any(np.diff(scales) >= 0):
        raise ValueError("scales must be strictly decreasing")
    if isinstance(obj, IfsSystem):
        cloud = ifs_points(obj, min_scale=float(scales.min()))
    else:
        cloud = obj
    counts = box_counts(cloud, scales)
    # no count exceeds the distinct points, so two saturated finest scales
    # have equal counts; only then are the points counted
    if counts[-2] == counts[-1] > counts.min():
        distinct = _distinct_rows(cloud.points)
        if counts[-1] >= distinct:
            usable = scales[np.flatnonzero(counts < distinct)[-1] + 1]
            raise ResolutionError(
                f"box counts reach all {distinct} distinct points from scale {usable:g} "
                f"down; the finest usable scale is {usable:g}"
            )
    x = np.log(1.0 / scales)
    y = np.log(counts.astype(float))
    if np.all(counts == counts[0]):
        return DimensionEstimate(0.0, y[0], scales, counts, 0.0)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 0.0
    return DimensionEstimate(float(slope), float(intercept), scales, counts, r2)


def linear_image_measure_check(raster: RasterSet, T: np.ndarray) -> tuple[float, float]:
    """Both sides of Lebesgue(T(E)) = |det T| * Lebesgue(E).

    The image is re-rasterized at the same spacing by inverse mapping: an
    image cell belongs to T(E) iff its center pulls back into a true cell.
    An image thinner than one cell (T's smallest singular value times E's
    width along its singular vector, below h) is a ResolutionError.
    """
    T = np.asarray(T, dtype=float)
    n = raster.ndim
    if T.shape != (n, n):
        raise ValueError("T must be square and match the raster dimension")
    if not np.all(np.isfinite(T)):
        raise ValueError("T must be finite")
    det = float(np.linalg.det(T))
    if abs(det) < 1e-14:
        raise SingularMapError("T is singular")
    rhs = abs(det) * lebesgue_measure(raster)

    centers = raster.true_centers()
    if len(centers) == 0:
        return 0.0, rhs
    h = raster.h
    _, sigma, vt = np.linalg.svd(T)
    width = sigma[-1] * (np.ptp(centers @ vt[-1]) + h * np.abs(vt[-1]).sum())
    if width < h:
        raise ResolutionError(
            f"T's smallest singular value {sigma[-1]:g} maps the raster to a band "
            f"{width:g} wide, thinner than one cell (h = {h:g}); the image needs a "
            f"spacing below {width:g}")
    img = centers @ T.T
    inverse = np.linalg.inv(T).T
    lo = img.min(axis=0) - h
    ext = np.maximum(1, np.ceil((img.max(axis=0) + h - lo) / h).astype(int))
    image = RasterSet.from_predicate(
        lambda *ys: raster.contains(np.stack(ys, -1).reshape(-1, n) @ inverse).reshape(ext),
        lo, ext, h)
    return lebesgue_measure(image), rhs


def _line_ends(keys: np.ndarray) -> np.ndarray:
    """Flags the first and last row of each run of equal rows of ``keys``."""
    new_line = np.any(keys[1:] != keys[:-1], axis=1)
    return np.r_[True, new_line] | np.r_[new_line, True]


def raster_diameter(raster: RasterSet) -> float:
    """Max pairwise distance of true-cell centers plus one cell diagonal.

    The farthest point of a finite set from any point is a vertex of its
    convex hull, so the diameter is attained at a pair of hull vertices, and
    a hull vertex is the first or last true cell on every lattice line
    through it (Preparata & Shamos, ch. 4).  The candidates are the cells
    that are first or last on their line along every axis and every face
    diagonal e_a +- e_b; the max is taken over every pair of them, a block
    of rows at a time.  A collinear set keeps its two ends, and a 1-D
    raster gives max - min (sqrt(x^2) = |x| in IEEE doubles).
    """
    idx = np.argwhere(raster.mask)
    if len(idx) == 0:
        raise ValueError("raster is empty")
    n = raster.ndim
    idx = idx[_line_ends(idx[:, :-1])]  # row-major: last-axis lines are runs
    eye = np.eye(n, dtype=idx.dtype)
    lines = [(a, eye[a]) for a in range(n - 1)] + [
        (a, eye[a] + s * eye[b]) for a in range(n) for b in range(a + 1, n) for s in (1, -1)
    ]
    for a, v in lines:
        key = idx - idx[:, a, None] * v  # the line through each cell; idx[:, a] is its place on it
        order = np.lexsort((idx[:, a], *key.T))
        idx = idx[order][_line_ends(key[order])]
    centers = raster._center(idx)
    rows = max(1, 2**16 // len(centers))  # a few MiB of pair temporaries
    diam = 0.0
    for i in range(0, len(centers), rows):
        d2 = sum((centers[i:i + rows, k, None] - centers[:, k]) ** 2 for k in range(n))
        diam = max(diam, float(np.sqrt(d2).max()))
    return diam + raster.h * math.sqrt(n)


def isodiametric_check(raster: RasterSet) -> tuple[float, float]:
    """(measure, isodiametric bound omega_n (diam/2)^n); measure <= bound."""
    measure = lebesgue_measure(raster)
    d = raster_diameter(raster)
    bound = omega(raster.ndim) * (d / 2) ** raster.ndim
    return measure, bound


def lipschitz_image_bound_check(
    f,
    lipschitz_const: float,
    cloud: PointCloud,
    s: float,
    delta: float,
) -> tuple[float, float]:
    """Premeasure of f(E) at L*delta against L^s times the premeasure of E.

    ``f`` maps an (N, n) array of points to an (N, n') array.  When
    L*delta is 0 (L = 0, or a product below the smallest double) there is
    no cover of that size; the image side is then H^s of the finite image,
    which is exact: 0 for s > 0 and its number of distinct points for
    s = 0 (one point for a constant f).
    """
    _check_real("Lipschitz constant", lipschitz_const, 0)
    premeasure = premeasure_delta(cloud, s, delta)
    try:
        bound = lipschitz_const**s * premeasure
    except OverflowError:  # L^s alone leaves the float range: L^s H^s_delta(E) in logs
        try:
            bound = 0.0 if premeasure == 0 else math.exp(
                s * math.log(lipschitz_const) + math.log(premeasure))
        except OverflowError:
            raise ValueError(f"L^s H^s_delta at L = {lipschitz_const}, s = {s} "
                             "passes the float range") from None
    image = PointCloud(f(cloud.points))
    if delta * lipschitz_const == 0:
        return (0.0 if s > 0 else float(_distinct_rows(image.points))), bound
    return premeasure_delta(image, s, delta * lipschitz_const), bound
