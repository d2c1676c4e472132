"""Uniform-lattice containers: scalar samples and boolean masks.

Samples live at cell centers: the i-th cell of axis d covers
``[origin[d] + i*h, origin[d] + (i+1)*h)`` and its sample point is the
midpoint.  Integrals are midpoint sums with cell weight ``h**n``.  Every
conversion between points and cells of that convention is made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import _check_real

__all__ = ["GridFunction", "RasterSet", "tensor_points"]


def _centers_1d(origin: float, stop: int, h: float, start: int = 0) -> np.ndarray:
    """Centers of the cells start .. stop - 1 of a lattice axis at ``origin``."""
    return origin + (np.arange(start, stop) + 0.5) * h


def _center_grids(origin: Sequence[float], extents: Sequence[int], h: float) -> list[np.ndarray]:
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    axes = [_centers_1d(origin[d], extents[d], h) for d in range(len(origin))]
    return list(np.meshgrid(*axes, indexing="ij"))


def tensor_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Points of the tensor grid ``axes[0] x ... x axes[k-1]`` in row-major
    order, shape (N, k)."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


class _Lattice:
    """Cell geometry shared by GridFunction and RasterSet, whose per-cell
    array is ``_cells``; points are (ndim,) or (..., ndim) float arrays."""

    def _check_lattice(self) -> None:
        """The one lattice rule: a finite origin per axis, finite h > 0, a cell per axis."""
        object.__setattr__(self, "origin", np.atleast_1d(np.asarray(self.origin, dtype=float)))
        _check_real("spacing", self.h)
        if self.origin.shape != (self.ndim,) or not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin {self.origin} must be finite, one coordinate per axis")
        if min(self.extents) < 1:
            raise ValueError("a lattice needs at least one cell per axis")

    def _check_axis(self, axis: int) -> None:
        """The one axis rule: an int in [-ndim, ndim)."""
        if not isinstance(axis, (int, np.integer)) or not -self.ndim <= axis < self.ndim:
            raise ValueError(f"axis {axis} out of range for a {self.ndim}-D grid")

    def _check_same_lattice(self, other: "_Lattice", message: str) -> None:
        """The one same-lattice rule: equal extents, origin and spacing."""
        if (other.extents, other.h) != (self.extents, self.h) or np.any(other.origin != self.origin):
            raise ValueError(message)

    @property
    def ndim(self) -> int:
        return self._cells.ndim

    @property
    def _weight(self) -> float:
        """The cell weight h^n of every midpoint sum; a ValueError past the float range."""
        try:
            return float(self.h) ** self.ndim
        except OverflowError:
            raise ValueError(f"spacing h = {self.h} makes the cell weight h^{self.ndim} "
                             "pass the float range") from None

    def _midpoint_sum(self, values: np.ndarray) -> float:
        """Midpoint sum over this lattice's cells: the sum of ``values`` times the cell weight."""
        return float(values.sum() * self._weight)

    @property
    def extents(self) -> tuple[int, ...]:
        return self._cells.shape

    def axis_centers(self, d: int) -> np.ndarray:
        return _centers_1d(self.origin[d], self.extents[d], self.h)

    def _point(self, x: Sequence[float]) -> np.ndarray:
        """One point as a float array; a wrong length or a non-finite coordinate is a ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ndim,):
            raise ValueError(f"a point of shape {x.shape} does not match a {self.ndim}-D lattice")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"point {x.tolist()} must be finite")
        return x

    def _to_cells(self, length, shift: float = 0.0, rounding=np.floor):
        """``rounding(length / h + shift)`` as ints (None: the float), for a length or
        a point's offset from the origin, clipped in float first to one cell past the
        box, |length| <= (max extent + 1) h, NaN to the low end: a far-off value lands
        past the box, no division or cast overflows, and inside the box no bit moves."""
        reach = (max(self.extents) + 1) * self.h
        t = np.fmin(np.fmax(length, -reach), reach) / self.h
        if shift:
            t = t + shift
        return t if rounding is None else rounding(t).astype(int)

    def _cell_index(self, x: np.ndarray) -> np.ndarray:
        """Index of the cell containing each point; below 0 or at least the extent outside."""
        return self._to_cells(x - self.origin)

    def _center(self, idx: np.ndarray) -> np.ndarray:
        """Center of each integer index, (..., ndim)."""
        return self._corner(idx + 0.5)

    def _corner(self, idx: np.ndarray | int) -> np.ndarray:
        """Lattice-line point origin + i*h of each index, (..., ndim)."""
        return self.origin + idx * self.h

    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the lattice box."""
        return self.origin, self._corner(np.array(self.extents))

    def _ball_window(self, x: np.ndarray, r: float) -> tuple[tuple[slice, ...], list[np.ndarray]]:
        """The cells floor((x - r - o)/h) .. ceil((x + r - o)/h) + 1 of each
        axis, clipped to the box, as slices, and per axis the offsets of
        their centers from x, shaped to broadcast over the window.  Only the
        window's own indices are built, never a whole axis."""
        ext, n = np.array(self.extents), self.ndim
        lo = np.clip(self._cell_index(x - r), 0, ext)
        hi = np.clip(self._to_cells(x + r - self.origin, rounding=np.ceil) + 1, 0, ext)
        return tuple(map(slice, lo, hi)), [
            (_centers_1d(self.origin[k], hi[k], self.h, lo[k]) - x[k]).reshape(
                (-1,) + (1,) * (n - 1 - k)) for k in range(n)
        ]

    def _cube_slices(self, lo: Sequence[float], side: float) -> tuple[slice, ...]:
        """Index slices of the cube with the given side at corner ``lo``, rounded
        to a lattice line; a cube that escapes the box or spans no cell is a
        ValueError."""
        i0 = self._to_cells(np.asarray(lo, dtype=float) - self.origin, 0.5)
        m = self._to_cells(side, rounding=np.rint)
        if m < 1:
            raise ValueError(f"cube side {side} spans no cell of spacing {self.h}")
        if np.any(i0 < 0) or np.any(i0 + m > np.array(self.extents)):
            raise ValueError("cube escapes the domain")
        return tuple(slice(a, a + m) for a in i0)


@dataclass(frozen=True)
class GridFunction(_Lattice):
    """Real samples on a uniform lattice over a box."""

    values: np.ndarray
    origin: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self._check_lattice()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("all samples must be finite")

    @property
    def _cells(self) -> np.ndarray:
        return self.values

    def meshgrid(self) -> list[np.ndarray]:
        return _center_grids(self.origin, self.extents, self.h)

    def points(self) -> np.ndarray:
        """All cell centers, shape (ncells, ndim)."""
        return tensor_points([self.axis_centers(d) for d in range(self.ndim)])

    @classmethod
    def from_callable(
        cls,
        fn: Callable[..., np.ndarray],
        origin: Sequence[float],
        extents: Sequence[int],
        h: float,
    ) -> "GridFunction":
        """Sample ``fn(x1, ..., xn)`` (vectorized) at cell centers."""
        values = np.asarray(fn(*_center_grids(origin, extents, h)), dtype=float)
        return cls(values=values, origin=origin, h=h)

    def integral(self) -> float:
        return self._midpoint_sum(self.values)

    def index_of(self, x: Sequence[float]) -> tuple[int, ...]:
        """Lattice index of the cell containing x (clipped to the box)."""
        idx = np.clip(self._cell_index(self._point(x)), 0, np.array(self.extents) - 1)
        return tuple(int(i) for i in idx)

    def value_at(self, x: Sequence[float]) -> float:
        return float(self.values[self.index_of(x)])

    def interpolate(self, x: Sequence[float]) -> float:
        """Multilinear interpolation between neighbouring cell centers."""
        d = self._point(x) - self.origin
        lo = self._to_cells(d, -0.5)
        frac = self._to_cells(d, -0.5, rounding=None) - lo
        ext = np.array(self.extents)
        val = 0.0
        for corner in np.ndindex(*([2] * self.ndim)):
            idx = np.clip(lo + np.array(corner), 0, ext - 1)
            w = np.prod(np.where(np.array(corner) == 1, frac, 1.0 - frac))
            val += w * self.values[tuple(idx)]
        return float(val)

    def to_csv(self, path) -> None:
        _write_lattice_csv(path, self.values, self.origin, self.h, fmt="%.17g")

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        values, origin, h = _read_lattice_csv(path)
        return cls(values=values, origin=origin, h=h)


@dataclass(frozen=True)
class RasterSet(_Lattice):
    """Boolean mask on a uniform lattice; a cell belongs to the set iff True."""

    mask: np.ndarray
    origin: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        self._check_lattice()

    @property
    def _cells(self) -> np.ndarray:
        return self.mask

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership of each row of an (N, ndim) point array: True iff the
        point lies in a member cell (cells are half-open, outside is False).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise ValueError(
                f"points of shape {points.shape} do not match a {self.ndim}-D raster"
            )
        idx = self._cell_index(points)
        inside = np.all((idx >= 0) & (idx < np.array(self.extents)), axis=1)
        member = np.zeros(len(points), dtype=bool)
        member[inside] = self.mask[tuple(idx[inside].T)]
        return member

    def true_centers(self) -> np.ndarray:
        """Centers of member cells, shape (count, ndim)."""
        return self._center(np.argwhere(self.mask))

    @classmethod
    def from_predicate(
        cls,
        pred: Callable[..., np.ndarray],
        origin: Sequence[float],
        extents: Sequence[int],
        h: float,
    ) -> "RasterSet":
        mask = np.asarray(pred(*_center_grids(origin, extents, h)), dtype=bool)
        return cls(mask=mask, origin=origin, h=h)

    def complement(self) -> "RasterSet":
        return RasterSet(mask=~self.mask, origin=self.origin, h=self.h)

    def to_csv(self, path) -> None:
        _write_lattice_csv(path, self.mask.astype(int), self.origin, self.h, fmt="%d")

    @classmethod
    def from_csv(cls, path) -> "RasterSet":
        values, origin, h = _read_lattice_csv(path)
        return cls(mask=values != 0, origin=origin, h=h)


_CSV_BLOCK_ROWS = 4096


def _write_csv_rows(fh, rows: np.ndarray, row_fmt: str) -> None:
    """Write each row of the 2-D array ``rows`` as ``row_fmt % tuple(row)``
    plus a newline: the bytes of ``np.savetxt`` with that format, written a
    fixed block of rows at a time instead of one row at a time."""
    line = row_fmt + "\n"
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        part = rows[start : start + _CSV_BLOCK_ROWS]
        fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def _write_lattice_csv(path, values: np.ndarray, origin: np.ndarray, h: float, fmt: str) -> None:
    dims = "x".join(str(s) for s in values.shape)
    org = ",".join("%.17g" % v for v in origin)
    with open(path, "w") as fh:
        fh.write(f"dims={dims};origin={org};h={h:.17g}\n")
        _write_csv_rows(fh, values.reshape(-1, 1), fmt)


def _read_lattice_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split(";"))
        shape = tuple(int(s) for s in fields["dims"].split("x"))
        origin = np.array([float(s) for s in fields["origin"].split(",")])
        h = float(fields["h"])
        flat = np.loadtxt(fh, ndmin=1)
    return flat.reshape(shape), origin, h
