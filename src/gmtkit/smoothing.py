"""Mollifier kernels, mollification, weak-derivative verification.

The standard kernel C(n) exp(1/(|x|^2 - 1)) is normalized by radial
Gauss-Legendre quadrature; kernel mass can be cross-checked by an
independent tensor-product rule.  Mollified outputs live on the shrunken
domain where the full kernel support fits (no padding).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnderResolvedKernelError, _check_count, _check_real
from .grids import GridFunction, tensor_points
from .hausdorff import omega
from .pointwise import gradient_fd

__all__ = [
    "MollifierKernel",
    "TestFunctionBattery",
    "BatteryError",
    "make_standard_mollifier",
    "make_ball_mollifier",
    "mollify",
    "difference_quotient",
    "weak_derivative_residual",
    "mollify_commutes_with_weak_derivative",
    "bump_value",
    "bump_grad",
]


class BatteryError(ValueError):
    """A test-function support escapes the domain."""


def _unscaled_standard(r2: np.ndarray) -> np.ndarray:
    """exp(1/(r^2 - 1)) on r^2 < 1, 0 outside (unnormalized)."""
    out = np.zeros_like(r2, dtype=float)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


@functools.lru_cache(maxsize=32)
def _gauss_legendre(a: float, b: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes``-point Gauss-Legendre rule on [a, b]: numpy's
    ``leggauss`` nodes (Jacobi-matrix eigenvalues, after Golub-Welsch, with
    one Newton step) and weights mapped from [-1, 1], cached and read-only
    (every caller shares the same arrays)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class MollifierKernel:
    """Nonnegative even unit-mass kernel supported in B(0, eps), with an int n >= 1 and eps > 0."""

    kind: str  # "standard" | "ball-indicator"
    n: int
    eps: float
    normalization: float

    def __post_init__(self):
        _check_count("n", self.n, 1, "axis")
        _check_real("eps", self.eps)

    def unscaled(self, pts: np.ndarray) -> np.ndarray:
        """phi on the unit ball; pts has shape (..., n)."""
        r2 = (np.asarray(pts, dtype=float) ** 2).sum(axis=-1)
        if self.kind == "standard":
            return self.normalization * _unscaled_standard(r2)
        return np.where(r2 < 1.0, self.normalization, 0.0)

    def scaled(self, pts: np.ndarray) -> np.ndarray:
        """phi_eps(x) = eps^-n phi(x / eps)."""
        return self.unscaled(np.asarray(pts, dtype=float) / self.eps) / self.eps**self.n

    def mass(self, nodes: int = 96) -> float:
        """Independent tensor-product Gauss-Legendre integral of phi."""
        x, w = _gauss_legendre(-1.0, 1.0, nodes)
        vals = self.unscaled(tensor_points([x] * self.n)).reshape((nodes,) * self.n)
        for _ in range(self.n):
            vals = vals @ w
        return float(vals)


def _standard_normalization(n: int, nodes: int = 64) -> float:
    # integral over the unit ball in spherical shells: n*omega_n*r^(n-1) dr
    r, w = _gauss_legendre(0.0, 1.0, nodes)
    integral = n * omega(n) * float((w * np.exp(1.0 / (r**2 - 1.0)) * r ** (n - 1)).sum())
    return 1.0 / integral


def make_standard_mollifier(n: int, eps: float) -> MollifierKernel:
    _check_count("n", n, 1, "axis")  # before the normalization uses it; the kernel checks eps
    return MollifierKernel("standard", n, eps, _standard_normalization(n))


def make_ball_mollifier(n: int, eps: float) -> MollifierKernel:
    _check_count("n", n, 1, "axis")
    return MollifierKernel("ball-indicator", n, eps, 1.0 / omega(n))


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c that is at least n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_convolve_valid(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid-mode linear convolution of ``a`` with a kernel ``k`` no longer
    than ``a`` on any axis: real FFTs on numpy.fft, padded to 5-smooth
    lengths, product, inverse, then the valid slice."""
    # valid output j in [s2 - 1, s1 - 1] sums a[j - i] k[i] over 0 <= i < s2,
    # and 0 <= j - i <= s1 - 1, so a cyclic convolution of any length
    # L >= s1 forms the same sums: no term of the valid slice wraps around
    axes = tuple(range(a.ndim))
    fshape = [_next_fast_len(s1) for s1 in a.shape]
    spectrum = np.fft.rfftn(a, s=fshape, axes=axes) * np.fft.rfftn(k, s=fshape, axes=axes)
    full = np.fft.irfftn(spectrum, s=fshape, axes=axes)
    return full[tuple(slice(s2 - 1, s1) for s1, s2 in zip(a.shape, k.shape))].copy()


def mollify(f: GridFunction, kernel: MollifierKernel, eps: float | None = None) -> GridFunction:
    """Discrete convolution f * phi_eps, restricted to the shrunken domain.

    The sampled kernel is renormalized to unit discrete mass so constants
    mollify to themselves exactly.  A kernel wider than the grid on any
    axis is a ValueError: the shrunken domain would be empty.
    """
    if eps is not None:
        kernel = MollifierKernel(kernel.kind, kernel.n, eps, kernel.normalization)
    eps, h = kernel.eps, f.h
    if eps < 2 * h:
        raise UnderResolvedKernelError(f"eps = {eps} must be at least 2h = {2 * h}")
    kr = f._to_cells(eps, rounding=np.ceil) - 1  # cells on each side of the kernel's center
    if min(f.extents) < 2 * kr + 1:
        raise ValueError(f"eps = {eps} makes the kernel wider than the grid's {f.extents}")
    offsets = np.arange(-kr, kr + 1) * h
    K = kernel.scaled(tensor_points([offsets] * f.ndim)).reshape((offsets.size,) * f.ndim)
    K /= f._midpoint_sum(K)
    # K is even, so convolution and correlation coincide
    out = _fft_convolve_valid(f.values, K) * f._weight
    return GridFunction(values=out, origin=f._corner(kr), h=h)


def difference_quotient(f: GridFunction, axis: int, step: float) -> GridFunction:
    """(f(x - step e_i) - f(x)) / step on the cells where both terms exist."""
    h = f.h
    f._check_axis(axis)
    _check_real("|step|", abs(step), h)  # at least one cell
    s = f._to_cells(step, rounding=np.rint)
    vals = f.values
    n = vals.shape[axis]
    if abs(s) >= n:
        raise ValueError("step exceeds the domain")
    if not math.isclose(s * h, step, rel_tol=1e-9):
        raise ValueError("step must be a lattice multiple of the spacing")
    # either sign: x runs over cells lo .. n + hi - 1 and x - s e_i over -hi .. n - lo - 1
    lo, hi = max(s, 0), min(s, 0)
    idx_cur, idx_back = [slice(None)] * f.ndim, [slice(None)] * f.ndim
    idx_cur[axis], idx_back[axis] = slice(lo, n + hi), slice(-hi, n - lo)
    dq = (vals[tuple(idx_back)] - vals[tuple(idx_cur)]) / (s * h)
    origin = f.origin.copy()
    origin[axis] += lo * h
    return GridFunction(values=dq, origin=origin, h=h)


def _bump(pts: np.ndarray, center: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The bump exp(1/(u^2 - 1)), u = |x - c| / r, and its analytic
    gradient, shape (..., n), from one evaluation of u^2 and the exp."""
    d = (np.asarray(pts, dtype=float) - center) / radius
    u2 = (d**2).sum(axis=-1)
    phi = _unscaled_standard(u2)
    denom = np.where(u2 < 1.0, (u2 - 1.0) ** 2, 1.0)
    scale = np.where(u2 < 1.0, -2.0 * phi / denom, 0.0)
    return phi, scale[..., None] * d / radius


def _lattice_bump(
    f: GridFunction, center: np.ndarray, radius: float, axis: int
) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray, np.ndarray]:
    """``_bump`` at the cell centers of f's lattice, evaluated only where
    the bump lives.

    Returns ``(window, inside, phi, grad)``: ``window`` slices the ball
    window ``f._ball_window(c, r)``, ``inside`` marks the window cells with
    u^2 < 1, and ``phi`` and ``grad`` hold the bump and its ``axis``
    partial at those cells, in row-major order.  Every other cell of the grid is 0 in both.  The
    per-axis offsets and the axis-order sum of their squares are the
    floats ``_bump`` computes from ``f.points()``, so the values are the
    same to the bit.
    """
    window, offsets = f._ball_window(center, radius)
    d = [dk / radius for dk in offsets]
    u2 = sum(dk**2 for dk in d)
    inside = u2 < 1.0
    u2 = u2[inside]
    phi = np.exp(1.0 / (u2 - 1.0))
    offset = np.broadcast_to(d[axis], inside.shape)[inside]
    return window, inside, phi, -2.0 * phi / (u2 - 1.0) ** 2 * offset / radius


def bump_value(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Unnormalized smooth bump exp(1/(u^2 - 1)), u = |x - c| / r."""
    return _bump(pts, center, radius)[0]


def bump_grad(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Analytic gradient of bump_value, shape (..., n)."""
    return _bump(pts, center, radius)[1]


@dataclass(frozen=True)
class TestFunctionBattery:
    """Seeded family of compactly supported smooth bumps with analytic grads."""

    centers: np.ndarray  # (count, n)
    radii: np.ndarray  # (count,)
    seed: int

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @classmethod
    def seeded(
        cls,
        box_lo: Sequence[float],
        box_hi: Sequence[float],
        count: int = 12,
        seed: int = 42,
    ) -> "TestFunctionBattery":
        lo = np.asarray(box_lo, dtype=float)
        hi = np.asarray(box_hi, dtype=float)
        _check_count("count", count, 1, "bump")
        rng = np.random.default_rng(seed)
        centers, radii = [], []
        for _ in range(count):
            c = lo + (0.25 + 0.5 * rng.random(lo.shape)) * (hi - lo)
            margin = float(min(np.minimum(c - lo, hi - c).min(), (hi - lo).min() / 2))
            radii.append(margin * (0.4 + 0.5 * rng.random()))
            centers.append(c)
        return cls(np.array(centers), np.array(radii), seed)

    def value(self, i: int, pts: np.ndarray) -> np.ndarray:
        return bump_value(pts, self.centers[i], float(self.radii[i]))

    def grad(self, i: int, pts: np.ndarray) -> np.ndarray:
        return bump_grad(pts, self.centers[i], float(self.radii[i]))

    def to_json(self) -> str:
        return json.dumps(
            {"centers": self.centers.tolist(), "radii": self.radii.tolist(), "seed": self.seed}
        )

    @classmethod
    def from_json(cls, text: str) -> "TestFunctionBattery":
        data = json.loads(text)
        return cls(np.array(data["centers"]), np.array(data["radii"]), int(data["seed"]))


def weak_derivative_residual(
    f: GridFunction,
    g: GridFunction,
    axis: int,
    battery: TestFunctionBattery,
) -> float:
    """max_i | int phi_i g + int (d phi_i / dx_axis) f |  (midpoint sums).

    A small residual certifies g as the weak partial derivative of f on
    the grid.  A non-finite bump, or one that leaves the box, is a BatteryError.
    """
    f._check_same_lattice(g, "candidate must share the lattice of f")
    f._check_axis(axis)
    lo, hi = f._box()
    worst = 0.0
    for i, (c, r) in enumerate(zip(battery.centers, battery.radii)):
        if not (np.all(np.isfinite(c)) and 0 < r < math.inf):
            raise BatteryError(f"bump {i} needs a finite center and a finite radius > 0")
        if np.any(c - r < lo) or np.any(c + r > hi):
            raise BatteryError(f"bump {i} support escapes the domain")
        window, inside, phi_in, grad_in = _lattice_bump(f, c, float(r), axis)
        residual = abs(f._midpoint_sum(phi_in * g.values[window][inside])
                       + f._midpoint_sum(grad_in * f.values[window][inside]))
        worst = max(worst, residual)
    return worst


def mollify_commutes_with_weak_derivative(
    f: GridFunction,
    g: GridFunction,
    kernel: MollifierKernel,
    axis: int = 0,
) -> float:
    """sup over the doubly-shrunken domain of |d_axis(f_eps) - (g)_eps|."""
    f._check_same_lattice(g, "candidate must share the lattice of f")
    f._check_axis(axis)
    f_eps = mollify(f, kernel)
    # drop another kernel radius so one-sided stencils never enter
    kr = f._to_cells(kernel.eps, rounding=np.ceil) - 1
    if min(f_eps.extents) <= 2 * kr:
        raise ValueError(
            f"eps = {kernel.eps} leaves no cell of the doubly-shrunken domain: "
            f"the grid needs at least {4 * kr + 1} cells per axis, has {f.extents}"
        )
    g_eps = mollify(g, kernel)
    d_f_eps = gradient_fd(f_eps)[axis]
    sl = tuple(slice(kr, s - kr) for s in f_eps.extents)
    return float(np.abs(d_f_eps[sl] - g_eps.values[sl]).max())
