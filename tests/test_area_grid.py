"""The builtin maps' tensor-grid path against the point path they replace.

A builtin map evaluates its formula once per axis value on the tensor grids
of the cell sums and preimage scans; the same map rebuilt from its
evaluator and jacobian is called on (N, k) point blocks.  Every output must
keep its bits, so each comparison is ``==``.  The equality rests on sin and
cos giving the same bits for a contiguous per-axis array and a strided
column; CI reruns this file with numpy's dispatched SIMD loops switched off.
"""

import math

import numpy as np
import pytest

from gmtkit import area as ar
from gmtkit.grids import RasterSet, tensor_points

pytestmark = pytest.mark.bits

_BUILTINS = {
    "helix": ar.builtin_map("helix", lo=-1.0, hi=2.5),
    "polar": ar.builtin_map("polar", r_hi=1.5),
    "sphere": ar.builtin_map("sphere"),
    "fold": ar.builtin_map("fold", laps=3),
    "fold-1": ar.builtin_map("fold", laps=1),
    "square": ar.builtin_map("square"),
    "square-0": ar.builtin_map("square", lo=0.0, hi=2.0),
}


def _point_path(phi):
    """phi rebuilt from its evaluator and jacobian: called on point blocks only."""
    return ar.ParametricMap(phi.evaluator, phi.domain_lo, phi.domain_hi, phi.n,
                            jacobian=phi.jacobian, injective=phi.injective)


def _odd_axes(phi, rng, extents=(13, 7)):
    """Sorted random coordinates inside phi's domain, odd counts per axis."""
    return [np.sort(rng.uniform(lo, hi, e))
            for lo, hi, e in zip(phi.domain_lo, phi.domain_hi, extents)]


def _raster(phi):
    """A raster of phi's domain holding about half its cells."""
    lo, hi = phi.domain_lo, phi.domain_hi
    h = float((hi - lo).max()) / 16
    extents = [int(math.ceil(w / h)) for w in hi - lo]
    return RasterSet.from_predicate(lambda *x: np.cos(7 * sum(x)) > 0, lo, extents, h)


def test_point_path_is_taken_by_rebuilt_maps_only():
    for phi in _BUILTINS.values():
        assert phi._columns is not None
        assert _point_path(phi)._columns is None


@pytest.mark.parametrize("name", list(_BUILTINS))
def test_grid_formula_keeps_the_point_bits(name):
    phi = _BUILTINS[name]
    axes = _odd_axes(phi, np.random.default_rng(len(name)))
    pts = tensor_points(axes)
    shape = tuple(len(ax) for ax in axes)
    assert phi._columns is not None
    got = phi._on_grid(axes)
    want = phi(pts)
    assert got.shape == want.shape == (len(pts), phi.n)
    assert np.all(got == want)
    _, jacobian = phi._columns
    if jacobian is not None:
        D = phi.jacobian_at(pts, 1e-3)
        for i, row in enumerate(jacobian(*np.ix_(*axes))):
            for j, entry in enumerate(row):
                assert np.all(np.broadcast_to(entry, shape).ravel() == D[:, i, j])
    for step in (1e-3, 0.25):
        got = phi._on_grid(axes, step)
        assert got.shape == (len(pts),)
        assert np.all(got == phi.j_at(pts, step))
        assert np.all(got == _point_path(phi)._on_grid(axes, step))


@pytest.mark.parametrize("block", [1, 67, ar._BLOCK_CELLS], ids=["one-row", "seams", "default"])
@pytest.mark.parametrize("name", list(_BUILTINS))
def test_blocked_cell_sums_keep_the_point_bits(name, block, monkeypatch):
    # m = 23 cells per axis: 67-cell blocks hold 2 rows of 23 (k = 2) and
    # leave a short last block; k = 1 takes m = 211, 3 blocks of 67 and 10
    phi = _BUILTINS[name]
    m = 23 if phi.k == 2 else 211
    monkeypatch.setattr(ar, "_BLOCK_CELLS", block)
    E, u = _raster(phi), (lambda p: 1.0 + p[:, 0] ** 2)
    for args in [(None, m), (E, m), (None, m, u), (E, m, u)]:
        assert ar._cell_sum(phi, *args) == ar._cell_sum(_point_path(phi), *args)


_SCANNABLE = [name for name, phi in _BUILTINS.items() if phi.k == phi.n]


@pytest.mark.parametrize("block", [1, 67, ar._BLOCK_CELLS], ids=["one-row", "seams", "default"])
@pytest.mark.parametrize("name", _SCANNABLE)
def test_blocked_preimage_sums_keep_the_point_bits(name, block, monkeypatch):
    phi = _BUILTINS[name]
    point = _point_path(phi)
    depth, n_y = (5, 15) if phi.k == 2 else (9, 65)
    monkeypatch.setattr(ar, "_BLOCK_CELLS", block)
    axes, cell = ar._y_grid(phi, n_y)
    want_axes, want_cell = ar._y_grid(point, n_y)
    assert cell == want_cell
    assert all(np.all(a == b) for a, b in zip(axes, want_axes))
    E, u = _raster(phi), (lambda p: np.cos(3 * p[:, 0]) + p[:, -1])
    for args in [(None, depth, axes), (E, depth, axes), (None, depth, axes, u)]:
        got, want = ar._preimage_sums(phi, *args), ar._preimage_sums(point, *args)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.count_nonzero(want) > 5


def _one(p):
    return np.ones(len(p))


def _r_squared(p):
    return p[:, 0] ** 2


@pytest.mark.parametrize("name", list(_BUILTINS))
def test_public_results_keep_the_point_bits(name):
    phi = _BUILTINS[name]
    point = _point_path(phi)
    calls = []
    if phi.injective:
        calls.append(lambda f: ar.surface_measure(f, m=64))
    if phi.k == phi.n:
        calls += [
            lambda f: ar.change_of_variables(f, _one, n_y=64, depth=6),
            lambda f: ar.change_of_variables(f, _r_squared, n_y=64, depth=6),
            lambda f: ar.jacobian_l1_check(f),
            lambda f: ar.multiplicity(f, f(f.domain_lo + 0.3 * (f.domain_hi - f.domain_lo))[0],
                                      depths=range(4, 9)).counts,
        ]
    assert calls
    for call in calls:
        assert call(phi) == call(point)


def test_polar_defaults_keep_the_point_bits():
    phi = ar.builtin_map("polar")
    point = _point_path(phi)
    for u in (_one, _r_squared):
        assert ar.change_of_variables(phi, u) == ar.change_of_variables(point, u)
    assert ar.surface_measure(ar.builtin_map("sphere")) == ar.surface_measure(
        _point_path(ar.builtin_map("sphere")))


def _recording(k):
    """A user map (k = n), its jacobian and a u that record every argument."""
    seen = []

    def record(p):
        seen.append(p)
        return p

    A = np.array([[1.0, 0.3], [-0.2, 1.1]])[:k, :k]
    phi = ar.ParametricMap(lambda p: np.sin(record(p)) + record(p) @ A.T, [0.0] * k, [1.0] * k,
                           n=k, jacobian=lambda p: np.cos(record(p))[:, :, None] * np.eye(k) + A)
    return phi, (lambda p: record(p)[:, 0] + 1.0), seen


@pytest.mark.parametrize("k", [1, 2])
def test_user_maps_get_only_point_blocks(k):
    phi, u, seen = _recording(k)
    E = _raster(phi)
    axes = ar._y_grid(phi, 9)[0]
    for call in [lambda: ar._cell_sum(phi, E, 37, u), lambda: ar._y_grid(phi, 9),
                 lambda: ar._preimage_sums(phi, E, 4, axes, u),
                 lambda: ar._preimage_sums(phi, None, 4, axes)]:
        seen.clear()
        call()
        assert seen
        for p in seen:
            assert type(p) is np.ndarray and p.dtype == np.float64
            assert p.ndim == 2 and p.shape[1] == k
