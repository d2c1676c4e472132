import io
import math
import warnings

import numpy as np
import pytest

from gmtkit.grids import GridFunction, RasterSet, tensor_points


def test_cell_centers_are_midpoints():
    f = GridFunction(np.zeros(4), origin=[0.0], h=0.25)
    assert np.allclose(f.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_integral_is_midpoint_sum():
    # midpoint rule is exact for linear integrands
    f = GridFunction.from_callable(lambda x: 3.0 * x + 1.0, [0.0], [100], 0.01)
    assert f.integral() == pytest.approx(2.5, abs=1e-12)


def test_from_callable_2d_shapes():
    f = GridFunction.from_callable(lambda x, y: x + 10 * y, [0.0, 1.0], [4, 6], 0.5)
    assert f.extents == (4, 6)
    assert f.value_at([0.1, 1.1]) == pytest.approx(0.25 + 12.5)


@pytest.mark.parametrize("sample", [GridFunction.from_callable, RasterSet.from_predicate])
def test_sampled_lattices_take_a_scalar_origin_and_keep_the_lattice_rule(sample):
    lattice = sample(lambda x: x > 0.5, 0, [4], 0.25)
    assert lattice.origin.tolist() == [0.0]
    assert lattice.axis_centers(0).tolist() == [0.125, 0.375, 0.625, 0.875]
    with pytest.raises(ValueError, match="must be finite"):
        sample(lambda x: x > 0.5, [math.nan], [4], 0.25)


def test_index_of_and_value_at():
    f = GridFunction(np.arange(10, dtype=float), origin=[0.0], h=0.1)
    assert f.index_of([0.55]) == (5,)
    assert f.value_at([0.55]) == 5.0


def test_interpolate_linear_exact():
    f = GridFunction.from_callable(lambda x, y: 2 * x - y, [0.0, 0.0], [32, 32], 1 / 32)
    for p in ([0.3, 0.4], [0.51, 0.49], [0.125, 0.875]):
        assert f.interpolate(p) == pytest.approx(2 * p[0] - p[1], abs=1e-12)


def test_gridfunction_csv_roundtrip(tmp_path):
    f = GridFunction.from_callable(
        lambda x, y: np.sin(x) * y, [-1.0, 2.0], [7, 5], 0.3
    )
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = GridFunction.from_csv(path)
    assert g.h == f.h
    assert np.array_equal(g.origin, f.origin)
    assert np.array_equal(g.values, f.values)


def test_rasterset_csv_roundtrip(tmp_path):
    E = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 1.0, [-1.0, -1.0], [16, 16], 0.125
    )
    path = tmp_path / "e.csv"
    E.to_csv(path)
    F = RasterSet.from_csv(path)
    assert np.array_equal(E.mask, F.mask)
    assert F.h == E.h


def _savetxt_lattice_csv(values, origin, h, fmt):
    """The lattice CSV as np.savetxt writes it, one row per call."""
    buf = io.StringIO()
    dims = "x".join(str(s) for s in values.shape)
    org = ",".join("%.17g" % v for v in origin)
    buf.write(f"dims={dims};origin={org};h={h:.17g}\n")
    np.savetxt(buf, values.reshape(-1, 1), fmt=fmt)
    return buf.getvalue().encode()


@pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 3 * 4096 + 17])
def test_gridfunction_csv_bytes_match_savetxt(tmp_path, size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e300, -1e300, 1.0, -1 / 3]
    values[: len(special)] = special[:size]
    f = GridFunction(values, [-0.1], 1 / 3)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    assert path.read_bytes() == _savetxt_lattice_csv(f.values, f.origin, f.h, "%.17g")


@pytest.mark.parametrize("shape", [(1,), (70, 61), (4096,), (9, 23, 41)])
def test_rasterset_csv_bytes_match_savetxt(tmp_path, shape):
    mask = np.random.default_rng(len(shape)).random(shape) < 0.4
    E = RasterSet(mask, [0.25] * len(shape), 0.1)
    path = tmp_path / "e.csv"
    E.to_csv(path)
    assert path.read_bytes() == _savetxt_lattice_csv(E.mask.astype(int), E.origin, E.h, "%d")


def test_rasterset_complement_partitions():
    E = RasterSet.from_predicate(lambda x: x < 0.5, [0.0], [10], 0.1)
    C = E.complement()
    assert not np.any(E.mask & C.mask)
    assert np.all(E.mask | C.mask)


def test_true_centers():
    E = RasterSet(np.array([False, True, True]), origin=[0.0], h=1.0)
    assert np.allclose(E.true_centers(), [[1.5], [2.5]])


def test_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, np.nan]), origin=[0.0], h=0.1)


def test_rejects_bad_spacing():
    with pytest.raises(ValueError):
        GridFunction(np.zeros(3), origin=[0.0], h=0.0)


LATTICE_RULE_CASES = {
    "h=nan": ((4, 4), [0.0, 0.0], math.nan),
    "h=inf": ((4, 4), [0.0, 0.0], math.inf),
    "h=0": ((4, 4), [0.0, 0.0], 0.0),
    "h<0": ((4, 4), [0.0, 0.0], -0.1),
    "origin=nan": ((4, 4), [math.nan, 0.0], 0.1),
    "origin=inf": ((4, 4), [0.0, -math.inf], 0.1),
    "origin of wrong length": ((4, 4), [0.0], 0.1),
    "no rows": ((0, 8), [0.0, 0.0], 0.1),
    "no columns": ((8, 0), [0.0, 0.0], 0.1),
    "no cells 1-D": ((0,), [0.0], 0.1),
}


@pytest.mark.parametrize("lattice", [GridFunction, RasterSet])
@pytest.mark.parametrize("case", sorted(LATTICE_RULE_CASES))
def test_both_lattice_types_keep_one_lattice_rule(lattice, case):
    shape, origin, h = LATTICE_RULE_CASES[case]
    with pytest.raises(ValueError):
        lattice(np.zeros(shape), origin, h)


def test_far_off_and_non_finite_points_never_reach_an_int_cast():
    f = GridFunction.from_callable(lambda x, y: x + 2 * y, [0.0, 0.0], [16, 16], 1 / 16)
    E = RasterSet(f.values < 1.0, f.origin, f.h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.index_of([1e300, 0.5]) == f.index_of([100.0, 0.5]) == (15, 8)
        assert f.index_of([-1e300, -1e300]) == (0, 0)
        assert f.interpolate([1e300, 0.5]) == f.interpolate([100.0, 0.5])
        assert E.contains([[1e300, 0.5], [math.nan, 0.5], [0.1, math.inf], [0.1, 0.1]]).tolist() \
            == [False, False, False, True]
        for x in ([math.nan, 0.5], [0.5, math.inf]):
            with pytest.raises(ValueError, match="must be finite"):
                f.index_of(x)
            with pytest.raises(ValueError, match="must be finite"):
                f.interpolate(x)


def test_a_cell_weight_past_the_float_range_is_a_value_error():
    # h**ndim raised OverflowError; a weight inside the float range keeps its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1e308, np.float64(1e308)):
            with pytest.raises(ValueError, match=r"^spacing h = 1e\+308 makes the cell weight h\^2"):
                GridFunction(np.ones((2, 2)), [0, 0], h).integral()
        assert GridFunction(np.ones(1), [0], 1e308).integral() == 1e308
        assert GridFunction(np.ones((2, 2)), [0, 0], 0.1).integral() == 4 * 0.1**2
        assert GridFunction(np.ones((1, 1, 1)), [0, 0, 0], 1e-150).integral() == 0.0


@pytest.mark.filterwarnings("error")
def test_a_midpoint_sum_past_the_float_range_is_a_value_error():
    # the product with h^n and the sum itself overflowed with only a RuntimeWarning
    for f in (GridFunction(np.ones((2, 2)), [0, 0], 1e154),
              GridFunction(np.full((4, 4), 1e308), [0, 0], 0.25)):
        with pytest.raises(ValueError, match="passes the float range"):
            f.integral()
    assert GridFunction(np.ones((1, 1)), [0, 0], 1e154).integral() == 1e154**2
    assert GridFunction(np.full((2, 2), 1e307), [0, 0], 0.5).integral() == 1e307


def test_points_past_the_float_range_land_past_the_box():
    # (x - origin) / h overflowed for these points: the clip now comes before the division
    f = GridFunction.from_callable(lambda x, y: x + 2 * y, [0.0, 0.0], [16, 16], 1 / 16)
    E = RasterSet(f.values < 1.0, f.origin, f.h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.interpolate([1e308, 0.5]) == f.interpolate([100.0, 0.5]) == 1.96875
        assert f.interpolate([-1e308, -1e308]) == f.value_at([-1e308, -1e308]) == f.values[0, 0]
        assert f.index_of([1e308, -1e308]) == (15, 0)
        assert E.contains([[1e308, 0.5], [-1e308, 0.5], [0.1, 1e308]]).tolist() == [False] * 3


def test_raster_contains_is_cell_membership():
    E = RasterSet(mask=[[True, False], [False, True]], origin=[0.0, 0.0], h=0.5)
    pts = np.array([[0.1, 0.1], [0.1, 0.6], [0.75, 0.75], [0.5, 0.5], [1.0, 0.2], [-0.1, 0.1]])
    assert E.contains(pts).tolist() == [True, False, True, True, False, False]


def test_tensor_points_row_major():
    pts = tensor_points([np.array([0.0, 1.0]), np.array([5.0, 6.0, 7.0])])
    assert pts.tolist() == [[0, 5], [0, 6], [0, 7], [1, 5], [1, 6], [1, 7]]
