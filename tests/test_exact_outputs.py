"""Exact (==) reference outputs of the geometry and lattice kernels.

The expected geometry values come from the straightforward forms of
these kernels: the half-open simplex test of the piecewise-linear
interpolant run one y and one simplex at a time for every multiplicity
count (ties broken as for y + (eps, eps^2), so a y on the polar seam or on
the image of r = 1 counts 0, and z^2 at its critical value 0 counts 2),
and ``len(np.unique(idx, axis=0))`` for occupied boxes.  The lattice
values come from a bump evaluated twice per cell (once for the value,
once for the gradient) and from densities counted on a thresholded copy
of the whole grid.  The current kernels
must reproduce every value bit for bit, so no tolerance is used here.
"""

import json
import math

import numpy as np
import pytest

from conftest import z_squared_map
from gmtkit import area as ar
from gmtkit import hausdorff as hd
from gmtkit import measures as ms
from gmtkit import pointwise as pw
from gmtkit import smoothing as sm
from gmtkit import sobolev_bv as sb
from gmtkit.grids import GridFunction, RasterSet


Z_SQUARED = z_squared_map([-1.0, -1.0], [1.0, 1.0])


def _polar_half_disk_raster():
    h = 2 * math.pi / 64
    return RasterSet.from_predicate(lambda r, t: r < 0.5, [0.0, -math.pi], [64, 64], h)


def test_jacobian_l1_exact():
    assert ar.jacobian_l1_check(ar.builtin_map("polar")) == (
        3.141592653589793, 3.160120125603282
    )
    assert ar.jacobian_l1_check(Z_SQUARED) == (10.6640625, 10.66373600307574)
    assert ar.jacobian_l1_check(ar.builtin_map("polar"), E=_polar_half_disk_raster()) == (
        0.7370777685790506, 0.7646814742435749
    )


@pytest.mark.parametrize(
    "phi, y, restricted, counts",
    [
        # the seam theta = +-pi and the image of r = 1 lie outside the
        # open domain's image; z^2 at 0 is a critical value
        (ar.builtin_map("polar"), [-0.5, 0.0], False, (0, 0)),
        (ar.builtin_map("polar"), [-0.5, 0.0], True, (0, 0)),
        (ar.builtin_map("polar"), [1.0, 0.0], False, (0, 0)),
        (ar.builtin_map("polar"), [1.0, 0.0], True, (0, 0)),
        (Z_SQUARED, [0.25, -0.3], False, (2, 2)),
        (Z_SQUARED, [0.0, 0.0], False, (2, 2)),
        (ar.builtin_map("square"), [0.25], False, (2, 2)),
    ],
)
def test_multiplicity_profiles_exact(phi, y, restricted, counts):
    E = _polar_half_disk_raster() if restricted else None
    prof = ar.multiplicity(phi, y, E=E, depths=range(2, 9))
    assert prof.counts == counts
    assert prof.count == counts[-1] and prof.stabilized


def test_box_counts_exact():
    corners = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, math.sqrt(3) / 4]])
    shift = np.array([0.3, 0.7])
    sierpinski = hd.ifs_points(hd.IfsSystem(
        maps=tuple(hd.SimilarityMap(0.5, b + 0.5 * shift) for b in corners), depth=9
    ))
    assert hd.box_counts(sierpinski, hd.default_scales(3, 7)).tolist() == [
        41.75, 120.875, 358.25, 1047.625, 3005.5
    ]

    n = 128
    axis = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = hd.PointCloud(np.stack([gx.ravel(), gy.ravel()], axis=1) + np.array([0.2, 0.6]) / n)
    assert hd.box_counts(grid, hd.default_scales(4, 7)).tolist() == [
        284.8125, 1072.625, 4160.3125, 16384.0
    ]

    cantor = hd.ifs_points(hd.IfsSystem.from_json(json.dumps({
        "maps": [{"ratio": 1 / 3, "offset": [b + 0.2]} for b in (0.0, 2 / 3)],
        "depth": 12,
    })))
    assert hd.box_counts(cantor, hd.default_scales(3, 10)).tolist() == [
        7.375, 11.125, 17.5, 26.9375, 41.25, 65.6875, 99.3125, 153.8125
    ]


def test_premeasure_delta_exact():
    cloud = hd.PointCloud(np.random.default_rng(3).random((4000, 2)))
    got = []
    for s in (0.5, 1.0, 1.5):
        got += [hd.premeasure_delta(cloud, s, d, refine_floor=2.0**-8) for d in (0.4, 0.2, 0.1)]
        got.append(hd.premeasure_delta(cloud.scale(0.6), s, 0.06))
    assert got == [
        9.880953887567335, 27.947557993961773, 79.04763110053868, 56.47808806640119,
        5.65685424949238, 11.31370849898476, 21.46731993508534, 13.319999999999999,
        1.4483972687492914, 1.4483972687492914, 1.4483972687492914, 2.9617759493296574,
    ]

    cloud3 = hd.PointCloud(np.random.default_rng(5).random((20000, 3)))
    got3 = [hd.premeasure_delta(cloud3, s, d, refine_floor=2.0**-8)
            for s in (0.5, 1.5) for d in (0.4, 0.1)]
    assert got3 == [247.43245705354943, 1707.494565516012, 10.097199978333075, 10.097199978333075]


def test_one_dimensional_multiplicity_scans_exact():
    E = RasterSet.from_predicate(lambda x: x < 0.6, [0.0], [100], 0.01)
    fold3 = ar.builtin_map("fold", laps=3)
    assert ar.area_formula_with_multiplicity(fold3, n_y=8192) == (
        2.9992187500000003, 2.99951171875
    )
    assert ar.area_formula_with_multiplicity(fold3, E=E, n_y=2048) == (
        1.7993164062500002, 1.800048828125
    )
    fold2 = ar.builtin_map("fold", laps=2)
    assert ar.change_of_variables(fold2, lambda p: p[:, 0], n_y=1024) == (
        1.0, 0.9998534321581198
    )
    assert ar.change_of_variables(fold2, lambda p: p[:, 0], E=E, n_y=1024) == (
        0.36011719703674316, 0.3606345486343966
    )


def test_surface_measure_on_raster_exact():
    cap = RasterSet.from_predicate(lambda th, ph: th < 1.0, [0.0, 0.0], [32, 64], math.pi / 32)
    assert ar.surface_measure(ar.builtin_map("sphere"), cap, m=64) == 2.792434577038275
    assert ar.surface_measure(ar.builtin_map("polar"), _polar_half_disk_raster(), m=64) == (
        0.7690357016600015
    )


def test_full_resolution_cell_sums_exact():
    # the default resolutions, several blocks of cell rows per sum; the
    # values are those of the whole-array sum with det of the Gram matrices
    polar = ar.builtin_map("polar")
    assert ar.surface_measure(ar.builtin_map("sphere")) == 12.566370614272584
    assert ar.surface_measure(polar) == 3.141592653589793
    assert ar.change_of_variables(polar, lambda p: np.ones(len(p)))[0] == 3.141592653589793
    assert ar.change_of_variables(polar, lambda p: p[:, 0] ** 2)[0] == 1.5707933307386701
    assert ar.curve_length(ar.builtin_map("helix")) == 1.4142135623730951


def test_partition_variation_sup_exact():
    rng = np.random.default_rng(3)
    measures = [ms.AtomicMeasure(tuple(range(10)), rng.standard_normal((10, m))) for m in (1, 2, 3)]
    assert [ms.partition_variation_sup(mu) for mu in measures] == [
        12.690830160464552, 9.630019524254621, 15.784844605574408
    ]


def test_linear_image_measure_shear_exact():
    disk = RasterSet.from_predicate(lambda x, y: x**2 + y**2 < 0.25, [-1, -1], [40, 40], 0.05)
    assert hd.linear_image_measure_check(disk, [[1.0, 0.7], [0.0, 1.0]]) == (
        0.7950000000000002, 0.7900000000000001
    )


def test_two_dimensional_change_of_variables_exact():
    polar = ar.builtin_map("polar")
    u = lambda p: p[:, 0] ** 2
    assert ar.change_of_variables(polar, u) == (1.5707933307386701, 1.5703753641632956)
    assert ar.change_of_variables(polar, u, E=_polar_half_disk_raster()) == (
        0.09072593911095791, 0.09025377340945248
    )


def test_density_ratios_at_boundary_exact():
    half = RasterSet.from_predicate(lambda x, y: x < 0.0, [-1, -1], [64, 64], 2 / 64)
    assert pw.density(half, [0.0, 0.1]).ratios.tolist() == [
        0.5007893912898346, 0.5041058773248666, 0.49273506806189965, 0.4851545285532551
    ]


def test_central_difference_jacobians_exact():
    at_a = [[0.9210609940302206, -0.27259283957858926], [0.38941834229477834, 0.6447426957878477]]
    J, det = pw.jacobian_fd(
        lambda p: np.array([p[0] * math.cos(p[1]), p[0] * math.sin(p[1])]), [0.7, 0.4]
    )
    assert J.tolist() == at_a
    assert det == 0.6999999999861998
    polar = ar.builtin_map("polar")
    no_jacobian = ar.ParametricMap(polar.evaluator, polar.domain_lo, polar.domain_hi, n=2)
    assert no_jacobian.jacobian_at(np.array([[0.7, 0.4], [0.2, -2.0]]), 1e-6).tolist() == [
        at_a,
        [[-0.41614683654600526, 0.1818594853736366], [-0.9092974268265497, -0.08322936731475217]],
    ]


def test_divergence_sup_variation_exact():
    bump = GridFunction.from_callable(
        lambda x, y: np.exp(-12 * ((x - 0.45) ** 2 + (y - 0.55) ** 2)), [0.0, 0.0], [64, 64], 1 / 64
    )
    assert sb.variation_nd(bump, "divergence-sup").tv == 0.5868858551612125


def test_dyadic_cube_oscillations_and_corners_exact():
    f = GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) * np.cos(2 * y) + (x > 0.3), [0.0, 0.0], [96, 96], 1 / 96
    )
    assert sb.bmo_seminorm(f) == 0.6781672043466986
    g = GridFunction.from_callable(
        lambda x, y: np.log(np.abs(x) + 0.01) * (1 + y * y), [-0.37, 0.21], [64, 80], 0.013
    )
    assert sb.bmo_seminorm(g) == 1.5256894937069347
    # corners origin + i*h on a non-dyadic origin and spacing
    cubes = sb.dyadic_cubes(GridFunction(np.zeros((9, 7)), [0.3, -1.7], 0.1), 3)
    assert [(lo.tolist(), side) for lo, side in cubes] == [
        ([0.3, -1.7], 0.7000000000000001), ([0.3, -1.7], 0.4), ([0.7, -1.7], 0.4),
        ([0.3, -1.7], 0.2), ([0.3, -1.5], 0.2), ([0.3, -1.2999999999999998], 0.2),
        ([0.5, -1.7], 0.2), ([0.5, -1.5], 0.2), ([0.5, -1.2999999999999998], 0.2),
        ([0.7, -1.7], 0.2), ([0.7, -1.5], 0.2), ([0.7, -1.2999999999999998], 0.2),
        ([0.9000000000000001, -1.7], 0.2), ([0.9000000000000001, -1.5], 0.2),
        ([0.9000000000000001, -1.2999999999999998], 0.2),
    ]


def test_mollified_lattice_exact():
    f = GridFunction.from_callable(lambda x, y: np.sin(3 * x) * y, [-0.37, 0.21], [40, 48], 0.013)
    g = sm.mollify(f, sm.make_standard_mollifier(2, 0.05))
    assert g.origin.tolist() == [-0.331, 0.249]
    assert g.extents == (34, 42)
    assert float(g.values.sum()) == -223.91821464471178
    assert g.values[3, 5] == -0.24179704567460766


def test_weak_derivative_residuals_exact():
    x_plus = GridFunction.from_callable(lambda x: np.maximum(x, 0.0), [-1.0], [2000], 1e-3)
    heaviside = GridFunction.from_callable(lambda x: (x > 0).astype(float), [-1.0], [2000], 1e-3)
    battery = sm.TestFunctionBattery.seeded([-1.0], [1.0], count=12, seed=7)
    assert sm.weak_derivative_residual(x_plus, heaviside, 0, battery) == 1.782532064453779e-07

    def grid(fn):
        return GridFunction.from_callable(fn, [0.0, 0.0], [96, 96], 1 / 96)

    f = grid(lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    dx = grid(lambda x, y: 3 * np.cos(3 * x) * np.cos(2 * y))
    dy = grid(lambda x, y: -2 * np.sin(3 * x) * np.sin(2 * y))
    battery = sm.TestFunctionBattery.seeded([0.0, 0.0], [1.0, 1.0], count=8, seed=3)
    assert [sm.weak_derivative_residual(f, g, axis, battery)
            for g, axis in ((dx, 0), (dy, 1), (dy, -1))] == [
        4.448442760393231e-06, 1.0349615621289832e-05, 1.0349615621289832e-05
    ]


def test_approx_limits_exact():
    smooth = GridFunction.from_callable(
        lambda x, y: 0.2 * np.sin(x) + 0.15 * y * y, [-1.0, -1.0], [128, 128], 2 / 128
    )
    assert pw.approx_limit(smooth, [0.1, -0.2], radii=[0.32, 0.16, 0.08]) == 0.02601470509758843
    assert pw.approx_limit(smooth, [0.1, -0.2]) == 0.026029766665633433
    jump = GridFunction.from_callable(
        lambda x, y: np.sin(x) + (x >= 0.0), [-1.0, -1.0], [128, 128], 2 / 128
    )
    assert pw.approx_limit(jump, [0.0, 0.1]) is None
    assert pw.approx_limit(jump, [0.0, 0.1], radii=[0.32, 0.16, 0.08]) is None


def test_approx_limit_of_thin_band_through_bisection_exact():
    # the median candidate 1 fails (the band has density zero at resolved
    # radii), so the value is the midpoint of the limsup and liminf, both 0
    h = 1 / 1024
    band = GridFunction.from_callable(
        lambda x, y: (np.abs(y) < 4 * h).astype(float), [-0.5, -0.5], [1024, 1024], h
    )
    assert pw.approx_limit(band, [0.0, 0.0]) == 0.0


def _jump_field():
    return GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) * np.cos(2 * y) + (x > 0.25), [-1.0, -1.0], [96, 96], 2 / 96
    )


def test_lebesgue_point_averages_exact():
    f = _jump_field()
    assert pw.lebesgue_point_check(f, [0.1, -0.3])[0].tolist() == [
        0.7839294759378419, 0.5009889228809274, 0.15884593588893584, 0.07545281317301869
    ]
    assert pw.lebesgue_point_check(f, [0.25, 0.2], radii=[0.2, 0.6, 0.1])[0].tolist() == [
        0.6758802842596006, 0.9416985309364932, 0.5889908906857224
    ]


def test_pointwise_lipschitz_exact():
    f = _jump_field()
    assert pw.pointwise_lipschitz(f, [0.1, -0.3]) == 2.4445018587703284
    # 0.015 is under h = 1/48, so its shell holds no sample but x's own
    radii = [0.4, 0.2, 0.1, 0.05, 0.015]
    assert pw.pointwise_lipschitz(f, [0.1, -0.3], radii=radii) == 2.4325041218009162


def test_density_ratios_in_one_and_three_dimensions_exact():
    line = RasterSet.from_predicate(
        lambda x: (x > 0.3) | (np.abs(x + 0.4) < 0.05), [-1.0], [1000], 0.002
    )
    assert pw.density(line, [-0.38], radii=[0.01, 0.1, 0.03, 0.3]).ratios.tolist() == [
        1.0, 0.5000000000000001, 1.0, 0.1666666666666667
    ]
    ball = RasterSet.from_predicate(
        lambda x, y, z: x * x + y * y + z * z < 0.25, [-0.6] * 3, [48] * 3, 1.2 / 48
    )
    assert pw.density(ball, [0.5, 0.0, 0.0], radii=[0.1, 0.3, 0.2]).ratios.tolist() == [
        0.5222271570202814, 0.38683493112613454, 0.4327025015310903
    ]
