import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtkit import pointwise as pw
from gmtkit.errors import NonConvergenceError, ResolutionError
from gmtkit.grids import GridFunction, RasterSet


def ratio_function(x, y):
    """x^2 y / (x^2 + y^2), extended by 0 at the origin; degree-1 homogeneous."""
    denom = x**2 + y**2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, x**2 * y / np.where(denom > 0, denom, 1.0), 0.0)
    return out


# ------------------------------------------------------ directional derivatives


def test_directional_derivative_of_homogeneous_ratio():
    # the function is homogeneous of degree 1, so T(v) = f(v)
    d = pw.directional_derivative(ratio_function, [0.0, 0.0], [1.0, 1.0])
    assert d == pytest.approx(0.5, abs=1e-6)


def test_directional_derivative_additivity_defect():
    t10 = pw.directional_derivative(ratio_function, [0.0, 0.0], [1.0, 0.0])
    t01 = pw.directional_derivative(ratio_function, [0.0, 0.0], [0.0, 1.0])
    t11 = pw.directional_derivative(ratio_function, [0.0, 0.0], [1.0, 1.0])
    assert abs(t10 + t01 - t11) == pytest.approx(0.5, abs=1e-6)


def test_directional_derivative_smooth():
    d = pw.directional_derivative(
        lambda x, y: np.sin(x) * np.cos(y), [0.3, 0.2], [1.0, 0.0]
    )
    assert d == pytest.approx(math.cos(0.3) * math.cos(0.2), abs=1e-9)


def test_directional_derivative_no_limit():
    # sign(x) sqrt|x| has difference quotients ~ t^(-1/2): no finite limit
    with pytest.raises(NonConvergenceError):
        pw.directional_derivative(
            lambda x: np.sign(x) * np.sqrt(np.abs(x)), [0.0], [1.0]
        )


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        pw.directional_derivative(lambda x: x, [0.0], [0.0])


# --------------------------------------------------------------- fd operators


def test_gradient_fd_linear_exact():
    f = GridFunction.from_callable(lambda x, y: 3 * x - 2 * y, [0, 0], [32, 32], 1 / 32)
    g = pw.gradient_fd(f)
    assert np.allclose(g[0], 3.0, atol=1e-10)
    assert np.allclose(g[1], -2.0, atol=1e-10)


def test_jacobian_fd_polar():
    J, det = pw.jacobian_fd(
        lambda p: np.array([p[0] * math.cos(p[1]), p[0] * math.sin(p[1])]),
        [0.5, 0.3],
    )
    assert det == pytest.approx(0.5, abs=1e-8)
    assert J[0, 0] == pytest.approx(math.cos(0.3), abs=1e-8)


def test_jacobian_fd_rectangular_returns_no_det():
    J, det = pw.jacobian_fd(lambda p: np.array([p[0], p[0] ** 2, 1.0]), [0.25])
    assert J.shape == (3, 1)
    assert det is None


# -------------------------------------------------------- pointwise Lipschitz


def test_pointwise_lipschitz_linear():
    f = GridFunction.from_callable(
        lambda x, y: 2 * x + 3 * y, [-1, -1], [512, 512], 2 / 512
    )
    lip = pw.pointwise_lipschitz(f, [0.0, 0.0])
    assert lip == pytest.approx(math.sqrt(13), rel=0.02)


def test_pointwise_lipschitz_sqrt_is_infinite():
    f = GridFunction.from_callable(
        lambda x: np.sqrt(np.abs(x)), [-1.0], [4096], 2 / 4096
    )
    assert pw.pointwise_lipschitz(f, [0.0]) == math.inf


# ------------------------------------------------------------------- density


def test_density_interior_point():
    E = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 0.25, [-1, -1], [512, 512], 2 / 512
    )
    rep = pw.density(E, [0.0, 0.0])
    assert rep.classification == "density-1"
    assert rep.limit_estimate == pytest.approx(1.0, abs=0.02)


def test_density_exterior_point():
    E = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 0.01, [-1, -1], [512, 512], 2 / 512
    )
    rep = pw.density(E, [0.7, 0.7])
    assert rep.classification == "density-0"


def test_density_halfplane_boundary():
    E = RasterSet.from_predicate(lambda x, y: x >= 0, [-1, -1], [512, 512], 2 / 512)
    rep = pw.density(E, [0.0, 0.0])
    assert rep.classification == "boundary"
    assert rep.limit_estimate == pytest.approx(0.5, abs=0.02)


def test_density_oscillating_annuli():
    # alternating dyadic annuli: the ratio has no limit at the origin
    def pred(x, y):
        r = np.sqrt(x**2 + y**2)
        with np.errstate(divide="ignore"):
            k = np.where(r > 0, np.floor(-np.log2(np.maximum(r, 1e-300))), 0)
        return (k.astype(int) % 2 == 0) & (r > 0)

    E = RasterSet.from_predicate(pred, [-1, -1], [2048, 2048], 2 / 2048)
    radii = 2.0 ** -np.arange(2, 9)
    rep = pw.density(E, [0.0, 0.0], radii=radii)
    assert rep.classification == "oscillating"
    assert rep.limit_estimate is None


def test_density_resolution_guard():
    E = RasterSet(np.ones((8, 8), dtype=bool), [0, 0], 0.125)
    with pytest.raises(ResolutionError):
        pw.density(E, [0.5, 0.5], radii=[0.01])


# --------------------------------------------- approximate limits and partials


def test_approx_limit_of_continuous_function():
    f = GridFunction.from_callable(
        lambda x, y: x + y * y, [-1, -1], [512, 512], 2 / 512
    )
    val = pw.approx_limit(f, [0.2, -0.1])
    assert val == pytest.approx(0.2 + 0.01, abs=0.02)


def test_approx_limit_ignores_thin_spike():
    # a spike on a 1-cell-wide line has density 0 at the origin
    def fn(x, y):
        return np.where(np.abs(y) < 1e-3, 50.0, x)

    # the line's discrete density scales like h/r, so the raster must be
    # fine enough for some resolved radius to sit well below eps yet well
    # above h
    f = GridFunction.from_callable(fn, [-1, -1], [4096, 4096], 2 / 4096)
    val = pw.approx_limit(f, [0.0, 0.0])
    assert val is not None
    assert val == pytest.approx(0.0, abs=0.05)


def test_approx_limit_jump_has_none():
    f = GridFunction.from_callable(
        lambda x, y: np.where(x >= 0, 1.0, -1.0), [-1, -1], [512, 512], 2 / 512
    )
    assert pw.approx_limit(f, [0.0, 0.0]) is None


def test_approx_limit_resolution_guard():
    f = GridFunction.from_callable(lambda x, y: x + y, [-1, -1], [128, 128], 2 / 128)
    with pytest.raises(ResolutionError):
        pw.approx_limit(f, [0.1, -0.2], radii=[2.5 * f.h, 1.5 * f.h])


def test_lebesgue_point_continuous():
    f = GridFunction.from_callable(lambda x, y: x * y, [-1, -1], [256, 256], 2 / 256)
    averages, flag = pw.lebesgue_point_check(f, [0.3, 0.3])
    assert flag
    assert averages[-1] <= averages[0] + 1e-9


def test_lebesgue_point_fails_at_jump():
    f = GridFunction.from_callable(
        lambda x: np.where(x >= 0, 1.0, 0.0), [-1.0], [4096], 2 / 4096
    )
    averages, flag = pw.lebesgue_point_check(f, [0.0])
    assert not flag  # averages hover near 1/2 at a jump


def test_lebesgue_point_resolution_guard():
    # at the jump, both balls (under 3h) hold only the two samples right of
    # it, which equal f(x): the averages would read 0 and flag a Lebesgue point
    f = GridFunction.from_callable(
        lambda x, y: 5.0 * (x > 0.3), [0.0, 0.0], [64, 64], 1 / 64
    )
    with pytest.raises(ResolutionError):
        pw.lebesgue_point_check(f, [0.3, 0.5], radii=[0.01, 0.005])


def test_approx_partials_smooth():
    f = GridFunction.from_callable(
        lambda x, y: np.sin(x) + 2 * y, [-1, -1], [1024, 1024], 2 / 1024
    )
    grad = pw.approx_partials(f, [0.25, 0.25])
    assert grad[0] == pytest.approx(math.cos(0.25), abs=1e-2)
    assert grad[1] == pytest.approx(2.0, abs=1e-2)


def test_approx_partials_robust_to_sparse_corruption():
    rng = np.random.default_rng(5)
    f0 = GridFunction.from_callable(
        lambda x, y: 3 * x + y, [-1, -1], [1024, 1024], 2 / 1024
    )
    vals = f0.values.copy()
    # corrupt a sparse random 1% of samples; the trimmed median ignores them
    hits = rng.random(vals.shape) < 0.01
    vals[hits] += 100.0
    f = GridFunction(vals, f0.origin, f0.h)
    grad = pw.approx_partials(f, [0.1, 0.1])
    assert grad[0] == pytest.approx(3.0, abs=0.05)
    assert grad[1] == pytest.approx(1.0, abs=0.05)


# ------------------------------------------------------------- lattice points

LINEAR = GridFunction.from_callable(lambda x, y: x + 2 * y, [-1.0, -1.0], [128, 128], 2 / 128)
HALF = RasterSet(LINEAR.values > 0.0, LINEAR.origin, LINEAR.h)

POINT_CALLS = {
    "index_of": lambda x: LINEAR.index_of(x),
    "value_at": lambda x: LINEAR.value_at(x),
    "interpolate": lambda x: LINEAR.interpolate(x),
    "default_radii": lambda x: pw.default_radii(LINEAR, x),
    "approx_partials": lambda x: pw.approx_partials(LINEAR, x),
    "density": lambda x: pw.density(HALF, x),
    "approx_limit": lambda x: pw.approx_limit(LINEAR, x),
    "lebesgue_point_check": lambda x: pw.lebesgue_point_check(LINEAR, x),
    "pointwise_lipschitz": lambda x: pw.pointwise_lipschitz(LINEAR, x),
}


@pytest.mark.parametrize("name", sorted(POINT_CALLS))
def test_point_of_wrong_length_is_a_value_error(name):
    call = POINT_CALLS[name]
    for x in ([0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="does not match a 2-D lattice"):
            call(x)
    call([0.1, -0.2])
    call(HALF.origin)


@st.composite
def lattice_balls(draw):
    n = draw(st.integers(1, 3))
    extents = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    h = draw(st.sampled_from([0.1, 1 / 16, 0.0173, 0.3]))
    origin = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    # near, on and past the box edges
    t = draw(st.lists(st.one_of(st.floats(-0.3, 1.3), st.sampled_from([0.0, 0.5, 1.0])),
                      min_size=n, max_size=n))
    x = np.array(origin) + np.array(t) * np.array(extents) * h
    radii = draw(st.lists(st.one_of(st.floats(0, 6 * h), st.integers(0, 6).map(lambda k: k * h)),
                          min_size=1, max_size=4))
    return origin, extents, h, x, radii


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=lattice_balls())
def test_ball_samples_match_the_whole_lattice(case):
    origin, extents, h, x, radii = case
    f = GridFunction(np.arange(np.prod(extents), dtype=float).reshape(extents), origin, h)
    E = RasterSet(f.values % 3 == 0, origin, h)
    d2 = ((f.points() - x) ** 2).sum(axis=1)
    for lattice, cells in ((f, f.values), (E, E.mask)):
        got = pw._ball_samples(lattice, x, np.array(radii))
        assert len(got) == len(radii)
        for (dist2, samples), r in zip(got, radii):
            inside = d2 <= r * r
            assert np.array_equal(dist2, d2[inside])
            assert np.array_equal(samples, cells.ravel()[inside])
            assert samples.dtype == cells.dtype


def test_density_of_a_tiny_ball_reads_only_its_window():
    E = RasterSet(np.arange(2**23) % 3 == 0, [0.0], 2.0**-23)
    tracemalloc.start()
    try:
        pw.density(E, E.origin, radii=[2.0**-12])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
