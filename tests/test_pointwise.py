import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
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


def test_directional_derivative_of_a_grid_function_interpolates():
    # multilinear interpolation of a linear function is exact between cell centers
    f = GridFunction.from_callable(lambda x, y: 2 * x - y, [0.0, 0.0], [32, 32], 1 / 32)
    assert pw.directional_derivative(f, [0.5, 0.5], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert pw.directional_derivative(f, [0.5, 0.5], [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)


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


@pytest.mark.filterwarnings("error")
def test_steps_at_the_ends_of_the_float_range_stay_finite():
    assert pw.directional_derivative(lambda x, y: x * y, [0.1, 0.2], [1, 0], h0=8e307) \
        == pytest.approx(0.2)
    # x +- h0 v rounds to x here: a finite 0.0, not a division by a step of 0
    assert pw.directional_derivative(lambda x, y: x * y, [0.1, 0.2], [1, 0], h0=1e-300) == 0.0


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


@st.composite
def limit_cases(draw):
    n = draw(st.integers(1, 2))
    extents = [draw(st.integers(8, 400 if n == 1 else 40)) for _ in range(n)]
    h = draw(st.sampled_from([0.1, 1 / 16, 0.0173]))
    origin = np.array(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
    # near, on and past the box edges
    t = np.array(draw(st.lists(st.floats(-0.3, 1.3), min_size=n, max_size=n)))
    # radii from 3h up, both sides of the 8h cut, in and out of order
    radii = draw(st.lists(st.floats(3, 14).map(lambda k: k * h), min_size=1, max_size=4))
    x = origin + t * np.array(extents) * h
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # a constant, a band through x, or random levels; then a share of noise
    kind = draw(st.sampled_from(["constant", "band", "levels"]))
    if kind == "levels":
        values = rng.choice([-1.0, 0.0, 0.5, 2.0], size=extents)
    else:
        values = np.full(extents, 0.5)
    if kind == "band":
        row = int(np.floor((x[0] - origin[0]) / h))
        values[max(row - 1, 0) : max(row + 2, 0)] = 2.0
    noisy = rng.random(extents) < draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    values = np.where(noisy, values + rng.normal(size=extents), values)
    eps = draw(st.lists(st.sampled_from([0.5, 0.2, 0.05, 1e-3]), min_size=1, max_size=3))
    return GridFunction(values, origin, h), x, radii, eps


def _next(t: float, to: float) -> float:
    with np.errstate(under="ignore"):  # the neighbour of 0 is subnormal
        return np.nextafter(t, to)


def _zero_at(balls, f, pred) -> bool:
    return pw._density_ratios([(pred(v), vol) for v, vol in balls], f).min() < pw.DENSITY_ZERO_BAND


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=limit_cases())
def test_approx_limit_order_statistics_match_the_density_predicate(case):
    f, x, radii, eps_list = case
    radii = np.array(radii)
    samples = pw._ball_samples(f, x, radii)
    keep = [i for i, r in enumerate(radii) if r >= 8 * f.h] or list(range(len(radii)))
    balls = pw._balls(f, [samples[i] for i in keep], radii[keep])
    lo, hi = float(f.values.min()), float(f.values.max())
    with np.errstate(all="raise"):
        try:
            got = pw.approx_limit(f, x, eps_list, radii)
        except ResolutionError:
            got = "unresolved"
        near = samples[int(radii.argmin())][1]  # the median near x: the smallest ball
        if near.size:
            m = float(np.median(near))
            passes = all(_zero_at(balls, f, lambda v: np.abs(v - m) >= eps) for eps in eps_list)
            closed = pw._limsups([(np.abs(v - m), vol) for v, vol in balls], f).min()
            assert (closed < min(eps_list)) == passes
            if passes:
                assert got == m
        tops = pw._limsups(balls, f)
        up = max(tops.min(), lo)
        assert _zero_at(balls, f, lambda v: v > up)
        # a ball too small to bound {f > t} makes every t pass: then up is the floor
        assert _zero_at(balls, f, lambda v: v > _next(up, -np.inf)) == np.isneginf(tops).any()
        bottoms = -pw._limsups([(-v, vol) for v, vol in balls], f)
        down = min(bottoms.max(), hi)
        assert _zero_at(balls, f, lambda v: v < down)
        assert _zero_at(balls, f, lambda v: v < _next(down, np.inf)) == np.isposinf(bottoms).any()
        if near.size and not passes and abs(up - down) <= min(eps_list):
            assert got == 0.5 * (up + down)


def test_limsup_with_a_count_exactly_on_the_band():
    # one sample of a ball of 20 cells is a ratio of exactly 0.05, which is
    # not below the band, so only the empty set has density zero there
    vals = np.array([3.0, 1.0, 2.0, 0.0])
    unit = GridFunction(vals, [0.0], 1.0)  # cell weight 1
    assert pw._density_ratios([(vals > 2.0, 20.0)], unit)[0] == pw.DENSITY_ZERO_BAND
    assert pw._limsups([(vals, 20.0)], unit).tolist() == [3.0]


def test_approx_limit_too_coarse_to_tell_is_a_resolution_error():
    # |grad f| ~ 1: {|f - f(x)| >= 0.05} has density zero only in balls far
    # narrower than the 8h = 0.125 the density tests use
    f = GridFunction.from_callable(lambda x, y: np.sin(x) + y * y, [-1, -1], [128, 128], 2 / 128)
    with pytest.raises(ResolutionError, match="needs a ball of radius <= 0.0332, smallest used 0.18"):
        pw.approx_limit(f, [0.1, -0.2])
    # the same schedule keeps a jump's bracket open: no limit
    jump = GridFunction.from_callable(lambda x, y: np.sin(x) + (x >= 0.1), [-1, -1], [128, 128], 2 / 128)
    assert pw.approx_limit(jump, [0.1, -0.2]) is None


def test_approx_limit_and_lebesgue_flag_do_not_depend_on_the_radius_order():
    # the median near x comes from the smallest ball, wherever it sits in
    # the schedule (it came from the last one: 0.03036220513370072 reversed)
    f = GridFunction.from_callable(lambda x, y: 0.2 * np.sin(x) + 0.15 * y * y,
                                   [-1, -1], [128, 128], 2 / 128)
    radii = [0.32, 0.16, 0.08]
    for order in (radii, radii[::-1], [0.16, 0.08, 0.32]):
        assert pw.approx_limit(f, [0.1, -0.2], radii=order) == 0.02601470509758843
    # a jump 0.1 from x: the ball of 0.08 misses it, the ball of 0.32 does not
    jump = GridFunction.from_callable(lambda x, y: 1.0 * (x >= 0.1), [-1, -1], [128, 128], 2 / 128)
    for order in (radii, radii[::-1], [0.16, 0.08, 0.32]):
        averages, flag = pw.lebesgue_point_check(jump, [0.0, -0.2], order)
        assert averages[order.index(0.08)] == 0.0 and averages.max() > 0.05
        assert flag


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
    if name == "approx_limit":
        # x + 2y is smooth at (0.1, -0.2), but balls of at least 8h do not resolve it
        with pytest.raises(ResolutionError) as info:
            call([0.1, -0.2])
        assert "does not match" not in str(info.value)
    else:
        call([0.1, -0.2])
    call(HALF.origin)


def test_density_far_off_answers_as_outside_and_a_non_finite_point_is_a_value_error():
    E = RasterSet.from_predicate(lambda x, y: x < 0.5, [0.0, 0.0], [16, 16], 1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far, huge = pw.density(E, [100.0, 0.5]), pw.density(E, [1e300, 0.5])
    assert huge.classification == far.classification == "density-0"
    assert huge.radii.tolist() == far.radii.tolist()
    assert huge.ratios.tolist() == far.ratios.tolist()
    with pytest.raises(ValueError, match="must be finite"):
        pw.density(E, [math.nan, 0.5])


@pytest.mark.filterwarnings("error")
def test_a_radius_past_the_float_range_is_a_value_error():
    # r * r and omega_n r^n overflowed with only a RuntimeWarning
    E = RasterSet.from_predicate(lambda x, y: x < 0.5, [0.0, 0.0], [16, 16], 1 / 16)
    f = GridFunction(E.mask.astype(float), E.origin, E.h)
    calls = [lambda: pw.density(E, [0.5, 0.5], radii=[1e308, 0.5, 0.25]),
             lambda: pw.density(E, [0.5, 0.5], radii=[1e200, 0.5, 0.25]),
             lambda: pw.approx_limit(f, [0.5, 0.5], radii=[1e308, 0.5, 0.3]),
             lambda: pw.lebesgue_point_check(f, [0.5, 0.5], radii=[1e200, 0.5]),
             lambda: pw.pointwise_lipschitz(f, [0.5, 0.5], radii=[1e200, 0.5])]
    for call in calls:
        with pytest.raises(ValueError, match=r"^radius must be finite and positive and <= 1\.15"):
            call()
    top = sys.float_info.max ** (1 / 4)  # r^(n+2) at the float range's end, n = 2
    ratios = pw.density(E, [0.5, 0.5], radii=[top, 0.5, 0.25]).ratios
    assert 0 < ratios[0] < ratios[1]


@pytest.mark.filterwarnings("error")
def test_a_ball_volume_under_the_normal_doubles_is_a_resolution_error():
    # h^2 = 1e-340 and omega_2 r^2 underflow: each ratio was 0/0 with only a RuntimeWarning
    E = RasterSet.from_predicate(lambda x, y: x < 32e-170, [0.0, 0.0], [64, 64], 1e-170)
    f = GridFunction(E.mask.astype(float), E.origin, E.h)
    center = [32e-170, 32e-170]
    for call in (lambda: pw.density(E, center), lambda: pw.approx_limit(f, center),
                 lambda: pw.lebesgue_point_check(f, center)):
        with pytest.raises(ResolutionError, match=r"^radius [0-9.e-]+ on spacing h = 1e-170: "
                                                  r"omega_n r\^n or h\^n is not a positive normal"):
            call()
    # a cell weight just inside the normal doubles keeps the ratios of the unit lattice
    h = 1e-150
    scaled = RasterSet(E.mask, E.origin, h)
    assert pw.density(scaled, [32 * h, 32 * h]).ratios == pytest.approx(
        pw.density(RasterSet(E.mask, E.origin, 1.0), [32.0, 32.0]).ratios, rel=1e-12)


EMPTY_CALLS = {
    "density": lambda: pw.density(HALF, [0.1, 0.1], radii=[]),
    "approx_limit": lambda: pw.approx_limit(LINEAR, [0.1, 0.1], radii=[]),
    "lebesgue_point_check": lambda: pw.lebesgue_point_check(LINEAR, [0.1, 0.1], radii=[]),
    "pointwise_lipschitz": lambda: pw.pointwise_lipschitz(LINEAR, [0.1, 0.1], radii=[]),
    "approx_limit-eps_list": lambda: pw.approx_limit(LINEAR, [0.1, 0.1], eps_list=[]),
}


@pytest.mark.parametrize("name", sorted(EMPTY_CALLS))
def test_empty_schedule_is_a_value_error(name):
    match = "eps_list must hold" if name.endswith("eps_list") else "radius schedule is empty"
    with pytest.raises(ValueError, match=match):
        EMPTY_CALLS[name]()


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
    assert traced_peak(lambda: pw.density(E, E.origin, radii=[2.0**-12])) < 2**20


SMOOTH = GridFunction.from_callable(lambda x, y: np.sin(x) + y * y, [-1, -1], [128, 128], 2 / 128)


def _smooth_limit(eps):
    return pw.approx_limit(SMOOTH, [0.1, -0.2], eps_list=(eps,), radii=(0.32, 0.16, 0.08))


_STEP_RULE = r"^h0 = .* must keep x \+- h0 v and 2 h0 finite"


def _product_derivative(h0, levels=10):
    return lambda: pw.directional_derivative(lambda x, y: x * y, [0.1, 0.2], [1, 0], h0=h0, levels=levels)


_BAD_ARGUMENTS = {
    # TypeError, NonConvergenceError, IndexError
    "directional-levels-2.5": ("levels must be an int >= 1", lambda: pw.directional_derivative(
        lambda x, y: x * y, [0.5, 0.5], [1.0, 0.0], levels=2.5)),
    "directional-h0-0": ("h0 must be finite and positive", lambda: pw.directional_derivative(
        lambda x, y: x * y, [0.5, 0.5], [1.0, 0.0], h0=0.0)),
    # 2 h0 overflowed in a scalar multiply, or a step underflowed to 0 in the difference quotient
    "directional-h0-1e308": (_STEP_RULE, _product_derivative(1e308)),
    "directional-h0-9e307": (_STEP_RULE, _product_derivative(9e307)),
    "directional-h0-5e-324": (_STEP_RULE, _product_derivative(5e-324)),
    "directional-h0-1e-300-levels-30": (_STEP_RULE, _product_derivative(1e-300, levels=30)),
    "directional-levels-2000": (_STEP_RULE, _product_derivative(0.1, levels=2000)),
    "approx-partials-max-steps-2.5": ("max_steps must be an int >= 1",
                                      lambda: pw.approx_partials(LINEAR, [0.1, 0.1], max_steps=2.5)),
    # one radius for count = 0
    "default-radii-count-0": ("count must be an int >= 1",
                              lambda: pw.default_radii(LINEAR, [0.1, 0.1], count=0)),
    # ratios [nan, 0.] classified "boundary" with limit_estimate nan; averages [nan, 0.]
    "density-nan-radius": ("radius must be finite and positive",
                           lambda: pw.density(HALF, [-0.5, 0.0], radii=[math.nan, 0.3])),
    "density-inf-radius": ("radius must be finite and positive",
                           lambda: pw.density(HALF, [-0.5, 0.0], radii=[math.inf, 0.3])),
    "lebesgue-nan-radius": ("radius must be finite and positive",
                            lambda: pw.lebesgue_point_check(LINEAR, [0.1, 0.1], radii=[math.nan, 0.3])),
    # None for each, where the default eps_list raises ResolutionError
    "approx-limit-eps-nan": ("eps_list must be finite and positive", lambda: _smooth_limit(math.nan)),
    "approx-limit-eps--1": ("eps_list must be finite and positive", lambda: _smooth_limit(-1)),
    "approx-limit-eps-0": ("eps_list must be finite and positive", lambda: _smooth_limit(0)),
    # False
    "lebesgue-tol-nan": ("tol must be finite and positive",
                         lambda: pw.lebesgue_point_check(LINEAR, [0.1, 0.1], tol=math.nan)),
    # 2.055 on x^2 at x = 1, where the default gives 2.01
    "approx-partials-central-fraction-2": (
        "central_fraction must be finite and positive and <= 1",
        lambda: pw.approx_partials(LINEAR, [0.1, 0.1], central_fraction=2.0)),
}


@pytest.mark.parametrize("name", list(_BAD_ARGUMENTS))
def test_bad_arguments_are_value_errors(name):
    match, call = _BAD_ARGUMENTS[name]
    with pytest.raises(ValueError, match=match):
        call()
