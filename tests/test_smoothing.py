import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import roots_legendre

from gmtkit import smoothing as sm
from gmtkit.errors import UnderResolvedKernelError
from gmtkit.grids import GridFunction


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_standard_mollifier_unit_mass(n, eps):
    kernel = sm.make_standard_mollifier(n, eps)
    assert kernel.mass() == pytest.approx(1.0, abs=1e-8)


def test_ball_mollifier_unit_mass():
    kernel = sm.make_ball_mollifier(2, 0.1)
    # the indicator kernel has a jump at the sphere, so quadrature is cruder
    assert kernel.mass() == pytest.approx(1.0, abs=1e-2)


def test_kernel_supported_in_unit_ball():
    kernel = sm.make_standard_mollifier(2, 0.1)
    pts = np.array([[1.01, 0.0], [0.0, -1.2], [2.0, 2.0]])
    assert np.all(kernel.unscaled(pts) == 0.0)


def test_scaled_kernel_peak_scaling():
    k1 = sm.make_standard_mollifier(1, 0.2)
    k2 = sm.make_standard_mollifier(1, 0.1)
    origin = np.zeros((1, 1))
    assert k2.scaled(origin)[0] == pytest.approx(2 * k1.scaled(origin)[0])


def test_mollify_preserves_constants():
    f = GridFunction(np.full(500, 2.5), [0.0], 1 / 500)
    out = sm.mollify(f, sm.make_standard_mollifier(1, 0.05))
    assert np.allclose(out.values, 2.5, atol=1e-12)


def test_mollify_underresolved_kernel():
    f = GridFunction(np.zeros(50), [0.0], 0.02)
    with pytest.raises(UnderResolvedKernelError):
        sm.mollify(f, sm.make_standard_mollifier(1, 0.01))


def test_mollify_shrinks_domain_symmetrically():
    f = GridFunction(np.zeros(100), [0.0], 0.01)
    out = sm.mollify(f, sm.make_standard_mollifier(1, 0.05))
    pad = (100 - out.extents[0]) // 2
    assert out.origin[0] == pytest.approx(pad * 0.01)


def test_mollified_step_l1_convergence():
    h = 1 / 4000
    f = GridFunction.from_callable(lambda x: (x > 0.5).astype(float), [0.0], [4000], h)
    errs = []
    for eps in (0.08, 0.04, 0.02):
        out = sm.mollify(f, sm.make_standard_mollifier(1, eps))
        sub = f.values[round((out.origin[0] - f.origin[0]) / h):][: out.extents[0]]
        errs.append(float(np.abs(out.values - sub).sum() * h))
    assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


def test_mollify_rejects_kernel_wider_than_grid():
    f = GridFunction.from_callable(lambda x, y: x * y, [0, 0], [16, 16], 1 / 16)
    with pytest.raises(ValueError, match="wider than the grid"):
        sm.mollify(f, sm.make_standard_mollifier(2, 3.0))


def test_mollify_kernel_as_wide_as_grid_gives_one_cell():
    # eps = 0.25 on h = 1/16 spans 2 * 3 + 1 = 7 cells
    f = GridFunction(np.full((7, 9), 2.0), [0.0, 0.0], 1 / 16)
    out = sm.mollify(f, sm.make_standard_mollifier(2, 0.25))
    assert out.extents == (1, 3)
    assert np.allclose(out.values, 2.0, atol=1e-12)


@st.composite
def grids_with_fitting_kernels(draw):
    """(values, h, eps): a 1-D to 3-D grid no narrower than the kernel."""
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1 / 16, 0.05, 0.1, 1 / 3]))
    eps = draw(st.floats(2 * h, 6 * h))
    kr = int(math.ceil(eps / h)) - 1
    extents = draw(st.lists(st.integers(2 * kr + 1, 2 * kr + 24 // n), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal(extents), h, eps


def _case(shape, h, eps, seed):
    return np.random.default_rng(seed).standard_normal(shape), h, eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=grids_with_fitting_kernels())
@example(case=_case((7, 7), 1 / 16, 0.25, 1))  # kernel as wide as the grid: one cell out
@example(case=_case((500,), 1 / 500, 0.05, 2))  # 1-D, a 49-cell kernel
@example(case=_case((20, 17, 23), 0.05, 0.3, 3))  # 3-D, an 11-cell kernel
def test_fft_convolve_valid_matches_direct_sum_and_fftconvolve(case):
    values, h, eps = case
    n = values.ndim
    kernel = sm.make_standard_mollifier(n, eps)
    kr = int(math.ceil(eps / h)) - 1
    offsets = np.arange(-kr, kr + 1) * h
    K = kernel.scaled(np.stack(np.meshgrid(*([offsets] * n), indexing="ij"), axis=-1))
    K /= K.sum() * h**n
    conv = sm._fft_convolve_valid(values, K)
    # out[j] = sum_i a[j - i] k[i]: each valid window against the flipped kernel
    direct = np.tensordot(sliding_window_view(values, K.shape), np.flip(K), axes=n)
    # every |term sum| sum_i |a[j - i] k[i]| is at most sum |a| * max |k|
    bound = 64 * np.finfo(float).eps * np.abs(values).sum() * np.abs(K).max()
    assert conv.shape == direct.shape
    assert np.abs(conv - direct).max() <= bound
    assert np.abs(conv - fftconvolve(values, K, mode="valid")).max() <= bound
    out = sm.mollify(GridFunction(values, np.zeros(n), h), kernel)
    assert (out.values == conv * h**n).all()


def test_next_fast_len_is_scipys_real_fast_length():
    assert [sm._next_fast_len(n) for n in range(1, 5000)] == [
        next_fast_len(n, True) for n in range(1, 5000)
    ]


@pytest.mark.parametrize("nodes", [1, 2, 3, 8, 64, 96, 128])
def test_gauss_legendre_rule(nodes):
    x, w = sm._gauss_legendre(-1.0, 1.0, nodes)
    # ulps of 1, the half-length of [-1, 1]: scipy's own nodes near 0 sit
    # up to 17 of their own ulps from the exact roots, numpy's within 1
    assert np.abs(x - roots_legendre(nodes)[0]).max() <= 2 * np.spacing(1.0)
    # exact for x^k, k <= 2 nodes - 1, up to 1e-14 of the integral of 1 over [0, 1]
    x, w = sm._gauss_legendre(0.0, 1.0, nodes)
    errors = [abs(float((w * x**k).sum()) - 1 / (k + 1)) for k in range(2 * nodes)]
    assert max(errors) <= 1e-14


def test_difference_quotient_linear():
    f = GridFunction.from_callable(lambda x: 4.0 * x, [0.0], [100], 0.01)
    dq = sm.difference_quotient(f, axis=0, step=0.05)
    assert np.allclose(dq.values, -4.0, atol=1e-10)  # (f(x - s) - f(x)) / s


@pytest.mark.parametrize("shape", [(23,), (9, 11), (5, 6, 7)], ids=["1-D", "2-D", "3-D"])
def test_difference_quotient_of_either_sign_is_the_shifted_difference(shape):
    rng = np.random.default_rng(4)
    h = 0.125
    f = GridFunction(rng.standard_normal(shape), rng.random(len(shape)) - 0.5, h)
    for axis in range(f.ndim):
        n = shape[axis]
        for k in [*range(1 - n, 0), *range(1, n)]:
            dq = sm.difference_quotient(f, axis, k * h)
            # (f(x - k h e_axis) - f(x)) / (k h) over the cells i with i - k inside
            cells = range(max(k, 0), n + min(k, 0))
            back = np.take(f.values, [i - k for i in cells], axis=axis)
            expected = (back - np.take(f.values, cells, axis=axis)) / (k * h)
            assert np.array_equal(dq.values, expected)
            origin = f.origin.copy()
            origin[axis] += max(k, 0) * h
            assert np.array_equal(dq.origin, origin)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
def test_mollify_eps_override_passes_the_kernel_check(eps):
    f = GridFunction(np.zeros(50), [0.0], 0.02)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        sm.mollify(f, sm.make_standard_mollifier(1, 0.1), eps=eps)


def test_difference_quotient_requires_lattice_step():
    f = GridFunction(np.zeros(100), [0.0], 0.01)
    with pytest.raises(ValueError):
        sm.difference_quotient(f, axis=0, step=0.0153)


def test_bump_grad_matches_fd():
    center = np.array([0.1, -0.2])
    pts = np.array([[0.3, 0.1], [0.0, 0.0], [-0.4, 0.2]])
    g = sm.bump_grad(pts, center, 0.7)
    s = 1e-7
    for d in range(2):
        e = np.zeros(2)
        e[d] = s
        fd = (sm.bump_value(pts + e, center, 0.7) - sm.bump_value(pts - e, center, 0.7)) / (2 * s)
        assert np.allclose(g[:, d], fd, atol=1e-5)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# (origin, extents, h, center, radius): bumps well inside, across an edge,
# across a corner, past the grid, smaller than one cell, on non-dyadic h
WINDOW_CASES = [
    ([0.0], [200], 0.005, [0.5], 0.3),
    ([-0.37], [97], 0.0131, [-0.36], 0.2),
    ([0.11], [64], 1 / 3, [21.5], 0.9),
    ([0.0], [50], 0.02, [0.5], 0.004),
    ([0.0, 0.0], [48, 40], 1 / 48, [0.4, 0.3], 0.25),
    ([0.013, -0.21], [37, 53], 0.0173, [0.02, 0.6], 0.3),
    ([0.013, -0.21], [37, 53], 0.0173, [0.0, -0.2], 0.21),
    ([0.013, -0.21], [37, 53], 0.0173, [0.3, 0.2], 0.011),
    ([0.0, 0.0], [16, 16], 0.1, [0.55, 0.55], 0.03),
    ([0.0, 0.0], [16, 16], 0.1, [-0.5, 0.8], 0.45),
    ([0.0, 0.0, 0.0], [12, 14, 10], 1 / 12, [0.5, 0.6, 0.4], 0.35),
    ([0.3, -0.7, 1.1], [11, 9, 13], 0.0927, [0.35, -0.65, 1.9], 0.5),
    ([0.3, -0.7, 1.1], [11, 9, 13], 0.0927, [0.6, -0.4, 1.7], 0.04),
]


@pytest.mark.bits
@pytest.mark.parametrize("origin,extents,h,center,radius", WINDOW_CASES)
def test_lattice_bump_is_the_full_grid_bump_sliced(origin, extents, h, center, radius):
    f = GridFunction(np.zeros(extents), origin, h)
    c = np.asarray(center, dtype=float)
    phi_full, grad_full = sm._bump(f.points(), c, radius)
    phi_full = phi_full.reshape(f.extents)
    for axis in range(-f.ndim, f.ndim):
        window, inside, phi, grad = sm._lattice_bump(f, c, radius, axis)
        assert _same_bits(phi, phi_full[window][inside])
        assert _same_bits(grad, grad_full[..., axis].reshape(f.extents)[window][inside])
        # every cell the window leaves out is one where the bump is 0
        kept = np.zeros(f.extents, dtype=bool)
        kept[window] = inside
        assert not np.any(phi_full[~kept])
        assert not np.any(grad_full[..., axis].reshape(f.extents)[~kept])


def test_battery_rejects_non_finite_or_non_positive_supports():
    f = GridFunction(np.zeros(100), [0.0], 0.01)
    for centers, radii in [([[0.5]], [-0.1]), ([[0.5]], [0.0]), ([[np.nan]], [0.1]),
                           ([[0.5]], [np.inf])]:
        bat = sm.TestFunctionBattery(np.array(centers), np.array(radii), 0)
        with pytest.raises(sm.BatteryError, match="finite"):
            sm.weak_derivative_residual(f, f, 0, bat)


def test_battery_json_roundtrip():
    bat = sm.TestFunctionBattery.seeded([0.0, 0.0], [1.0, 1.0], count=5, seed=7)
    back = sm.TestFunctionBattery.from_json(bat.to_json())
    assert np.allclose(back.centers, bat.centers)
    assert np.allclose(back.radii, bat.radii)
    assert back.seed == 7


def test_battery_supports_stay_inside():
    bat = sm.TestFunctionBattery.seeded([0.0], [1.0], count=20, seed=1)
    f = GridFunction(np.zeros(100), [0.0], 0.01)
    sm.weak_derivative_residual(f, f, 0, bat)  # must not raise


def test_battery_escape_detected():
    bat = sm.TestFunctionBattery.seeded([0.0], [2.0], count=5, seed=1)
    f = GridFunction(np.zeros(100), [0.0], 0.01)  # domain [0, 1] only
    with pytest.raises(sm.BatteryError):
        sm.weak_derivative_residual(f, f, 0, bat)


def test_weak_derivative_accepts_true_pair():
    h = 1e-3
    f = GridFunction.from_callable(lambda x: np.sin(x), [0.0], [1000], h)
    g = GridFunction.from_callable(lambda x: np.cos(x), [0.0], [1000], h)
    bat = sm.TestFunctionBattery.seeded([0.0], [1.0], seed=3)
    assert sm.weak_derivative_residual(f, g, 0, bat) < 1e-6


def test_weak_derivative_rejects_wrong_candidate():
    h = 1e-3
    f = GridFunction.from_callable(lambda x: np.sin(x), [0.0], [1000], h)
    bad = GridFunction.from_callable(lambda x: np.cos(x) + 0.3, [0.0], [1000], h)
    bat = sm.TestFunctionBattery.seeded([0.0], [1.0], seed=3)
    assert sm.weak_derivative_residual(f, bad, 0, bat) > 1e-3


def test_mollify_commutes_for_smooth_pair():
    h = 1 / 2000
    f = GridFunction.from_callable(lambda x: np.sin(3 * x), [0.0], [2000], h)
    g = GridFunction.from_callable(lambda x: 3 * np.cos(3 * x), [0.0], [2000], h)
    disc = sm.mollify_commutes_with_weak_derivative(
        f, g, sm.make_standard_mollifier(1, 0.05)
    )
    assert disc < 1e-3


def test_mollify_commutes_rejects_empty_doubly_shrunk_domain():
    f = GridFunction.from_callable(lambda x: np.sin(3 * x), [0.0], [40], 1 / 40)
    g = GridFunction.from_callable(lambda x: 3 * np.cos(3 * x), [0.0], [40], 1 / 40)
    with pytest.raises(ValueError, match="doubly-shrunken domain"):
        sm.mollify_commutes_with_weak_derivative(f, g, sm.make_standard_mollifier(1, 0.3))


_X_PLUS = GridFunction.from_callable(lambda x: np.maximum(x, 0.0), [-1.0], [2000], 1e-3)
_WAVE = GridFunction.from_callable(lambda x, y: np.sin(3 * x) * y, [0.0, 0.0], [32, 32], 1 / 32)
# the shape of _X_PLUS on another lattice (origin 5, h = 7e-3)
_MOVED = GridFunction.from_callable(lambda x: (x > 0).astype(float), [5.0], [2000], 7e-3)
_BAD_ARGUMENTS = {
    # a kernel for a fractional dimension (normalization 2.164879914809173, 0.38947775171918575)
    "standard-n-1.5": ("n must be an int >= 1", lambda: sm.make_standard_mollifier(1.5, 0.1)),
    "ball-n-1.5": ("n must be an int >= 1", lambda: sm.make_ball_mollifier(1.5, 0.1)),
    "kernel-eps-nan": ("eps must be finite and positive",
                       lambda: sm.MollifierKernel("standard", 1, math.nan, 1.0)),
    # TypeError, and an empty battery that certified any candidate with residual 0
    "battery-count-2.5": ("count must be an int >= 1",
                          lambda: sm.TestFunctionBattery.seeded([0.0], [1.0], count=2.5)),
    "battery-count-0": ("count must be an int >= 1",
                        lambda: sm.TestFunctionBattery.seeded([0.0], [1.0], count=0)),
    # OverflowError, IndexError
    "difference-step-inf": ("step. must be finite", lambda: sm.difference_quotient(_WAVE, 0, math.inf)),
    "difference-axis-2": ("axis 2 out of range", lambda: sm.difference_quotient(_WAVE, 2, 1 / 32)),
    # OverflowError from the int cast of step / h, for either sign
    "difference-step-1e308": ("step exceeds the domain",
                              lambda: sm.difference_quotient(_WAVE, 0, 1e308)),
    "difference-step--1e308": ("step exceeds the domain",
                               lambda: sm.difference_quotient(_WAVE, 1, -1e308)),
    # off the lattice and past the domain: the domain is the reason given
    "difference-step-off-lattice-and-too-long": ("step exceeds the domain",
                                                 lambda: sm.difference_quotient(_WAVE, 0, 40.5 / 32)),
    # OverflowError from the int cast of eps / h (the CLI wrote no error.json)
    "mollify-eps-1e308": ("wider than the grid",
                          lambda: sm.mollify(_WAVE, sm.make_standard_mollifier(2, 0.1), 1e308)),
    "commute-eps-1e308": ("wider than the grid", lambda: sm.mollify_commutes_with_weak_derivative(
        _WAVE, _WAVE, sm.make_standard_mollifier(2, 1e308))),
    "commute-axis-2": ("axis 2 out of range", lambda: sm.mollify_commutes_with_weak_derivative(
        _WAVE, _WAVE, sm.make_standard_mollifier(2, 0.1), axis=2)),
    # only the shapes were compared: residual 0.2314230364029199
    "residual-other-lattice": ("candidate must share the lattice", lambda: sm.weak_derivative_residual(
        _X_PLUS, _MOVED, 0, sm.TestFunctionBattery.seeded([-1.0], [1.0]))),
    "commute-other-lattice": ("candidate must share the lattice",
                              lambda: sm.mollify_commutes_with_weak_derivative(
                                  _X_PLUS, _MOVED, sm.make_standard_mollifier(1, 0.05))),
}


@pytest.mark.parametrize("name", list(_BAD_ARGUMENTS))
def test_bad_arguments_are_value_errors(name):
    match, call = _BAD_ARGUMENTS[name]
    with pytest.raises(ValueError, match=match):
        call()
