import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import cantor_function, traced_peak
from gmtkit import sobolev_bv as sb
from gmtkit.errors import RegimeError
from gmtkit.grids import GridFunction, RasterSet, omega
from gmtkit.smoothing import bump_grad, bump_value


def bump_2d(extents=192, h=None):
    h = h or 1.0 / 192
    return GridFunction.from_callable(
        lambda x, y: np.exp(-8 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)),
        [0.0, 0.0],
        [extents, extents],
        h,
    )


# ----------------------------------------------------------- norms and regimes


def test_sobolev_norm_splits():
    f = bump_2d()
    rep = sb.sobolev_norm(f, 2.0)
    assert rep.sobolev_norm == pytest.approx(rep.lp_norm + rep.grad_lp_norm)
    assert rep.p_star is None  # p = n


def test_gns_holds_on_bump():
    lhs, rhs, C = sb.gns_check(bump_2d(), 1.0)
    assert C == 1.0
    assert lhs <= rhs


def test_gns_constant_formula():
    f3 = GridFunction.from_callable(
        lambda x, y, z: np.exp(-10 * ((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)),
        [0, 0, 0],
        [40, 40, 40],
        1 / 40,
    )
    lhs, rhs, C = sb.gns_check(f3, 2.0)
    assert C == pytest.approx(2 * (3 - 1) / (3 - 2))  # p(n-1)/(n-p)
    assert lhs <= rhs


def test_gns_regime_guard():
    with pytest.raises(RegimeError):
        sb.gns_check(bump_2d(), 2.0)  # p = n must be routed to BMO


def test_poincare_cube():
    lhs, rhs = sb.poincare_cube_check(bump_2d(), [0.25, 0.25], 0.5, 2.0)
    assert lhs <= rhs


def test_bmo_constant_is_zero():
    f = GridFunction(np.full((64, 64), 3.7), [0, 0], 1 / 64)
    assert sb.bmo_seminorm(f) == pytest.approx(0.0, abs=1e-12)


def test_bmo_bounded_by_sup():
    f = GridFunction.from_callable(
        lambda x, y: np.sin(7 * x) * np.cos(5 * y), [0, 0], [128, 128], 1 / 128
    )
    assert sb.bmo_seminorm(f) <= 2 * np.abs(f.values).max()


@pytest.mark.parametrize(
    "lo, side",
    [
        ((-0.1, 0.0), 0.25),  # negative start
        ((0.9, 0.0), 0.25),  # runs past the far edge
        ((0.3, 0.3), 0.4 / 64),  # thinner than half a cell
        ((0.3, 0.3), math.inf),  # no finite side
        ((math.nan, 0.3), 0.25),  # no finite corner
        ((1e300, 0.3), 0.25),  # a corner past any int
        ((0.3, 0.3), -math.inf),  # OverflowError from the int cast of side / h
        ((0.3, 0.3), math.nan),  # no side at all
    ],
)
def test_cubes_outside_the_lattice_are_rejected(lo, side):
    f = GridFunction.from_callable(lambda x, y: x, [0, 0], [64, 64], 1 / 64)
    with pytest.raises(ValueError):
        sb.bmo_seminorm(f, [(np.array(lo), side)])
    with pytest.raises(ValueError):
        sb.poincare_cube_check(f, lo, side, 2.0)


def test_morrey_ratio_below_one():
    f = bump_2d()
    assert sb.morrey_check(f, 4.0) <= 1.0


def _morrey_per_pair(f, p, n_pairs, seed):
    """Reference ``morrey_check``: one pair at a time, two draws per pair."""
    n = f.ndim
    C = 2.0 * n * p / (p - n)
    grad_lp = sb._lp(sb._grad_norm(f), p, f)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        iz = tuple(rng.integers(0, np.array(f.extents)))
        iy = tuple(rng.integers(0, np.array(f.extents)))
        if iz == iy:
            continue
        z = f.origin + (np.array(iz) + 0.5) * f.h
        y = f.origin + (np.array(iy) + 0.5) * f.h
        denom = C * float(np.linalg.norm(z - y)) ** (1 - n / p) * grad_lp
        if denom > 0:
            worst = max(worst, abs(f.values[iz] - f.values[iy]) / denom)
    return worst


@pytest.mark.parametrize("extents, p", [([40], 1.5), ([3, 5], 2.5), ([64, 64], 4.0), ([6, 4, 5], 3.5)])
def test_morrey_ratio_matches_per_pair_scan(extents, p):
    # distances are summed as arrays, not by np.linalg.norm: a few ulps apart
    f = GridFunction.from_callable(
        lambda *x: sum(np.sin((d + 1) * xd) for d, xd in enumerate(x)),
        [-0.3] * len(extents), extents, 0.07,
    )
    for seed in range(5):
        want = _morrey_per_pair(f, p, 60, seed)
        assert sb.morrey_check(f, p, n_pairs=60, seed=seed) == pytest.approx(
            want, rel=4 * np.finfo(float).eps, abs=0
        )


def test_morrey_regime_guard():
    with pytest.raises(RegimeError):
        sb.morrey_check(bump_2d(), 2.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.5])
def test_sobolev_norm_needs_a_finite_exponent_of_at_least_one(p):
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        sb.sobolev_norm(bump_2d(32), p)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_morrey_check_needs_a_finite_exponent(p):
    # nan compared False with n, so p = nan passed the regime guard
    with pytest.raises(ValueError, match="n < p < inf"):
        sb.morrey_check(bump_2d(32), p)


def test_exponents_past_the_float_range():
    f = bump_2d(32, 1 / 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # OverflowError from (n^(p+1))^(1/p); an int p met an exact big-int power (MemoryError)
        lhs, rhs = sb.poincare_cube_check(f, [0.0, 0.0], 0.5, 1e308)
        assert math.isfinite(rhs) and lhs <= rhs
        assert sb.poincare_cube_check(f, [0.0, 0.0], 0.5, 10**30) == \
            sb.poincare_cube_check(f, [0.0, 0.0], 0.5, 1e30)
        # C = 2np/(p - n) overflowed to inf: a worst ratio of 0.0
        assert sb.morrey_check(f, 1e308) == sb.morrey_check(f, 1e300) > 0.0


@pytest.mark.filterwarnings("error")
def test_an_lp_sum_past_the_float_range_is_rescaled_by_the_largest_value():
    # the midpoint sum (p = 1) or |v|^p itself (p = 2) passes the float range: _lp rescales
    f = GridFunction(np.full((4, 4), 1e308), [0.0, 0.0], 0.25)
    assert sb._lp(f.values, 1, f) == 1e308
    assert sb._lp(f.values, 2, f) == 1e308


# --------------------------------------------------------------- 1-D variation


def test_variation_monotone_function():
    x = np.linspace(0, 1, 1000)
    assert sb.variation_1d(x**2) == pytest.approx(1.0)


def test_variation_sine_period():
    x = (np.arange(8192) + 0.5) * (2 * math.pi / 8192)
    assert sb.variation_1d(np.sin(x)) == pytest.approx(4.0, abs=1e-3)


def test_bv_norm_indicator_distance():
    N = 4096
    x = (np.arange(N) + 0.5) / N
    fa = (x <= 0.3).astype(float)
    fb = (x <= 0.7).astype(float)
    assert sb.bv_norm(fa - fb) == pytest.approx(2 + 0.4, abs=2 / N)


# ------------------------------------------------------ perimeter and variation


def test_perimeter_square_inside_box():
    S = RasterSet.from_predicate(
        lambda x, y: (np.abs(x - 0.5) <= 0.25) & (np.abs(y - 0.5) <= 0.25),
        [0, 0],
        [512, 512],
        1 / 512,
    )
    assert sb.perimeter(S) == pytest.approx(2.0, abs=0.02)


def test_perimeter_disk_raw_vs_corrected():
    E = RasterSet.from_predicate(
        lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 <= 0.16, [0, 0], [512, 512], 1 / 512
    )
    raw = sb.perimeter(E)
    corrected = sb.perimeter(E, corrected=True)
    true = 2 * math.pi * 0.4
    assert raw == pytest.approx(true * 4 / math.pi, rel=0.02)  # Manhattan bias
    assert corrected == pytest.approx(true, rel=0.01)


def test_perimeter_calibration_is_cached_per_lattice():
    first = sb.perimeter_calibration(2, 1 / 64)
    assert first == pytest.approx(4 / math.pi, rel=0.05)
    assert sb.perimeter_calibration(2, 1 / 64) == first
    assert sb.perimeter_calibration.cache_info().hits >= 1


@pytest.mark.parametrize("n, h", [(0, 0.1), (2, 0.0), (2, -0.1), (2, math.nan), (2, math.inf)])
def test_perimeter_calibration_rejects_bad_lattices(n, h):
    with pytest.raises(ValueError, match="^(n must be an int >= 1 |h must be finite and positive)"):
        sb.perimeter_calibration(n, h)


def _raster_calibration(n, h):
    """perimeter_calibration from the face count of the whole rasterized ball."""
    ball = RasterSet.from_predicate(
        lambda *xs: sum(x**2 for x in xs) <= 1.0, origin=[-1.2] * n, extents=[math.ceil(2.4 / h)] * n, h=h
    )
    return sb.perimeter(ball) / (n * omega(n))


# at h >= 0.4 a run of ball cells touches the box; the 3-D reference at
# 1/256 would be a raster of 615^3 cells, so it stops at 0.0173 (139^3)
@pytest.mark.parametrize("n, h", [(n, h) for n in (1, 2, 3)
                                  for h in (1.0, 0.5, 0.41, 0.4, 0.1, 1 / 16, 0.0173, 1 / 256)
                                  if n < 3 or h > 0.01])
def test_perimeter_calibration_keeps_the_raster_bits(n, h):
    assert sb.perimeter_calibration.__wrapped__(n, h) == _raster_calibration(n, h)


def test_perimeter_calibration_past_the_float_range_is_a_value_error():
    # the ball's one cell center squares to inf (a RuntimeWarning) before
    # the face weight h^2 passes the float range
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="face weight h\\^2"):
        sb.perimeter_calibration.__wrapped__(3, 1e200)


def _coarea_fields():
    rng = np.random.default_rng(11)
    for shape in [(61,), (13, 17), (7, 9, 11)]:
        for n_levels in (1, 7, 64):
            yield GridFunction(rng.standard_normal(shape), [0.1] * len(shape), 0.0625), n_levels
            # integers 0 .. 2 n_levels: every odd one is a level, tied with cells
            ints = rng.integers(0, 2 * n_levels + 1, shape).astype(float)
            ints.flat[:2] = 0, 2 * n_levels
            yield GridFunction(ints, [-0.5] * len(shape), 0.1), n_levels


@pytest.mark.parametrize("f, n_levels", list(_coarea_fields()))
def test_coarea_levels_keep_the_raster_bits(f, n_levels):
    rep = sb.variation_nd(f, "coarea", n_levels=n_levels)
    assert len(rep.per_level) == n_levels
    total = 0.0
    for t, pe in rep.per_level:
        want = sb.perimeter(RasterSet(f.values > t, f.origin, f.h), corrected=f.ndim >= 2)
        assert pe == want
        total += want * ((f.values.max() - f.values.min()) / n_levels)
    assert rep.tv == total


def test_calibration_and_coarea_stay_under_four_mib():
    bump = bump_2d(256, 1 / 256)
    # the 3-D ball at 1/96 was a raster of 231^3 cells (470 MiB traced)
    assert traced_peak(lambda: sb.perimeter_calibration.__wrapped__(3, 1 / 96)) < 4 * 2**20
    sb.perimeter_calibration.cache_clear()
    assert traced_peak(lambda: sb.variation_nd(bump, "coarea")) < 4 * 2**20


_masks = hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8))


def _moved(cells, data):
    """cells with its axes permuted and some of them flipped."""
    perm = data.draw(st.permutations(range(cells.ndim)))
    flips = data.draw(st.lists(st.sampled_from(range(cells.ndim)), unique=True))
    return np.flip(cells.transpose(perm), axis=tuple(flips))


@given(_masks, st.sampled_from([0.1, 0.25, 1 / 48]), st.data())
@settings(max_examples=200, deadline=None)
def test_perimeter_is_invariant_under_transposes_and_flips(mask, h, data):
    E, moved = RasterSet(mask, [0.0] * mask.ndim, h), _moved(mask, data)
    F = RasterSet(moved, [0.0] * mask.ndim, h)
    assert sb.perimeter(F) == sb.perimeter(E)
    assert sb.perimeter(F, corrected=True) == sb.perimeter(E, corrected=True)


@given(_masks, st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_perimeter_doubles_per_face_dimension_with_the_spacing(mask, h):
    n = mask.ndim
    assert sb.perimeter(RasterSet(mask, [0.0] * n, 2 * h)) == 2 ** (n - 1) * sb.perimeter(
        RasterSet(mask, [0.0] * n, h))


@given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=7),
                  elements=st.integers(-4, 4).map(float) | st.floats(-10, 10)),
       st.sampled_from([1, 7, 64]), st.data())
@settings(max_examples=100, deadline=None)
def test_coarea_is_invariant_under_transposes_and_flips(values, n_levels, data):
    origin = [0.0] * values.ndim
    rep = sb.variation_nd(GridFunction(values, origin, 0.125), "coarea", n_levels=n_levels)
    moved = sb.variation_nd(GridFunction(_moved(values, data), origin, 0.125), "coarea",
                            n_levels=n_levels)
    assert moved.tv == rep.tv
    assert moved.per_level == rep.per_level


def _full_grid_bump_field(f, seed, n_bumps=3):
    """seeded_bump_field from the public bump_value/bump_grad on every cell."""
    rng = np.random.default_rng(seed)
    lo = f.origin
    hi = f.origin + np.array(f.extents) * f.h
    pts = f.points()
    field = np.zeros((f.ndim,) + f.extents)
    div = np.zeros(f.extents)
    for d in range(f.ndim):
        for _ in range(n_bumps):
            c = lo + (0.1 + 0.8 * rng.random(f.ndim)) * (hi - lo)
            r = float((hi - lo).min()) * (0.15 + 0.35 * rng.random())
            amp = rng.standard_normal()
            field[d] += amp * bump_value(pts, c, r).reshape(f.extents)
            div += amp * bump_grad(pts, c, r)[..., d].reshape(f.extents)
    norm = np.sqrt((field**2).sum(axis=0)).max()
    if norm > 0:
        field /= norm
        div /= norm
    return field, div


def test_the_lattice_variation_keeps_the_hand_written_face_sums():
    # the sums perimeter, tonelli_variation, variation_1d and bv_norm wrote by hand
    mask = np.random.default_rng(0).random((5, 6, 7)) < 0.5
    faces = sum(int(np.abs(np.diff(mask.astype(np.int8), axis=d)).sum()) for d in range(3))
    assert sb.perimeter(RasterSet(mask, [0, 0, 0], 0.1)) == faces * 0.1 ** 2
    f = GridFunction(np.random.default_rng(1).standard_normal((9, 11)), [0.0, 0.0], 0.3)
    assert sb.tonelli_variation(f) == tuple(float(np.abs(np.diff(f.values, axis=d)).sum() * 0.3)
                                            for d in (0, 1))
    v = np.random.default_rng(2).standard_normal(50)
    assert sb.variation_1d(v) == float(np.abs(np.diff(v)).sum())
    for h, weight in ((None, 1 / 50), (0.3, 0.3)):
        assert sb.bv_norm(v, h) == float(np.abs(v).sum() * weight) + float(np.abs(np.diff(v)).sum())


@pytest.mark.parametrize("seed", range(40))
def test_seeded_bump_field_matches_full_grid_reference(seed):
    shape = [(301,), (37, 52), (11, 9, 13)][seed % 3]
    f = GridFunction(np.zeros(shape), [-0.31, 0.7, 0.05][: len(shape)], 0.0173)
    got = sb.seeded_bump_field(f, seed, n_bumps=1 + seed % 4)
    want = _full_grid_bump_field(f, seed, n_bumps=1 + seed % 4)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_variation_nd_methods_agree_on_bump():
    f = GridFunction.from_callable(
        lambda x, y: np.exp(-12 * ((x - 0.45) ** 2 + (y - 0.55) ** 2)),
        [0, 0],
        [256, 256],
        1 / 256,
    )
    grad = sb.variation_nd(f, "gradient-integral")
    coarea = sb.variation_nd(f, "coarea")
    divsup = sb.variation_nd(f, "divergence-sup")
    assert coarea.tv == pytest.approx(grad.tv, rel=0.02)
    assert divsup.tv <= grad.tv * 1.01  # lower bound by construction
    assert len(coarea.per_level) == 64


def test_variation_nd_unknown_method():
    f = GridFunction(np.zeros((8, 8)), [0, 0], 0.125)
    with pytest.raises(ValueError):
        sb.variation_nd(f, "bogus")


def test_tonelli_variation_separable():
    f = GridFunction.from_callable(
        lambda x, y: np.sin(3 * x) + np.cos(2 * y), [0, 0], [1024, 1024], 1 / 1024
    )
    vx, vy = sb.tonelli_variation(f)
    # per-line variations: sin(3x) rises to 1 then falls to sin 3;
    # cos(2y) falls monotonically from 1 to cos 2
    assert vx == pytest.approx(2 - math.sin(3), abs=1e-2)
    assert vy == pytest.approx(1 - math.cos(2), abs=1e-2)


# -------------------------------------------------------------- decomposition


def test_decompose_pure_jumps():
    rng = np.random.default_rng(7)
    N = 4096
    x = (np.arange(N) + 0.5) / N
    f = 0.5 * np.sin(2 * math.pi * x)
    locs = np.sort(rng.choice(np.arange(200, 3900), 8, replace=False))
    heights = rng.uniform(0.2, 1.5, 8) * np.where(rng.random(8) < 0.5, -1, 1)
    for l, ht in zip(locs, heights):
        f[l + 1:] += ht
    dec = sb.decompose_1d(f)
    assert len(dec.jump_locations) == 8
    found = sorted(round(p * N) - 1 for p, _ in dec.jump_locations)
    assert found == sorted(int(l) for l in locs)
    assert np.abs(dec.cantor_part).max() == 0.0


@pytest.mark.parametrize("samples", [[], [1.0], [0.0, math.nan, 1.0], [[0.0], [1.0]]],
                         ids=["empty", "one", "nan", "column"])
def test_decompose_needs_two_samples(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        sb.decompose_1d(samples)


def test_decompose_cantor_all_singular():
    N = 4096
    x = (np.arange(N) + 0.5) / N
    dec = sb.decompose_1d(cantor_function(x))
    assert len(dec.jump_locations) == 0
    assert np.abs(dec.ac_part).max() == 0.0
    assert dec.cantor_part[-1] - dec.cantor_part[0] == pytest.approx(1.0, abs=0.02)


def test_decompose_smooth_all_ac():
    N = 2048
    x = (np.arange(N) + 0.5) / N
    f = np.sin(2 * math.pi * x)
    dec = sb.decompose_1d(f)
    assert len(dec.jump_locations) == 0
    assert np.abs(dec.cantor_part).max() == 0.0
    assert dec.ac_part[-1] - dec.ac_part[0] == pytest.approx(f[-1] - f[0])


def test_decompose_parts_sum_to_f():
    rng = np.random.default_rng(1)
    f = np.cumsum(rng.standard_normal(512)) / 512
    dec = sb.decompose_1d(f)
    rebuilt = dec.ac_part + dec.jump_part + dec.cantor_part
    assert np.allclose(rebuilt, f - f[0], atol=1e-12)


# --------------------------------------------------------- lower semicontinuity


def test_lsc_mollified_steps():
    from gmtkit.smoothing import make_standard_mollifier, mollify

    N = 4096
    h = 1 / N
    x = (np.arange(N) + 0.5) * h
    step = GridFunction((x > 0.5).astype(float), [0.0], h)
    seq = []
    for eps in (0.05, 0.02, 0.01):
        m = mollify(step, make_standard_mollifier(1, eps))
        pad = round((m.origin[0] - step.origin[0]) / h)
        vals = np.concatenate(
            [
                np.full(pad, m.values[0]),
                m.values,
                np.full(N - pad - m.values.size, m.values[-1]),
            ]
        )
        seq.append(GridFunction(vals, [0.0], h))
    liminf, tv_limit = sb.lsc_check(seq, step)
    assert tv_limit <= liminf + 1e-9


def test_lsc_oscillation_drops_variation():
    # f_k = sin(2 pi k x)/k converges to 0 in L1 with variation 4 each
    N = 8192
    h = 1 / N
    x = (np.arange(N) + 0.5) * h
    seq = [
        GridFunction(np.sin(2 * math.pi * k * x) / k, [0.0], h) for k in (1, 2, 4)
    ]
    zero = GridFunction(np.zeros(N), [0.0], h)
    liminf, tv_limit = sb.lsc_check(seq, zero)
    assert tv_limit == 0.0
    assert liminf == pytest.approx(4.0, abs=0.01)


def test_lsc_on_two_dimensional_grids():
    # f_k = sin(2 pi k x)/k on the unit square: variation 4 each, L1 limit 0
    h = 1 / 64
    seq = [GridFunction.from_callable(lambda x, y, k=k: np.sin(2 * math.pi * k * x) / k,
                                      [0.0, 0.0], [64, 64], h) for k in (1, 2, 4)]
    liminf, tv_limit = sb.lsc_check(seq, GridFunction(np.zeros((64, 64)), [0.0, 0.0], h))
    assert tv_limit == 0.0
    assert liminf == pytest.approx(4.0, abs=0.1)


def test_lsc_rejects_mismatched_lattices():
    a = GridFunction(np.zeros(10), [0.0], 0.1)
    b = GridFunction(np.zeros(20), [0.0], 0.05)
    with pytest.raises(ValueError):
        sb.lsc_check([a], b)


_CUBE_AT_1E200 = RasterSet(np.indices((2, 2, 2)).sum(axis=0) % 2 == 1, [0, 0, 0], 1e200)  # 12 faces
_ROW_PAST_THE_RANGE = GridFunction([1e308, -1e308], [0.0], 0.5)
_UNIT_STEP = np.r_[np.zeros(20), np.ones(20)] + 0.01 * np.sin(np.arange(40))

_BAD_ARGUMENTS = {
    # ZeroDivisionError, and a coarea sum on 2.5 levels (1.2260740218372004)
    "coarea-n-levels-0": ("n_levels must be an int >= 1",
                          lambda: sb.variation_nd(bump_2d(32), "coarea", n_levels=0)),
    "coarea-n-levels-2.5": ("n_levels must be an int >= 1",
                            lambda: sb.variation_nd(bump_2d(32), "coarea", n_levels=2.5)),
    "divergence-n-fields-0": ("n_fields must be an int >= 1",
                              lambda: sb.variation_nd(bump_2d(32), "divergence-sup", n_fields=0)),
    "bump-field-n-bumps-2.5": ("n_bumps must be an int >= 1",
                               lambda: sb.seeded_bump_field(bump_2d(32), 1, n_bumps=2.5)),
    # TypeError, and no cubes (a BMO seminorm of 0) for 0 generations
    "dyadic-generations-2.5": ("generations must be an int >= 1",
                               lambda: sb.dyadic_cubes(bump_2d(32), 2.5)),
    "bmo-generations-0": ("generations must be an int >= 1",
                          lambda: sb.bmo_seminorm(bump_2d(32), generations=0)),
    "perimeter-calibration-n-1.5": ("n must be an int >= 1", lambda: sb.perimeter_calibration(1.5, 0.1)),
    # OverflowError from the int cast of 2.4 / h
    "perimeter-calibration-h-1e-308": ("2.4 / h", lambda: sb.perimeter_calibration(2, 1e-308)),
    "perimeter-calibration-h-5e-324": ("2.4 / h", lambda: sb.perimeter_calibration(2, 5e-324)),
    # OverflowError: an int past the float range passed the p rule
    "poincare-p-10**400": ("p must be finite and >= 1",
                           lambda: sb.poincare_cube_check(bump_2d(32, 1 / 32), [0.0, 0.0], 0.5, 10**400)),
    "morrey-p-10**400": ("n < p < inf", lambda: sb.morrey_check(bump_2d(32), 10**400)),
    # ZeroDivisionError, and (nan, nan)
    "poincare-p-0": ("p must be finite and >= 1",
                     lambda: sb.poincare_cube_check(bump_2d(32, 1 / 32), [0.0, 0.0], 0.5, 0.0)),
    "poincare-p-nan": ("p must be finite and >= 1",
                       lambda: sb.poincare_cube_check(bump_2d(32, 1 / 32), [0.0, 0.0], 0.5, math.nan)),
    # a worst ratio of 0 from no pairs
    "morrey-n-pairs-0": ("n_pairs must be an int >= 1",
                         lambda: sb.morrey_check(bump_2d(32), 4.0, n_pairs=0)),
    # only the shapes were compared
    "lsc-other-lattice": ("share one lattice", lambda: sb.lsc_check(
        [GridFunction(np.zeros(10), [0.5], 0.1)], GridFunction(np.zeros(10), [0.0], 0.1))),
    # ZeroDivisionError, nan, nan
    "bv-norm-empty": ("at least 2 samples", lambda: sb.bv_norm([])),
    "bv-norm-h-nan": ("h must be finite and positive", lambda: sb.bv_norm([0, 1, 0.5], h=math.nan)),
    "variation-nan-sample": ("at least 2 samples", lambda: sb.variation_1d([0.0, math.nan])),
    # a jump at x = -20.0
    "decompose-h--1": ("h must be finite and positive", lambda: sb.decompose_1d(_UNIT_STEP, h=-1.0)),
    # no jump for each of the next three, TypeError for the last
    "decompose-jump-threshold-nan": ("jump_threshold must be finite and positive",
                                     lambda: sb.decompose_1d(_UNIT_STEP, jump_threshold=math.nan)),
    "decompose-dominance-2": ("dominance must be finite and positive and <= 1",
                              lambda: sb.decompose_1d(_UNIT_STEP, dominance=2.0)),
    "decompose-dominance-nan": ("dominance must be finite and positive and <= 1",
                                lambda: sb.decompose_1d(_UNIT_STEP, dominance=math.nan)),
    "decompose-window-2.5": ("window must be an int >= 1", lambda: sb.decompose_1d(_UNIT_STEP, window=2.5)),
    # OverflowError (34, 'Numerical result out of range') from h ** (n - 1)
    "perimeter-h-1e200": ("^spacing h = 1e\\+200 makes the face weight h\\^2 pass the float range",
                          lambda: sb.perimeter(_CUBE_AT_1E200)),
    "perimeter-corrected-h-1e200": ("face weight h\\^2", lambda: sb.perimeter(_CUBE_AT_1E200, corrected=True)),
    # overflow encountered in reduce
    "tonelli-past-the-float-range": ("^a lattice sum on spacing h = 10.0 passes the float range",
                                     lambda: sb.tonelli_variation(
                                         GridFunction([[0, 1e308], [-1e308, 0]], [0, 0], 10.0))),
    "bv-norm-past-the-float-range": ("passes the float range", lambda: sb.bv_norm([1e308, 1e308], h=1e308)),
    # overflow encountered in subtract
    "variation-past-the-float-range": ("passes the float range", lambda: sb.variation_1d([1e308, -1e308])),
    "lsc-1d-past-the-float-range": ("passes the float range",
                                    lambda: sb.lsc_check([_ROW_PAST_THE_RANGE], _ROW_PAST_THE_RANGE)),
}


@pytest.mark.parametrize("name", list(_BAD_ARGUMENTS))
def test_bad_arguments_are_value_errors(name):
    match, call = _BAD_ARGUMENTS[name]
    with pytest.raises(ValueError, match=match):
        call()
