import itertools
import math

import numpy as np
import pytest

from conftest import traced_peak, z_squared_map
from gmtkit import area as ar
from gmtkit.errors import NonConvergenceError
from gmtkit.grids import GridFunction, RasterSet
from gmtkit.hausdorff import SingularMapError


# ---------------------------------------------------------------- linear maps


def test_j_linear_square_is_abs_det():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    assert ar.j_linear(ar.LinearMap(A)) == pytest.approx(abs(np.linalg.det(A)), rel=1e-12)


def test_j_linear_cross_product_oracle():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((3, 2))
    expected = np.linalg.norm(np.cross(M[:, 0], M[:, 1]))
    assert ar.j_linear(ar.LinearMap(M)) == pytest.approx(expected, rel=1e-12)


def test_cauchy_binet_single_column():
    v = np.array([[1.0], [2.0], [-2.0]])
    assert ar.cauchy_binet(ar.LinearMap(v)) == pytest.approx(3.0)


def test_cauchy_binet_symbolic_2x3():
    a, b, c, d, e, f = 1.2, -0.7, 0.4, 2.1, -1.5, 0.9
    T = ar.LinearMap(np.array([[a, b], [c, d], [e, f]]))
    expected = math.sqrt(
        (a * d - b * c) ** 2 + (c * f - e * d) ** 2 + (a * f - b * e) ** 2
    )
    assert ar.cauchy_binet(T) == pytest.approx(expected, rel=1e-12)


def test_cauchy_binet_matches_j_linear_battery():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 7))
        T = ar.LinearMap(rng.standard_normal((n, k)))
        assert abs(ar.j_linear(T) - ar.cauchy_binet(T)) <= 1e-10


def test_j_linear_orthogonal_invariance():
    rng = np.random.default_rng(9)
    T = ar.LinearMap(rng.standard_normal((5, 3)))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert ar.j_linear(ar.LinearMap(Q @ T.matrix)) == pytest.approx(
        ar.j_linear(T), rel=1e-10
    )


def test_wide_matrix_rejected():
    with pytest.raises(ValueError):
        ar.LinearMap(np.ones((2, 3)))


def test_image_measure_diagonal_embedding():
    E = RasterSet(np.ones(1000, dtype=bool), [0.0], 1 / 1000)
    out = ar.image_measure_linear(ar.LinearMap([[1.0], [1.0]]), E)
    assert out == pytest.approx(math.sqrt(2))


def test_image_measure_scaling():
    E = RasterSet(np.ones((100, 100), dtype=bool), [0.0, 0.0], 0.01)
    assert ar.image_measure_linear(ar.LinearMap(2 * np.eye(2)), E) == pytest.approx(4.0)


def test_image_measure_rejects_singular():
    E = RasterSet(np.ones(10, dtype=bool), [0.0], 0.1)
    with pytest.raises(SingularMapError):
        ar.image_measure_linear(ar.LinearMap([[0.0], [0.0]]), E)


# -------------------------------------------------------------- curve length


def test_helix_length():
    assert ar.curve_length(ar.builtin_map("helix")) == pytest.approx(
        math.sqrt(2), abs=1e-8
    )


def test_segment_length():
    seg = ar.ParametricMap(
        lambda p: np.concatenate([2 * p, 3 * p], axis=1),
        [0.0],
        [1.0],
        n=2,
        injective=True,
    )
    assert ar.curve_length(seg) == pytest.approx(math.sqrt(13), abs=1e-8)


def test_circle_arc_length_fd_jacobian():
    arc = ar.ParametricMap(
        lambda p: np.stack([np.cos(p[:, 0]), np.sin(p[:, 0])], axis=1),
        [0.0],
        [math.pi],
        n=2,
        injective=True,
    )
    assert ar.curve_length(arc) == pytest.approx(math.pi, abs=1e-8)


def test_curve_length_requires_injectivity_flag():
    with pytest.raises(ValueError):
        ar.curve_length(ar.builtin_map("fold", laps=2))


@pytest.mark.parametrize("name, params, takes", [
    ("polar", {"lo": 0.0}, "it takes r_hi"),
    ("polar", {"lo": 0.0, "hi": 2.0}, "it takes r_hi"),
    ("fold", {"lapz": 9}, "it takes laps"),
    ("sphere", {"lo": 0.0, "hi": 1.0}, "it takes no parameters"),
    ("helix", {"r_hi": 2.0}, "it takes lo, hi"),
])
def test_builtin_map_rejects_a_parameter_it_does_not_take(name, params, takes):
    with pytest.raises(ValueError, match=f"does not take {', '.join(sorted(params))}; {takes}$"):
        ar.builtin_map(name, **params)


def test_builtin_map_parameters_set_the_map():
    assert ar.builtin_map("polar", r_hi=0.5).domain_hi.tolist() == [0.5, math.pi]
    assert ar.builtin_map("square", lo=0.5, hi=2.0).injective
    assert ar.builtin_map("fold", laps=3)(np.array([[0.5]])).tolist() == [[0.5]]
    with pytest.raises(ValueError, match="unknown builtin map 'torus'"):
        ar.builtin_map("torus")


@pytest.mark.parametrize("params", [{"lo": math.nan}, {"hi": math.inf}, {"lo": -math.inf},
                                    {"hi": math.nan}])
def test_non_finite_domain_bounds_are_rejected(params):
    with pytest.raises(ValueError, match="finite"):
        ar.curve_length(ar.builtin_map("helix", **params))
    with pytest.raises(ValueError, match="finite"):
        ar.ParametricMap(lambda p: p, [0.0, 0.0], [1.0, params.get("hi", params.get("lo"))], n=2)


@pytest.mark.parametrize("lo, hi", [(-1e200, 1e200), (0.0, 1.4e154), (-1.4e154, 0.0)])
def test_square_needs_a_finite_image(lo, hi):
    # x^2 overflowed in the evaluator: the area formula returned (nan, inf)
    with pytest.raises(ValueError, match="image of .* is not finite"):
        ar.builtin_map("square", lo=lo, hi=hi)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r_hi", [1e308, 1e200, 7.6e153])
def test_polar_needs_a_finite_area(r_hi):
    # r^2 overflowed in the Jacobian: surface_measure warned and returned inf
    with pytest.raises(ValueError, match="polar's image of radius .* has an area past the float range"):
        ar.builtin_map("polar", r_hi=r_hi)


@pytest.mark.filterwarnings("error")
def test_polar_at_the_end_of_the_float_range_keeps_its_area():
    r_hi = 7.56e153  # pi r_hi^2 = 1.7955e308
    assert ar.surface_measure(ar.builtin_map("polar", r_hi=r_hi)) == pytest.approx(math.pi * r_hi**2)


def test_curve_length_near_the_float_range_stays_finite():
    # 4 * fine overflowed in the Richardson step: inf for a length of sqrt(2) * 1e308
    length = ar.curve_length(ar.builtin_map("helix", lo=0.0, hi=1e308))
    assert length == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


def _plane_curve(f, a, b, jacobian=None):
    return ar.ParametricMap(lambda p: np.concatenate(f(p), axis=1), [a], [b], n=2,
                            jacobian=jacobian, injective=True)


def _sin20_length():
    # sqrt(401 - 400 sin^2 u) integrates to an incomplete elliptic integral
    # of the second kind; only this reference needs scipy
    ellipeinc = pytest.importorskip("scipy.special").ellipeinc
    return math.sqrt(401) / 20 * float(ellipeinc(20.0, 400 / 401))


@pytest.mark.parametrize(
    "curve, exact",
    [
        # central-difference speed
        (_plane_curve(lambda p: [p, p**2], 0.0, 10.0),
         lambda: 5 * math.sqrt(401) + math.asinh(20) / 4),
        # the speed |t| sqrt(9t^2 + 4) has a kink at 0
        (_plane_curve(lambda p: [p**3, p**2], -1.0, 2.0,
                      lambda p: np.stack([3 * p**2, 2 * p], axis=1)),
         lambda: (40**1.5 + 13**1.5 - 16) / 27),
        # central-difference speed
        (_plane_curve(lambda p: [p, np.sin(20 * p)], 0.0, 1.0), _sin20_length),
    ],
    ids=["parabola-fd", "cusp-kink", "sin20-fd"],
)
def test_curve_length_closed_forms(curve, exact):
    assert abs(ar.curve_length(curve) - exact()) <= 1e-10


# ---------------------------------------------------------------- graph area


def test_graph_area_flat():
    f = GridFunction(np.zeros((128, 128)), [0, 0], 1 / 128)
    assert ar.graph_area(f) == pytest.approx(1.0)


def test_graph_area_tilted_plane():
    f = GridFunction.from_callable(lambda x, y: 2.0 * x, [0, 0], [256, 256], 1 / 256)
    assert ar.graph_area(f) == pytest.approx(math.sqrt(5), abs=1e-4)


def test_graph_area_paraboloid_on_disk():
    h = 2 / 512
    f = GridFunction.from_callable(
        lambda x, y: (x**2 + y**2) / 2, [-1, -1], [512, 512], h
    )
    gx, gy = f.meshgrid()
    mask = gx**2 + gy**2 <= 1.0
    # oracle: 2 pi int_0^1 sqrt(1 + r^2) r dr = 2 pi (2 sqrt 2 - 1) / 3
    oracle = 2 * math.pi * (2 * math.sqrt(2) - 1) / 3
    assert ar.graph_area(f, mask=mask) == pytest.approx(oracle, abs=2e-2)


# ------------------------------------------------------------ surface measure


def test_surface_measure_polar_disk():
    assert ar.surface_measure(ar.builtin_map("polar")) == pytest.approx(
        math.pi, abs=1e-6
    )


def test_surface_measure_sphere():
    assert ar.surface_measure(ar.builtin_map("sphere")) == pytest.approx(
        4 * math.pi, abs=1e-3
    )


def test_surface_measure_linear_matches_image_measure():
    M = np.array([[1.0, 0.5], [0.0, 1.0], [0.5, 0.5]])
    phi = ar.ParametricMap(
        lambda p: p @ M.T, [0.0, 0.0], [1.0, 1.0], n=3, injective=True
    )
    E = RasterSet(np.ones((64, 64), dtype=bool), [0.0, 0.0], 1 / 64)
    lhs = ar.surface_measure(phi, E, m=64)
    rhs = ar.image_measure_linear(ar.LinearMap(M), E)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_surface_measure_parameter_translation_invariance():
    # re-parametrize the chart by a translation of the parameter box
    phi = ar.builtin_map("polar")
    shift = np.array([0.2, -0.4])
    psi = ar.ParametricMap(
        lambda p: phi(p - shift),
        phi.domain_lo + shift,
        phi.domain_hi + shift,
        n=2,
        injective=True,
    )
    a = ar.surface_measure(phi, m=128)
    b = ar.surface_measure(psi, m=128)
    assert b == pytest.approx(a, abs=1e-9)


# ----------------------------------------------------- blocked midpoint sums


def _whole_array_cell_sum(phi, E, m, u=None):
    """Reference midpoint sum: J on all m**k cell centers at once, then one
    sum."""
    steps = (phi.domain_hi - phi.domain_lo) / m
    axes = [phi.domain_lo[d] + (np.arange(m) + 0.5) * steps[d] for d in range(phi.k)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    J = phi.j_at(pts, float(steps.min()) / 4)
    if u is not None:
        J = J * u(pts)
    if E is not None:
        J = np.where(E.contains(pts), J, 0.0)
    return float(J.sum() * np.prod(steps))


def _spherical_ball():
    """(r, theta, phi) -> R^3 on ]0,1[ x ]0,pi[ x ]0,2pi[, no analytic
    Jacobian: k = 3, J = r^2 sin theta."""
    def ball(p):
        r, th, ph = p[:, 0], p[:, 1], p[:, 2]
        return np.stack(
            [r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph), r * np.cos(th)], axis=1
        )

    return ar.ParametricMap(ball, [0.0, 0.0, 0.0], [1.0, math.pi, 2 * math.pi], n=3, injective=True)


_POLAR = ar.builtin_map("polar")
# (map, a raster of its domain, an m within one block, an m whose rows do
# not split evenly into blocks)
_BLOCKED_CASES = {
    "helix-k1": (
        ar.builtin_map("helix"),
        RasterSet.from_predicate(lambda x: x < 0.6, [0.0], [100], 0.01),
        1000,
        100_000,
    ),
    "polar-k2": (
        _POLAR,
        RasterSet.from_predicate(lambda r, t: r < 0.5, [0.0, -math.pi], [64, 64], math.pi / 32),
        100,
        300,
    ),
    "sphere-k2-n3": (
        ar.builtin_map("sphere"),
        RasterSet.from_predicate(lambda th, ph: th < 1.0, [0.0, 0.0], [32, 64], math.pi / 32),
        64,
        300,
    ),
    "polar-fd-jacobian": (
        ar.ParametricMap(_POLAR.evaluator, _POLAR.domain_lo, _POLAR.domain_hi, n=2),
        RasterSet.from_predicate(lambda r, t: t < 1.0, [0.0, -math.pi], [64, 64], math.pi / 32),
        100,
        300,
    ),
    "ball-k3-fd-jacobian": (
        _spherical_ball(),
        RasterSet.from_predicate(
            lambda r, th, ph: r < 0.5, [0.0, 0.0, 0.0], [3, 8, 16], math.pi / 8
        ),
        16,
        50,
    ),
}


@pytest.mark.parametrize("name", list(_BLOCKED_CASES))
@pytest.mark.parametrize("seam", [False, True], ids=["one-block", "seams"])
@pytest.mark.parametrize("restricted", [False, True], ids=["box", "raster"])
@pytest.mark.parametrize("weighted", [False, True], ids=["J", "uJ"])
def test_blocked_cell_sum_matches_whole_array_sum(name, seam, restricted, weighted):
    phi, E, m_one, m_seams = _BLOCKED_CASES[name]
    m = m_seams if seam else m_one
    rows = max(1, ar._BLOCK_CELLS // m ** (phi.k - 1))
    assert (m % rows != 0) if seam else (m <= rows)
    E = E if restricted else None
    u = (lambda p: 1.0 + p[:, 0] ** 2) if weighted else None
    assert ar._cell_sum(phi, E, m, u) == _whole_array_cell_sum(phi, E, m, u)


@pytest.mark.parametrize("name", list(_BLOCKED_CASES))
def test_blocked_cell_sum_with_one_row_per_block(name, monkeypatch):
    phi, E, m, _ = _BLOCKED_CASES[name]
    monkeypatch.setattr(ar, "_BLOCK_CELLS", 1)
    u = lambda p: np.cos(p[:, 0])
    assert ar._cell_sum(phi, E, m, u) == _whole_array_cell_sum(phi, E, m, u)


def _fixed_jacobian(J):
    """A map whose Jacobian at the i-th of N points is J[i]."""
    n = J.shape[1]
    return ar.ParametricMap(lambda p: np.zeros((len(p), n)), [0.0, 0.0], [1.0, 1.0], n=n,
                            jacobian=lambda p: J)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_gram_determinant_matches_det(n):
    rng = np.random.default_rng(n)
    J = rng.standard_normal((4000, n, 2))
    a, b, c = ((J[:, :, i] * J[:, :, j]).sum(axis=1) for i, j in ((0, 0), (0, 1), (1, 1)))
    # columns at least 30 degrees apart, so neither side loses digits to
    # cancellation in a c - b^2
    J = J[a * c - b * b >= 0.25 * a * c]
    det = np.linalg.det(np.einsum("pik,pil->pkl", J, J))
    got = _fixed_jacobian(J).j_at(np.zeros((len(J), 2)), 1.0)
    np.testing.assert_allclose(got, np.sqrt(det), rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_gram_determinant_of_rank_deficient_jacobians_is_zero(n):
    d0 = np.random.default_rng(10 + n).standard_normal((50, n))
    # a zero column, and the first column scaled by a power of two or
    # negated: a c - b^2 is exactly 0, where det of the Gram matrix can
    # leave rounding noise of either sign
    second = [np.zeros_like(d0), d0, -d0, 2.0 * d0, 0.125 * d0, -8.0 * d0]
    J = np.concatenate([np.stack([d0, d1], axis=2) for d1 in second])
    got = _fixed_jacobian(J).j_at(np.zeros((len(J), 2)), 1.0)
    assert np.all(got == 0.0)
    # any other scaling leaves a c - b^2 at rounding level, which the clamp
    # keeps nonnegative
    J = np.stack([d0, d0 * np.random.default_rng(n).uniform(-3, 3, (50, 1))], axis=2)
    got = _fixed_jacobian(J).j_at(np.zeros((len(J), 2)), 1.0)
    scale = np.linalg.norm(J[:, :, 0], axis=1) * np.linalg.norm(J[:, :, 1], axis=1)
    assert np.all((got >= 0.0) & (got <= 1e-7 * scale))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ar.surface_measure(ar.builtin_map("sphere")),
        lambda: ar._cell_sum(ar.builtin_map("polar"), None, 512, lambda p: p[:, 0] ** 2),
    ],
    ids=["surface-measure-sphere", "cell-sum-polar-512-u"],
)
def test_cell_sums_stay_under_eight_mib(call):
    # one block of cells, not all 512^2 of them, holds its Jacobian
    assert traced_peak(call) < 8 * 2**20


# --------------------------------------------------------------- multiplicity


def test_multiplicity_square_two_preimages():
    prof = ar.multiplicity(ar.builtin_map("square"), [0.25])
    assert prof.stabilized
    assert prof.count == 2


def test_multiplicity_square_empty_preimage():
    prof = ar.multiplicity(ar.builtin_map("square"), [-1.0])
    assert prof.count == 0


def test_multiplicity_sin3_six_roots():
    phi = ar.ParametricMap(lambda p: np.sin(3 * p), [0.0], [2 * math.pi], n=1)
    prof = ar.multiplicity(phi, [0.5])
    assert prof.count == 6


def test_multiplicity_that_never_settles_has_no_count():
    # sin 40x takes 0.5 at 80 points, which depths 4-6 do not yet resolve
    phi = ar.ParametricMap(lambda p: np.sin(40 * p), [0.0], [2 * math.pi], n=1)
    prof = ar.multiplicity(phi, [0.5], depths=range(4, 7))
    assert (prof.counts, prof.count, prof.stabilized) == ((0, 16, 48), None, False)
    assert ar.multiplicity(phi, [0.5]).count == 80


def test_signed_det_of_polar_is_r_and_needs_k_equal_n():
    pts = np.array([[0.5, 0.3], [0.25, -2.0]])
    assert ar.builtin_map("polar").signed_det(pts, 1e-4) == pytest.approx([0.5, 0.25], rel=1e-14)
    with pytest.raises(ValueError, match="needs k = n"):
        ar.builtin_map("helix").signed_det(np.array([[0.5]]), 1e-4)


def test_multiplicity_monotone_on_growing_sets():
    phi = ar.ParametricMap(lambda p: np.sin(3 * p), [0.0], [2 * math.pi], n=1)
    counts = []
    for frac in (0.25, 0.5, 1.0):
        E = RasterSet.from_predicate(
            lambda x: x <= frac * 2 * math.pi, [0.0], [4096], 2 * math.pi / 4096
        )
        counts.append(ar.multiplicity(phi, [0.5], E=E).count)
    assert counts == sorted(counts)


# ---------------------------------------------- area formula and substitution


def test_area_formula_square_map():
    lhs, rhs = ar.area_formula_with_multiplicity(ar.builtin_map("square"), n_y=8192)
    assert rhs == pytest.approx(2.0, abs=1e-6)  # int |2x| over [-1, 1]
    assert lhs == pytest.approx(2.0, abs=1e-3)


def test_area_formula_fold_three_laps():
    lhs, rhs = ar.area_formula_with_multiplicity(ar.builtin_map("fold", laps=3), n_y=8192)
    assert rhs == pytest.approx(3.0, abs=0.01)
    assert lhs == pytest.approx(3.0, abs=0.01)
    # a priori bound: int N <= Lip^k * measure of the domain
    assert lhs <= 3.0 * 1.0 + 0.01


def test_change_of_variables_reduces_to_area_formula():
    phi = ar.builtin_map("fold", laps=2)
    lhs_c, rhs_c = ar.change_of_variables(phi, lambda p: np.ones(len(p)), n_y=4096)
    lhs_a, rhs_a = ar.area_formula_with_multiplicity(phi, n_y=4096)
    assert lhs_c == pytest.approx(rhs_a, abs=0.01)
    assert rhs_c == pytest.approx(lhs_a, abs=0.01)


def test_change_of_variables_substitution():
    phi = ar.builtin_map("square", lo=0.0, hi=1.0)
    lhs, rhs = ar.change_of_variables(phi, lambda p: p[:, 0], n_y=8192)
    assert lhs == pytest.approx(2 / 3, abs=1e-6)  # int x * 2x dx
    assert rhs == pytest.approx(2 / 3, abs=5e-3)


def _partition_vertices(phi, depth):
    """Vertices lo + i (hi - lo) / 2^depth of the depth-indexed partition
    of phi's domain, per axis."""
    m = 2**depth
    return [phi.domain_lo[d] + np.arange(m + 1) * ((phi.domain_hi[d] - phi.domain_lo[d]) / m)
            for d in range(phi.k)]


def _preimage_sum_per_y(phi, u, E, n_y, depth):
    """Reference rhs of the 1-D change of variables, one y and one cell at a
    time: cell [a, b] holds a preimage of y when min(Phi a, Phi b) <= y <
    max(Phi a, Phi b), the linear interpolate; each y's sum runs left to
    right, and the integral is the whole sum of the per-y totals times dy."""
    (ys,), dy = ar._y_grid(phi, n_y)
    (corners,) = _partition_vertices(phi, depth)
    step = (phi.domain_hi[0] - phi.domain_lo[0]) / 2**depth
    vals = phi(corners[:, None])[:, 0].tolist()
    centers = 0.5 * (corners[:-1] + corners[1:])
    member = [True] * len(centers) if E is None else E.contains(centers[:, None]).tolist()
    totals = []
    for y in ys.tolist():
        total = 0.0
        for i, (fa, fb) in enumerate(zip(vals[:-1], vals[1:])):
            if member[i] and min(fa, fb) <= y < max(fa, fb):
                x = corners[i] + (y - fa) / (fb - fa) * step
                total += float(u(np.array([[x]]))[0])
        totals.append(total)
    return float(np.sum(totals)) * dy


@pytest.mark.parametrize("laps", [3, 5])
@pytest.mark.parametrize("restricted", [False, True])
def test_change_of_variables_rhs_matches_per_y_scan(laps, restricted):
    phi = ar.builtin_map("fold", laps=laps)
    E = RasterSet.from_predicate(lambda x: np.sin(20 * x) > 0, [0.0], [64], 1 / 64)
    E = E if restricted else None
    u = lambda p: np.exp(p[:, 0]) * p[:, 0] ** 3 + 0.1
    _, rhs = ar.change_of_variables(phi, u, E=E, n_y=300, depth=9, m_cells=256)
    assert rhs == _preimage_sum_per_y(phi, u, E, 300, 9)


def test_change_of_variables_polar():
    lhs, rhs = ar.change_of_variables(
        ar.builtin_map("polar"), lambda p: np.ones(len(p))
    )
    assert lhs == pytest.approx(math.pi, abs=1e-6)
    assert rhs == pytest.approx(math.pi, rel=0.05)


WARP = ar.ParametricMap(
    lambda p: np.stack([p[:, 0] + 0.3 * np.sin(p[:, 1]), p[:, 1] + 0.2 * p[:, 0] ** 2], axis=1),
    [0.0, 0.0], [1.0, 1.0], n=2, injective=True,
)
POLAR_H = 2 * math.pi / 64
POLAR_HALF_DISK = RasterSet.from_predicate(lambda r, t: r < 0.5, [0.0, -math.pi], [64, 64], POLAR_H)
POLAR_WEDGE = RasterSet.from_predicate(lambda r, t: t > 0.3, [0.0, -math.pi], [64, 64], POLAR_H)
WARP_DISK = RasterSet.from_predicate(
    lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1, [0.0, 0.0], [64, 64], 1 / 64
)
S1, C1 = math.sin(1), math.cos(1)


@pytest.mark.parametrize(
    "phi, u, E, exact, bound",
    [
        (ar.builtin_map("polar"), lambda p: np.ones(len(p)), None, math.pi, 0.0107),
        (ar.builtin_map("polar"), lambda p: p[:, 0] ** 2, None, math.pi / 2, 0.0213),
        (ar.builtin_map("polar"), lambda p: p[:, 0] ** 2, POLAR_HALF_DISK, None, 0.0175),
        (ar.builtin_map("polar"), lambda p: 2 + np.cos(p[:, 1]), None, 2 * math.pi, 0.0107),
        (ar.builtin_map("polar"), lambda p: np.ones(len(p)), POLAR_WEDGE, None, 0.0136),
        (ar.builtin_map("polar"), lambda p: p[:, 0] ** 3, POLAR_WEDGE, None, 0.0271),
        # det DPhi = 1 - 0.12 x cos y
        (WARP, lambda p: np.ones(len(p)), None, 1 - 0.06 * S1, 0.01),
        (WARP, lambda p: p[:, 0] * p[:, 1] + 1, None,
         1.25 - 0.04 * (C1 + S1 - 1) - 0.06 * S1, 0.01),
        (WARP, lambda p: np.ones(len(p)), WARP_DISK, None, 0.01),
        # two sheets: int N = int |det DPhi| = 32/3
        (z_squared_map([-1.0, -1.0], [1.0, 1.0]), lambda p: np.ones(len(p)), None, 32 / 3, 0.011),
    ],
    ids=["polar-1", "polar-r2", "polar-r2-half-disk", "polar-2+cos", "polar-1-wedge",
         "polar-r3-wedge", "warp-1", "warp-xy+1", "warp-1-disk", "z2-1"],
)
def test_two_dimensional_change_of_variables_rhs_error(phi, u, E, exact, bound):
    # bounds: the polar errors of the former nearest-sample locator,
    # rounded up; 1 % for the warp; about the polar u = 1 error for z^2,
    # which that locator could not do.  Under a raster the lhs is the
    # reference, since E is only resolved to its cells.
    lhs, rhs = ar.change_of_variables(phi, u, E=E)
    want = lhs if exact is None else exact
    assert abs(rhs - want) <= bound * want


def test_two_dimensional_lhs_is_no_coarser_above_the_default_cell_count():
    # 512 cells per axis at m_cells <= 4096; above, round(sqrt(m_cells))
    # cells per axis, so 4097 gave 64 per axis and an error 64 times larger
    phi, u = ar.builtin_map("polar"), lambda p: p[:, 0] ** 2
    err = {m: abs(ar.change_of_variables(phi, u, m_cells=m)[0] - math.pi / 2)
           for m in (4096, 4097, 16384)}
    assert err[4096] < 4e-6
    assert err[4097] <= err[4096] and err[16384] <= err[4096]


@pytest.mark.parametrize("phi", [ar.builtin_map("polar"), z_squared_map([-1.0, -1.0], [1.0, 1.0])],
                         ids=["polar", "z2"])
def test_two_dimensional_change_of_variables_of_one_is_multiplicity_integral(phi):
    y_axes, cell = ar._y_grid(phi, 128)
    want = float(ar._preimage_sums(phi, None, 9, y_axes).sum()) * cell
    assert ar.change_of_variables(phi, lambda p: np.ones(len(p)))[1] == want


@pytest.mark.parametrize("E, want", [(None, 3.160120125603282), (POLAR_HALF_DISK, 0.7646814742435749)],
                         ids=["disk", "half-disk"])
def test_two_dimensional_change_of_variables_reads_its_grid(E, want):
    # n_y and depth set the k = 2 y-grid: at 64 x 64 and depth 7 the u = 1
    # rhs is jacobian_l1_check's, bit for bit
    polar = ar.builtin_map("polar")
    rhs = ar.change_of_variables(polar, lambda p: np.ones(len(p)), E=E, n_y=64, depth=7)[1]
    assert rhs == ar.jacobian_l1_check(polar, E=E)[1] == want


@pytest.mark.parametrize("n_y", [256, 4096])
@pytest.mark.parametrize("name, params", [
    ("fold", {"laps": 2}), ("fold", {"laps": 3}), ("fold", {"laps": 5}), ("square", {}),
])
def test_one_dimensional_change_of_variables_of_one_is_multiplicity_integral(name, params, n_y):
    # u = 1 sums the same preimages as the counts, so both integrals are
    # the same whole-grid sum, bit for bit
    phi = ar.builtin_map(name, **params)
    lhs, _ = ar.area_formula_with_multiplicity(phi, n_y=n_y)
    assert ar.change_of_variables(phi, lambda p: np.ones(len(p)), n_y=n_y)[1] == lhs


@pytest.mark.parametrize(
    "call, shape",
    [
        (lambda: ar.change_of_variables(_POLAR, lambda p: 1.0), r"\(\)"),
        (lambda: ar.change_of_variables(_POLAR, lambda p: p), r"\(32768, 2\)"),
        (lambda: ar.change_of_variables(ar.builtin_map("fold"), lambda p: 1.0), r"\(\)"),
        (lambda: ar._preimage_sums(_POLAR, None, 3, [np.array([0.1]), np.array([0.2])],
                                   lambda p: np.ones(len(p) + 1)), r"\(2,\)"),
    ],
    ids=["cov-2d-scalar", "cov-2d-points", "cov-1d-scalar", "scan-one-too-many"],
)
def test_u_must_return_one_value_per_point(call, shape):
    with pytest.raises(ValueError, match=f"^u must return one value per point; .* shape {shape}$"):
        call()


def test_u_may_return_a_column():
    fold = ar.builtin_map("fold", laps=3)
    assert (ar.change_of_variables(fold, lambda p: p[:, :1] ** 2)
            == ar.change_of_variables(fold, lambda p: p[:, 0] ** 2))


def test_jacobian_l1_identity_map():
    phi = ar.ParametricMap(lambda p: p.copy(), [0.0], [1.0], n=1, injective=True)
    lhs, rhs = ar.jacobian_l1_check(phi)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=0.01)


def test_jacobian_l1_fold():
    lhs, rhs = ar.jacobian_l1_check(ar.builtin_map("fold", laps=2))
    assert lhs == pytest.approx(2.0, abs=0.01)
    assert rhs == pytest.approx(2.0, abs=0.02)


def _polar_disk(radius):
    """The parameter set r < radius of the polar chart, as a raster."""
    h = 2 * math.pi / 256
    return RasterSet.from_predicate(
        lambda r, t: r < radius, [0.0, -math.pi], [int(1 / h) + 1, 256], h
    )


def test_jacobian_l1_polar_disk():
    lhs, rhs = ar.jacobian_l1_check(ar.builtin_map("polar"))
    assert lhs == pytest.approx(math.pi, rel=1e-9)
    assert rhs == pytest.approx(math.pi, rel=0.05)


def test_jacobian_l1_z_squared_counts_both_preimages():
    lhs, rhs = ar.jacobian_l1_check(z_squared_map([-1.0, -1.0], [1.0, 1.0]))
    # |det Dphi| = 4|z|^2 integrates to 32/3 over the square
    assert lhs == pytest.approx(32 / 3, rel=1e-3)
    assert rhs == pytest.approx(lhs, rel=0.05)
    # the right half-square is mapped injectively onto the same image, so
    # N = 2 almost everywhere on it and the full integral doubles the half
    _, rhs_half = ar.jacobian_l1_check(z_squared_map([0.0, -1.0], [1.0, 1.0]))
    assert rhs == pytest.approx(2 * rhs_half, rel=0.05)


def test_jacobian_l1_restricted_to_raster():
    radius = 0.75
    E = _polar_disk(radius)
    lhs, rhs = ar.jacobian_l1_check(ar.builtin_map("polar"), E=E)
    # the disk edge is resolved to one raster cell and one of the 64 cells
    # per axis of the lhs sum: a ring of width h + 1/64
    ring = 2 * math.pi * radius * (E.h + 1 / 64)
    assert lhs == pytest.approx(math.pi * radius**2, abs=ring)
    assert rhs == pytest.approx(lhs, rel=0.05)


def _sign(c, d):
    """Sign of the cross product c of an edge with vector d at y + (eps, eps^2)."""
    if c != 0:
        return math.copysign(1.0, c)
    if d[1] != 0:
        return -math.copysign(1.0, d[1])
    return math.copysign(1.0, d[0]) if d[0] != 0 else 0.0


def _vertex_images(phi, depth):
    """Images of the vertices of the depth-indexed partition, shape
    (2^depth + 1,) * k + (n,)."""
    axes = _partition_vertices(phi, depth)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, phi.k)
    return phi(pts).reshape((len(axes[0]),) * phi.k + (phi.n,))


def _pl_counts(phi, E, depth, ys):
    """Reference N at each y of ``ys``: the simplices of the PL interpolant
    on the depth-indexed partition (with E, those of cells whose center
    lies in E) whose half-open image holds y, one y and one simplex at a
    time.  In 2-D, cell (i, j) has the triangles (i, j), (i+1, j), (i, j+1)
    and (i+1, j+1), (i, j+1), (i+1, j); every edge's cross product with y
    is taken from its lower row-major end, ties broken as for
    y + (eps, eps^2)."""
    m = 2**depth
    V = _vertex_images(phi, depth).reshape(-1, phi.n)
    axes = _partition_vertices(phi, depth)
    centers = np.stack(np.meshgrid(*[0.5 * (a[:-1] + a[1:]) for a in axes], indexing="ij"),
                       axis=-1).reshape(-1, phi.k)
    member = np.ones(len(centers), dtype=bool) if E is None else E.contains(centers)
    if phi.k == 1:
        cells = [(V[i, 0], V[i + 1, 0]) for i in range(m) if member[i]]
        return [sum(1 for fa, fb in cells if min(fa, fb) <= y[0] < max(fa, fb)) for y in ys]
    triangles = []
    for i, j in itertools.product(range(m), repeat=2):
        if member[i * m + j]:
            corner = [a * (m + 1) + b for a, b in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))]
            triangles += [corner[:3], [corner[3], corner[2], corner[1]]]
    counts = []
    for y in ys:
        count = 0
        for ids in triangles:
            p = V[ids]
            area = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
            if area == 0:
                continue
            signs = []
            for s, t in ((0, 1), (1, 2), (2, 0)):
                lo_end, hi_end = sorted((ids[s], ids[t]))
                P, d = V[lo_end], V[hi_end] - V[lo_end]
                c = d[0] * (y[1] - P[1]) - d[1] * (y[0] - P[0])
                signs.append(_sign(c, d) * (1 if ids[s] == lo_end else -1))
            count += all(sg == math.copysign(1.0, area) for sg in signs)
        counts.append(count)
    return counts


def _with_vertex_images(phi, depth, axes, rng, count=4):
    """``axes`` plus the coordinates of ``count`` random vertex images of the
    depth-indexed partition and of ``count`` random edge-midpoint images,
    so that the tensor grid holds points exactly on vertex and edge images."""
    m = 2**depth
    V = _vertex_images(phi, depth)
    vertices = V[tuple(rng.integers(0, m + 1, size=(phi.k, count)))]
    # an edge from (i, j) along axis 0 or 1 (boundary edges included), or
    # the diagonal (i+1, j)-(i, j+1)
    step = np.eye(phi.k, dtype=int)[rng.integers(0, phi.k, count)].T
    i = np.minimum(rng.integers(0, m + 1, size=(phi.k, count)), m - step)
    if phi.k == 2:
        diagonal = rng.random(count) < 1 / 3
        i = np.where(diagonal, np.minimum(i, m - 1) + [[1], [0]], i)
        step = np.where(diagonal, [[-1], [1]], step)
    midpoints = 0.5 * (V[tuple(i)] + V[tuple(i + step)])
    extra = np.concatenate([vertices, midpoints])
    return [np.unique(np.concatenate([ax, extra[:, d]])) for d, ax in enumerate(axes)]


FOLD_FRAGMENTS = RasterSet.from_predicate(lambda x: np.sin(20 * x) > 0, [-1.0], [128], 1 / 64)


@pytest.mark.parametrize(
    "name, restricted",
    [("polar", False), ("polar", True), ("fold", False), ("fold", True), ("z2", False),
     ("square", False)],
    ids=["False", "True", "fold-False", "fold-True", "z2", "square"],
)
def test_multiplicity_grid_matches_per_point_scan(name, restricted):
    # map, raster, depth, range and count of the random y per axis
    phi, E, depth, y_range, count = {
        "polar": (ar.builtin_map("polar"), _polar_disk(0.6), 4, (-1.05, 1.05), 4),
        "fold": (ar.builtin_map("fold", laps=3), FOLD_FRAGMENTS, 6, (-0.05, 1.05), 12),
        "z2": (z_squared_map([-1.0, -1.0], [1.0, 1.0]), None, 3, (-1.05, 1.05), 4),
        "square": (ar.builtin_map("square"), None, 6, (-0.05, 1.05), 12),
    }[name]
    E = E if restricted else None
    rng = np.random.default_rng(7)
    axes = _with_vertex_images(
        phi, depth, [rng.uniform(*y_range, count) for _ in range(phi.n)], rng
    )
    got = ar._preimage_sums(phi, E, depth, axes)
    want = np.array(_pl_counts(phi, E, depth, list(itertools.product(*axes)))).reshape(got.shape)
    assert np.array_equal(got, want)
    assert want.max() >= 1


@pytest.mark.parametrize("n_y", [256, 4096])
@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("name, params", [
    ("fold", {"laps": 3}), ("fold", {"laps": 5}), ("fold", {"laps": 7}), ("square", {}),
])
def test_one_dimensional_counts_match_dense_run_starts(name, params, restricted, n_y):
    # the reference is a dense (y, cell) mask of half-open crossings,
    # min(Phi a, Phi b) <= y < max(Phi a, Phi b), counted per y; the y-grid
    # also holds vertex values of the partition and midpoints of cell images
    phi = ar.builtin_map(name, **params)
    E = FOLD_FRAGMENTS if restricted else None
    rng = np.random.default_rng(n_y)
    for depth in (11, 12):
        ys = _with_vertex_images(phi, depth, ar._y_grid(phi, n_y)[0], rng, count=32)[0]
        (corners,) = _partition_vertices(phi, depth)
        vals = phi(corners[:, None])[:, 0]
        lo, hi = np.minimum(vals[:-1], vals[1:]), np.maximum(vals[:-1], vals[1:])
        hits = (ys[:, None] >= lo) & (ys[:, None] < hi)
        if E is not None:
            hits &= E.contains(0.5 * (corners[:-1] + corners[1:])[:, None])
        assert np.array_equal(ar._preimage_sums(phi, E, depth, [ys]), hits.sum(axis=1))


@pytest.mark.parametrize("shear", [0.0, 0.7], ids=["identity", "shear"])
def test_vertex_and_edge_images_are_counted_once(shear):
    # a linear map is its own PL interpolant: every interior vertex and
    # edge-midpoint image has exactly one preimage, the point itself
    A = np.array([[1.0, shear], [0.0, 1.0]])
    phi = ar.ParametricMap(lambda p: p @ A.T, [0.0, 0.0], [1.0, 1.0], n=2)
    depth, m = 3, 8
    # the interior vertices (49), the midpoints of the interior axis edges
    # (112) and of the diagonals (64, the cell centers) are the 15 x 15
    # points (a, b) / 16 with 0 < a, b < 16
    for x in itertools.product(np.arange(1, 2 * m) / (2 * m), repeat=2):
        x = np.array(x)
        y = phi(x[None])[0]
        hit_y, preimage = map(np.concatenate,
                              zip(*ar._simplex_preimages(phi, None, depth, y[:, None])))
        assert len(hit_y) == 1, (x, len(hit_y))
        assert np.allclose(preimage[0], x, rtol=0, atol=1e-12)


# map, raster, depth and y-cells per axis of the blocked-scan cases
_SCAN_CASES = {
    "polar": (ar.builtin_map("polar"), _polar_disk(0.6), 4, 12),
    "z2": (z_squared_map([-1.0, -1.0], [1.0, 1.0]),
           RasterSet.from_predicate(lambda a, b: a + b < 0.3, [-1.0, -1.0], [16, 16], 0.125),
           4, 12),
    "fold": (ar.builtin_map("fold", laps=3), FOLD_FRAGMENTS, 7, 64),
    "square": (ar.builtin_map("square"), FOLD_FRAGMENTS, 7, 64),
}


@pytest.mark.parametrize("block", [1, 67], ids=["one-row-one-pair", "seams"])
@pytest.mark.parametrize("restricted", [False, True], ids=["box", "raster"])
@pytest.mark.parametrize("weighted", [False, True], ids=["N", "u"])
@pytest.mark.parametrize("name", list(_SCAN_CASES))
def test_blocked_preimage_sums_keep_their_bits(name, weighted, restricted, block, monkeypatch):
    # _BLOCK_CELLS = 1 scans one cell row per block and tests one (cell, y)
    # pair per chunk; 67 leaves a short last block and splits cells' pairs
    # across chunks.  The sums keep every bit of the default scan.
    phi, E, depth, n_y = _SCAN_CASES[name]
    E = E if restricted else None
    u = (lambda p: np.cos(3 * p[:, 0]) + p[:, -1]) if weighted else None
    axes = _with_vertex_images(phi, depth, ar._y_grid(phi, n_y)[0], np.random.default_rng(3))
    want = ar._preimage_sums(phi, E, depth, axes, u)
    monkeypatch.setattr(ar, "_BLOCK_CELLS", block)
    got = ar._preimage_sums(phi, E, depth, axes, u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(want) > 10


@pytest.mark.parametrize(
    "call",
    [
        lambda: ar.change_of_variables(_POLAR, lambda p: np.ones(len(p)), n_y=128),
        lambda: ar.change_of_variables(_POLAR, lambda p: np.ones(len(p)), n_y=256),
        lambda: ar.change_of_variables(_POLAR, lambda p: np.ones(len(p)), n_y=512),
        lambda: ar.multiplicity(_POLAR, (0.3, 0.2), depths=range(10, 12)),
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold", laps=256), n_y=8192),
    ],
    ids=["cov-polar-128", "cov-polar-256", "cov-polar-512", "multiplicity-polar-10-11",
         "area-formula-fold-256"],
)
def test_preimage_scans_stay_under_sixteen_mib(call):
    # one block of cells or one chunk of (cell, y) pairs at a time, not the
    # 2049^2 partition vertices of depth 11 or the 2 million (cell, y)
    # pairs of the 256-lap fold
    assert traced_peak(call) < 16 * 2**20


def _searchsorted_count(ax, v):
    """Reference for ``ar._count_below``: one binary search per value."""
    return np.where(np.isnan(v), -1, np.searchsorted(ax, v))


def _searchsorted_box(V, extent, cell, y_axes):
    """Reference for ``ar._box_candidates``: per axis, a binary search of
    each cell's min and max corner image, dropping a cell as soon as an axis
    leaves its box empty (a NaN bound sorts past the end)."""
    first, width = [], []
    for d, ax in enumerate(y_axes):
        corners = [V[tuple(slice(o, e + o) for o, e in zip(offset, extent)) + (d,)]
                   for offset in itertools.product((0, 1), repeat=len(extent))]
        f = np.searchsorted(ax, np.minimum.reduce(corners).reshape(-1)[cell])
        w = np.searchsorted(ax, np.maximum.reduce(corners).reshape(-1)[cell]) - f
        keep = np.flatnonzero(w > 0)
        cell = cell[keep]
        first = [a[keep] for a in first] + [f[keep]]
        width = [a[keep] for a in width] + [w[keep]]
    return cell, first, width


_UNIFORM_AXIS = ar._y_grid(_POLAR, 128)[0][0]
_COUNT_AXES = {
    "uniform": _UNIFORM_AXIS,
    # a rounding guess from the mean spacing misses most of these
    "geometric": np.geomspace(1e-3, 10.0, 50) - 1.0,
    "repeated-entries": np.array([-1.0, -0.5, -0.5, -0.5, 0.0, 0.25, 0.25, 2.0]),
    "single-y": np.array([0.3]),
    "two-y": np.array([-0.7, 0.4]),
}


def _count_probes(ax, rng):
    """Every entry of ax and one ulp either side, random values over and
    past its span, and the special values."""
    span = ax[-1] - ax[0] or 1.0
    return np.concatenate([
        ax, np.nextafter(ax, -np.inf), np.nextafter(ax, np.inf),
        rng.uniform(ax[0] - span, ax[-1] + span, 200),
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324],
    ])


@pytest.mark.parametrize("name", list(_COUNT_AXES))
def test_vertex_counts_keep_the_searchsorted_bits(name):
    ax = _COUNT_AXES[name]
    v = _count_probes(ax, np.random.default_rng(5))
    assert np.array_equal(ar._count_below(ax, v), _searchsorted_count(ax, v))
    # a strided view of (vertex, axis) images, as the scan passes them
    V = np.stack([v, v[::-1]], axis=-1)
    assert np.array_equal(ar._count_below(ax, V[..., 1]), _searchsorted_count(ax, V[..., 1]))


def _box_cases():
    """(name, V, extent, y_axes): vertex images of one block, drawn from the
    count probes so that corners sit on, and one ulp off, the y entries;
    one case maps the partition with a user map that gives NaN and +-inf."""
    rng = np.random.default_rng(9)
    for name, ax in _COUNT_AXES.items():
        probes = _count_probes(ax, rng)
        yield name + "-1d", rng.choice(probes, (65, 1)), (64,), [ax]
        other = _UNIFORM_AXIS if name != "uniform" else _COUNT_AXES["geometric"]
        V = np.stack([rng.choice(probes, (17, 33)), rng.choice(_count_probes(other, rng), (17, 33))],
                     axis=-1)
        yield name + "-2d", V, (16, 32), [ax, other]

    def wild(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.where(x > 0.8, np.nan, np.where(x < 0.1, -np.inf, x - y)),
                         np.where(y > 0.9, np.inf, x * y)], axis=-1)

    phi = ar.ParametricMap(wild, [0.0, 0.0], [1.0, 1.0], n=2)
    corners = [np.linspace(0.0, 1.0, 33)] * 2
    yield "user-map-nan-inf", phi._on_grid(corners).reshape(33, 33, 2), (32, 32), [
        _UNIFORM_AXIS, _COUNT_AXES["geometric"]]


@pytest.mark.parametrize("case", list(_box_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("restricted", [False, True], ids=["all-cells", "some-cells"])
def test_box_candidates_keep_the_searchsorted_bits(case, restricted):
    _, V, extent, y_axes = case
    cell = np.arange(math.prod(extent))
    if restricted:
        cell = cell[np.random.default_rng(2).random(len(cell)) < 0.5]
    got, want = ar._box_candidates(V, extent, cell, y_axes), _searchsorted_box(V, extent, cell, y_axes)
    assert len(want[0]) > 0
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("laps", [64, 128])
def test_area_formula_fold_many_laps(laps):
    lhs, rhs = ar.area_formula_with_multiplicity(ar.builtin_map("fold", laps=laps), n_y=8192)
    assert lhs == pytest.approx(laps, rel=1e-4)
    assert rhs == pytest.approx(laps, rel=1e-4)


@pytest.mark.parametrize(
    "phi, y",
    [
        (ar.builtin_map("helix"), [1.0, 0.0, 0.0]),
        (ar.builtin_map("sphere"), [0.0, 0.0, 1.0]),
        (ar.ParametricMap(lambda p: p.copy(), [0.0] * 3, [1.0] * 3, n=3), [0.5] * 3),
    ],
    ids=["helix", "sphere", "identity-3d"],
)
def test_multiplicity_needs_k_equal_n_at_most_two(phi, y):
    with pytest.raises(ValueError, match="k = n <= 2"):
        ar.multiplicity(phi, y)


@pytest.mark.parametrize("y", [[0.5], [0.5, 0.0, 0.0], [np.nan, 0.0]])
def test_multiplicity_rejects_y_off_the_target_space(y):
    with pytest.raises(ValueError, match="finite point of R\\^2"):
        ar.multiplicity(ar.builtin_map("polar"), y)


E_2D = RasterSet.from_predicate(lambda x, y: x < 0.5, [0.0, 0.0], [8, 8], 1 / 8)
E_1D = RasterSet.from_predicate(lambda x: x < 0.5, [0.0], [8], 1 / 8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ar.surface_measure(ar.builtin_map("helix"), E_2D),
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold"), E_2D),
        lambda: ar.jacobian_l1_check(ar.builtin_map("polar"), E_1D),
    ],
    ids=["surface-helix-2d-raster", "area-formula-fold-2d-raster", "jacobian-l1-polar-1d-raster"],
)
def test_raster_of_wrong_dimension_is_rejected(call):
    with pytest.raises(ValueError, match="do not match a"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ar.surface_measure(ar.builtin_map("sphere"), m=0),
        lambda: ar.surface_measure(ar.builtin_map("sphere"), m=-2),
        lambda: ar.curve_length(ar.builtin_map("helix"), nodes=0),
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold"), n_y=0),
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold"), n_y=-5),
        lambda: ar.change_of_variables(ar.builtin_map("fold"), lambda p: p[:, 0], m_cells=0),
        lambda: ar.change_of_variables(ar.builtin_map("fold"), lambda p: p[:, 0], n_y=0),
        lambda: ar.jacobian_l1_check(ar.builtin_map("polar"), m_cells=0),
        lambda: ar.change_of_variables(ar.builtin_map("fold"), lambda p: p[:, 0], depth=0),
        lambda: ar.change_of_variables(ar.builtin_map("polar"), lambda p: p[:, 0], m_cells=-7),
        lambda: ar.change_of_variables(ar.builtin_map("polar"), lambda p: p[:, 0], n_y=-7),
        lambda: ar.change_of_variables(ar.builtin_map("polar"), lambda p: p[:, 0], depth=0),
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold"), depth=0),
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold"), depth=-3),
        lambda: ar.multiplicity(ar.builtin_map("fold"), [0.3], depths=[-1]),
    ],
    ids=["surface-m0", "surface-m-2", "curve-nodes0", "area-formula-ny0", "area-formula-ny-5",
         "cov-1d-m0", "cov-1d-ny0", "jacobian-l1-polar-m0", "cov-1d-depth0", "cov-2d-m-7",
         "cov-2d-ny-7", "cov-2d-depth0", "area-formula-depth0", "area-formula-depth-3",
         "multiplicity-depth-1"],
)
def test_non_positive_cell_counts_are_rejected(call):
    with pytest.raises(ValueError, match="at least one"):
        call()


@pytest.mark.parametrize(
    "name, call",
    [
        ("n_y", lambda: ar.change_of_variables(ar.builtin_map("fold", laps=2),
                                               lambda p: np.ones(len(p)), n_y=2.5)),
        ("depth", lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold"), depth=8.5)),
        ("m_cells", lambda: ar.change_of_variables(ar.builtin_map("fold"), lambda p: p[:, 0],
                                                   m_cells=100.5)),
        ("m", lambda: ar.surface_measure(ar.builtin_map("sphere"), m=8.5)),
        ("nodes", lambda: ar.curve_length(ar.builtin_map("helix"), nodes=10.5)),
        ("depth", lambda: ar.multiplicity(ar.builtin_map("polar"), [0.5, 0.0], depths=[2.5])),
        ("m_cells", lambda: ar.jacobian_l1_check(ar.builtin_map("polar"), m_cells=-4)),
        ("laps", lambda: ar.builtin_map("fold", laps=2.5)),
    ],
    ids=["cov-ny-2.5", "area-formula-depth-8.5", "cov-m-cells-100.5", "surface-m-8.5",
         "curve-nodes-10.5", "multiplicity-depth-2.5", "jacobian-l1-m-cells-4", "fold-laps-2.5"],
)
def test_resolutions_must_be_ints(name, call):
    # a float count once ran on a grid past the image (n_y = 2.5), built a
    # 2-lap fold for laps = 2.5 or raised TypeError, and a negative m_cells
    # a math domain error
    with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
        call()


def test_multiplicity_unstable_between_depths_is_non_convergence():
    # at depth 1 the two PL partitions disagree on most y-cells of x^2
    with pytest.raises(NonConvergenceError, match="multiplicity unstable on 91% of the y-grid"):
        ar.area_formula_with_multiplicity(ar.builtin_map("square"), depth=1)
