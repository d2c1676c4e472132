import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cantor_ifs_json, traced_peak
from gmtkit import hausdorff as hd
from gmtkit.errors import ResolutionError
from gmtkit.grids import RasterSet, tensor_points


def test_omega_integer_values():
    assert hd.omega(0) == pytest.approx(1.0)
    assert hd.omega(1) == pytest.approx(2.0)
    assert hd.omega(2) == pytest.approx(math.pi)
    assert hd.omega(3) == pytest.approx(4 * math.pi / 3)


def test_omega_rejects_negative():
    with pytest.raises(ValueError):
        hd.omega(-0.5)


_CLOUD = hd.PointCloud(np.random.default_rng(0).random((64, 2)))
_SQUARE = RasterSet(np.ones((4, 4), dtype=bool), [0.0, 0.0], 0.25)
_NONFINITE = {
    "omega": hd.omega,
    "points": lambda v: hd.PointCloud([[0.5, v]]),
    "box-scale": lambda v: hd.box_counts(_CLOUD, [0.25, v]),
    "premeasure-s": lambda v: hd.premeasure_delta(_CLOUD, v, 0.5),
    "premeasure-delta": lambda v: hd.premeasure_delta(_CLOUD, 1.0, v),
    "refine-floor": lambda v: hd.premeasure_delta(_CLOUD, 1.0, 0.5, refine_floor=v),
    "dimension-scale": lambda v: hd.dimension_estimate(_CLOUD, [0.5, 0.25, v, 0.0625]),
    "linear-map": lambda v: hd.linear_image_measure_check(_SQUARE, [[1.0, v], [0.0, 1.0]]),
    "lipschitz-constant": lambda v: hd.lipschitz_image_bound_check(
        lambda p: p, v, _CLOUD, 1.0, 0.25),
    "ifs-min-scale": lambda v: hd.ifs_points(hd.IfsSystem.from_json(cantor_ifs_json(0)), min_scale=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(_NONFINITE), ids=list(_NONFINITE))
def test_non_finite_input_is_a_value_error(call, value):
    with pytest.raises(ValueError, match="finite"):
        _NONFINITE[call](value)


@pytest.mark.parametrize(
    "match, call",
    [
        # math domain error
        ("min_scale must be finite and positive",
         lambda: hd.ifs_points(hd.IfsSystem.from_json(cantor_ifs_json(0)), min_scale=0.0)),
        # an empty cloud returned 0.0 before the floor was compared with delta / sqrt(n)
        ("refine_floor exceeds", lambda: hd.premeasure_delta(
            hd.PointCloud(np.empty((0, 2))), 1.0, 0.5, refine_floor=0.9)),
        # TypeError
        ("depth must be an int >= 0",
         lambda: hd.ifs_points(hd.IfsSystem.from_json(cantor_ifs_json(0)), depth=2.5)),
        # chose the depth from min_scale as if depth were 0
        ("depth must be an int >= 0", lambda: hd.ifs_points(
            hd.IfsSystem.from_json(cantor_ifs_json(0)), depth=-2, min_scale=1e-3)),
        # TypeError at the first ifs_points
        ("depth must be an int >= 0",
         lambda: hd.IfsSystem(hd.IfsSystem.from_json(cantor_ifs_json(0)).maps, depth=2.5)),
        # a depth of 2
        ("depth must be an int >= 0", lambda: hd.IfsSystem.from_json(cantor_ifs_json(2.7))),
        # OverflowError: the grid phase shift delta * j overflowed
        ("scales must be finite and positive and <=", lambda: hd.box_counts(_CLOUD, [1e308])),
        # 3.4126040259155525e-276 through log Gamma, and 0.0 from s = 1e305
        ("float range", lambda: hd.omega(400)),
        ("float range", lambda: hd.omega(1e308)),
        # 0.0 through logs
        ("float range", lambda: hd.premeasure_delta(_CLOUD, 1100, 3.0)),
        # 1.5853384862901636e211 through logs, where 10^320 alone overflows
        ("^L\\^s H\\^s_delta at L = 10.0, s = 320 passes the float range",
         lambda: hd.lipschitz_image_bound_check(lambda p: 10 * p, 10.0,
                                                hd.PointCloud([[0.0, 0.0], [1.0, 0.0]]), 320, 4.0)),
    ],
    ids=["ifs-min-scale-0", "premeasure-empty-cloud-floor", "ifs-points-depth-2.5",
         "ifs-points-depth--2", "ifs-system-depth-2.5", "ifs-json-depth-2.7", "box-scale-1e308",
         "omega-400", "omega-1e308", "premeasure-s-1100-delta-3", "lipschitz-l-10-s-320"],
)
def test_bad_arguments_are_value_errors(match, call):
    with pytest.raises(ValueError, match=match):
        call()


def test_omega_past_the_gamma_overflow():
    # Gamma(1 + s/2) overflows from about s = 341.25, where omega itself is tiny
    assert hd.omega(341) == math.pi ** 170.5 / math.gamma(171.5)
    with pytest.raises(ValueError, match="^omega\\(s\\) at s = 342: Gamma\\(1 \\+ s/2\\) passes the float range"):
        hd.omega(342)


def test_exponents_past_the_float_range():
    # OverflowError from lgamma, from 2^s or d^s; an int s met exact big-int powers (MemoryError)
    with pytest.raises(ValueError, match="float range"):
        hd.omega(10**30)
    with pytest.raises(ValueError, match="float range"):
        hd.premeasure_delta(_CLOUD, 10**30, 0.5)
    with pytest.raises(ValueError, match="passes the float range"):
        hd.premeasure_delta(_CLOUD, 400, 100.0)
    with pytest.raises(ValueError, match="s must be finite"):
        hd.premeasure_delta(_CLOUD, 10**400, 0.5)


def test_lipschitz_bound_with_l_to_the_s_past_the_float_range():
    # lipschitz_const**s raised OverflowError, though the premeasure it multiplies may be 0.0
    cloud = hd.PointCloud([[0.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        premeasure = hd.premeasure_delta(cloud, 320, 4.0)
        assert premeasure == pytest.approx(1.5853384862901636e-109, rel=1e-12)
        # 2^320 is in range, 10^320 is not (a row of the bad-argument table)
        image, bound = hd.lipschitz_image_bound_check(lambda p: 2 * p, 2.0, cloud, 320, 4.0)
        assert bound == 2.0**320 * premeasure
        assert image <= bound * (1 + 1e-12)
        with pytest.raises(ValueError, match="L\\^s H\\^s_delta at L = 1e\\+100, s = 320 passes the float range"):
            hd.lipschitz_image_bound_check(lambda p: p, 1e100, cloud, 320, 4.0)


def test_point_cloud_csv_roundtrip(tmp_path):
    cloud = hd.PointCloud(np.array([[0.0, 1.0], [2.0, 3.0]]))
    p = tmp_path / "c.csv"
    cloud.to_csv(p)
    assert np.array_equal(hd.PointCloud.from_csv(p).points, cloud.points)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 5000])
def test_point_cloud_csv_bytes_match_savetxt(tmp_path, n, size):
    rng = np.random.default_rng(10 * n + size)
    pts = rng.standard_normal((size, n)) * 10.0 ** rng.integers(-300, 300, (size, n))
    pts.ravel()[:4] = [-0.0, 5e-324, 1e300, -1e300][: pts.size]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    header = ",".join(f"x{i + 1}" for i in range(n))
    np.savetxt(want, pts, delimiter=",", header=header, comments="")
    hd.PointCloud(pts).to_csv(got)
    assert got.read_bytes() == want.read_bytes()


def test_point_cloud_translate_and_ifs_dimension():
    cloud = hd.PointCloud([[0.0, 1.0], [2.0, -1.0]]).translate([0.5, -0.25])
    assert cloud.points.tolist() == [[0.5, 0.75], [2.5, -1.25]]
    assert hd.IfsSystem.from_json(cantor_ifs_json(3)).n == 1


def test_point_cloud_csv_rejects_lattice_csv(tmp_path):
    p = tmp_path / "r.csv"
    RasterSet.from_predicate(lambda x, y: x < 0.5, [0, 0], [4, 4], 0.25).to_csv(p)
    with pytest.raises(ValueError, match="lattice CSV"):
        hd.PointCloud.from_csv(p)


def test_ifs_json_roundtrip():
    ifs = hd.IfsSystem.from_json(cantor_ifs_json(depth=5))
    assert ifs.depth == 5
    back = hd.IfsSystem.from_json(ifs.to_json())
    assert back.maps[1].offset[0] == pytest.approx(2 / 3)


def test_ifs_points_land_in_attractor_hull():
    ifs = hd.IfsSystem.from_json(cantor_ifs_json())
    pts = hd.ifs_points(ifs, depth=8).points
    assert pts.min() >= -1e-12 and pts.max() <= 1 + 1e-12
    assert len(pts) == 2**8


def test_ifs_points_choose_the_depth_from_min_scale():
    # (1/3)^8 <= 1e-3 / 4 < (1/3)^7
    ifs = hd.IfsSystem.from_json(cantor_ifs_json(0))
    assert hd.ifs_points(ifs, min_scale=1e-3).size == 256
    assert hd.ifs_points(ifs, depth=0, min_scale=1e-3).size == 256


def test_similarity_map_rotation_must_be_orthogonal():
    quarter_turn = [[0.0, -1.0], [1.0, 0.0]]
    m = hd.SimilarityMap(0.5, [1.0, 0.0], quarter_turn)
    assert m.apply(np.array([[2.0, 0.0]])).tolist() == [[1.0, 1.0]]
    with pytest.raises(ValueError, match="rotation part must be orthogonal"):
        hd.SimilarityMap(0.5, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


def test_ifs_json_roundtrip_keeps_a_rotation():
    quarter_turn = [[0.0, -1.0], [1.0, 0.0]]
    ifs = hd.IfsSystem((hd.SimilarityMap(0.5, [0.0, 0.0], quarter_turn),
                        hd.SimilarityMap(0.5, [0.5, 0.5])), depth=3)
    back = hd.IfsSystem.from_json(ifs.to_json())
    assert back.maps[0].rotation.tolist() == quarter_turn
    assert back.maps[1].rotation is None
    assert back.depth == 3
    assert np.array_equal(hd.ifs_points(back).points, hd.ifs_points(ifs).points)


def test_similarity_map_requires_contraction():
    with pytest.raises(ValueError):
        hd.SimilarityMap(ratio=1.5, offset=[0.0])


def test_premeasure_monotone_in_delta():
    # H^s_delta is nonincreasing as delta grows (coarser covers allowed)
    ifs = hd.IfsSystem.from_json(cantor_ifs_json())
    cloud = hd.ifs_points(ifs, depth=10)
    s = math.log(2) / math.log(3)
    values = [
        hd.premeasure_delta(cloud, s, d, refine_floor=2.0**-8)
        for d in (0.2, 0.1, 0.05, 0.025)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_premeasure_refined_monotone_above_dimension():
    # single-grid estimates decay with delta once s exceeds the cloud's
    # dimension; the nested dyadic envelope stays monotone for every s
    rng = np.random.default_rng(5)
    cloud = hd.PointCloud(rng.random((2000, 2)))
    for s in (0.5, 1.0, 2.0, 2.5):
        vals = [
            hd.premeasure_delta(cloud, s, d, refine_floor=2.0**-6)
            for d in (0.4, 0.2, 0.1)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_premeasure_refined_sizes_stay_admissible():
    # delta / sqrt(n) just below 2^-3: log2 with a 1e-12 margin admitted the size 2^-3, whose
    # boxes have diameter > delta (64.0, 46.43 and 27.95)
    cloud = hd.PointCloud(np.random.default_rng(1).random((400, 2)))
    delta = 2.0**-3 * math.sqrt(2) * (1 - 1e-13)
    for s, want in ((0.0, 211.0), (0.2, 133.27), (0.5, 30.88)):
        got = hd.premeasure_delta(cloud, s, delta, refine_floor=2.0**-8)
        assert got == min(hd.premeasure_delta(cloud, s, 2.0**-k * math.sqrt(2)) for k in range(4, 9))
        assert got == pytest.approx(want, abs=0.005)
    # a floor that is a power of two is a size; one just above it is not
    at = {k: hd.premeasure_delta(cloud, 3.0, 2.0**-k * math.sqrt(2)) for k in (2, 3)}
    assert hd.premeasure_delta(cloud, 3.0, 0.5, refine_floor=2.0**-3) == at[3]
    assert hd.premeasure_delta(cloud, 3.0, 0.5, refine_floor=2.0**-3 * (1 + 1e-15)) == at[2] > at[3]


def test_premeasure_refine_floor_validation():
    cloud = hd.PointCloud(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        hd.premeasure_delta(cloud, 1.0, 0.1, refine_floor=0.5)


def test_premeasure_refine_interval_without_a_dyadic_size_is_a_value_error():
    cloud = hd.PointCloud(np.random.default_rng(3).random((50, 2)))
    with pytest.raises(ValueError, match=r"no dyadic grid size lies in \[0\.28, 0\.3"):
        hd.premeasure_delta(cloud, 1.0, 0.3 * math.sqrt(2), refine_floor=0.28)


def test_box_indices_past_int64_are_a_value_error():
    cloud = hd.PointCloud([[1e300], [2e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="box indices at scale 0.5 overflow int64"):
            hd.box_counts(cloud, [0.5])
        with pytest.raises(ValueError, match="overflow int64"):
            hd.dimension_estimate(cloud)
        with pytest.raises(ValueError, match="overflow int64"):
            hd.box_counts(hd.PointCloud([[2.0**62]]), [1.0])
        assert hd.box_counts(hd.PointCloud([[2.0**61], [-2.0**61]]), [1.0]).tolist() == [2.0]


@pytest.mark.parametrize("n_offsets", [0, -1, 2.5])
def test_box_counts_n_offsets_must_be_a_positive_int(n_offsets):
    with pytest.raises(ValueError, match="n_offsets must be an int >= 1"):
        hd.box_counts(_CLOUD, [0.25], n_offsets=n_offsets)


def _reference_box_counts(points, scales, n_offsets):
    """Distinct floored box indices per offset by np.unique, averaged."""
    counts = []
    for delta in scales:
        total = 0
        for j in range(n_offsets):
            shift = delta * j / n_offsets
            total += len(np.unique(np.floor((points - shift) / delta).astype(np.int64), axis=0))
        counts.append(total / n_offsets)
    return counts


# a dyadic coordinate k / 2^m lies on the edges of the dyadic boxes; a float
# in [-1024, 1024] spans over 2^16 boxes per axis at the finest scales
_box_coordinate = st.one_of(
    st.builds(lambda k, m: k / 2**m, st.integers(-(2**12), 2**12), st.integers(0, 12)),
    st.floats(-1024, 1024),
)


@st.composite
def _box_cases(draw):
    """A cloud (possibly empty, with repeated points) in R^1..R^3, scales on
    both sides of the occupancy limit, and a number of offsets; or two
    points 2^62 apart at scales of at least 1."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_box_coordinate, min_size=n, max_size=n), max_size=30))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    scales = st.one_of(st.integers(-2, 14).map(lambda k: 2.0**-k), st.floats(1e-4, 8))
    if draw(st.integers(0, 9)) == 0:
        rows += [[2.0**61] * n, [-(2.0**61)] * n]
        scales = st.sampled_from([1.0, 2.0, 4.0])
    points = np.array(rows, dtype=float).reshape(-1, n)
    return points, draw(st.lists(scales, min_size=1, max_size=4)), draw(st.integers(1, 16))


@given(_box_cases())
@settings(max_examples=300, deadline=None)
def test_box_counts_match_unique_floors(case):
    points, scales, n_offsets = case
    got = hd.box_counts(hd.PointCloud(points), scales, n_offsets)
    assert got.tolist() == _reference_box_counts(points, scales, n_offsets)


def test_box_counts_past_the_occupancy_limit_stay_small():
    # 3-D at fine scales the index box holds far more than 4N boxes; the
    # counts then come from sorting, and no array grows with the span
    cloud = hd.PointCloud(np.random.default_rng(5).random((20000, 3)))
    assert traced_peak(lambda: hd.box_counts(cloud, hd.default_scales(3, 10))) < 4 * 2**20


def test_premeasure_scaling_law():
    # H^s_delta(tE) at t*delta equals t^s H^s_delta(E)
    rng = np.random.default_rng(3)
    cloud = hd.PointCloud(rng.random((400, 2)))
    s, delta, t = 1.5, 0.1, 0.5
    scaled = cloud.scale(t)
    lhs = hd.premeasure_delta(scaled, s, t * delta)
    rhs = t**s * hd.premeasure_delta(cloud, s, delta)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dimension_of_dense_square_grid():
    axes = np.linspace(0, 1, 512)
    gx, gy = np.meshgrid(axes, axes)
    cloud = hd.PointCloud(np.stack([gx.ravel(), gy.ravel()], axis=-1))
    est = hd.dimension_estimate(cloud, hd.default_scales(4, 8))
    # boundary boxes bias the count by O(2^j / 512) at scale j
    assert est.slope == pytest.approx(2.0, abs=0.1)
    assert not est.degenerate


def test_dimension_single_point_degenerate():
    cloud = hd.PointCloud(np.zeros((1, 2)))
    est = hd.dimension_estimate(cloud, hd.default_scales(3, 6))
    assert est.degenerate
    assert est.slope == 0.0


def _lattice_cloud(n, shift=0.0):
    axis = (np.arange(n) + 0.5 + shift) / n
    return hd.PointCloud(tensor_points([axis, axis]))


def test_dimension_of_saturated_cloud_is_a_resolution_error():
    # from 2^-6 down every one of the 64^2 points has a box of its own: the
    # fit over 3..10 would measure the sampling (slope 0.775, r^2 0.73)
    with pytest.raises(ResolutionError, match="the finest usable scale is 0.015625"):
        hd.dimension_estimate(_lattice_cloud(64), hd.default_scales(3, 10))
    est = hd.dimension_estimate(_lattice_cloud(64), hd.default_scales(3, 6))
    assert est.slope == pytest.approx(2.0, abs=0.1)


def test_dimension_allows_saturation_at_the_finest_scale_only():
    est = hd.dimension_estimate(_lattice_cloud(128, shift=0.3), hd.default_scales(4, 7))
    assert est.counts[-1] == 128**2
    assert est.counts[-2] < 128**2
    assert est.slope == pytest.approx(2.0, abs=0.1)


def test_dimension_requires_enough_scales():
    cloud = hd.PointCloud(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        hd.dimension_estimate(cloud, [0.5, 0.25])


@pytest.mark.parametrize("k_min, k_max", [(3, 1075), (-1024, 3)])
def test_default_scales_rejects_exponents_past_the_double_range(k_min, k_max):
    with pytest.raises(ValueError, match=r"\[-1023, 1074\]"):
        hd.default_scales(k_min, k_max)


def test_default_scales_reach_both_ends_of_the_double_range():
    scales = hd.default_scales(-1023, 1074)
    assert scales.size == 2098
    assert scales[0] == 2.0 ** 1023 and scales[-1] == math.ldexp(1.0, -1074)
    assert np.all(np.isfinite(scales)) and np.all(scales > 0)


def test_lebesgue_measure_box():
    E = RasterSet.from_predicate(
        lambda x, y: (x < 0.5) & (y < 0.25), [0.0, 0.0], [64, 64], 1 / 64
    )
    assert hd.lebesgue_measure(E) == pytest.approx(0.125, abs=1e-12)


def test_linear_image_diag_scaling():
    E = RasterSet.from_predicate(
        lambda x, y: (x < 1.0) & (y < 1.0), [0.0, 0.0], [100, 100], 0.01
    )
    lhs, rhs = hd.linear_image_measure_check(E, np.diag([2.0, 1.0]))
    assert rhs == pytest.approx(2.0, abs=1e-9)
    assert lhs == pytest.approx(2.0, abs=0.02)


def test_linear_image_shear_preserves_area():
    E = RasterSet.from_predicate(
        lambda x, y: (x < 1.0) & (y < 1.0), [0.0, 0.0], [100, 100], 0.01
    )
    lhs, _ = hd.linear_image_measure_check(E, np.array([[1.0, 0.7], [0.0, 1.0]]))
    assert lhs == pytest.approx(1.0, abs=0.02)


def test_linear_image_rejects_singular():
    E = RasterSet(np.ones((4, 4), dtype=bool), [0.0, 0.0], 0.25)
    with pytest.raises(hd.SingularMapError):
        hd.linear_image_measure_check(E, np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("angle, stretch, squeeze", [(0.0, 1e6, 1e-6), (0.6, 2.0, 0.2)])
def test_linear_image_thinner_than_a_cell_is_a_resolution_error(angle, stretch, squeeze):
    # T is not singular, but its image of the unit square is a band
    # ``squeeze`` wide, thinner than the 0.25 lattice: diag(1e6, 1e-6) once
    # rasterized to nothing and returned (0.0, 1.0)
    c, s = math.cos(angle), math.sin(angle)
    T = np.array([[c, -s], [s, c]]) @ np.diag([stretch, squeeze])
    with pytest.raises(ResolutionError, match="thinner than one cell"):
        hd.linear_image_measure_check(_SQUARE, T)


def test_linear_image_one_cell_thick_still_answers():
    # diag(4, 1/4): the image is exactly one cell (h = 0.25) thick
    lhs, rhs = hd.linear_image_measure_check(_SQUARE, np.diag([4.0, 0.25]))
    assert rhs == 1.0 and lhs > 0.0


def test_isodiametric_ball_near_equality():
    E = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 1.0, [-1.1, -1.1], [220, 220], 0.01
    )
    measure, bound = hd.isodiametric_check(E)
    assert measure <= bound
    assert measure == pytest.approx(bound, rel=0.05)  # balls are the extremizers


def test_isodiametric_segment_strict():
    E = RasterSet.from_predicate(
        lambda x, y: (y < 0.01), [0.0, 0.0], [100, 100], 0.01
    )
    measure, bound = hd.isodiametric_check(E)
    assert measure < bound * 0.1  # thin sets are far from extremal


def _traced_diameter(E):
    tracemalloc.start()
    try:
        d = hd.raster_diameter(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return d, peak


def test_diameter_of_a_1d_raster_builds_no_pair_array():
    # 4000 cells: the pairwise array would be 4000^2 doubles (122 MiB)
    E = RasterSet(np.arange(8000) % 2 == 1, [0.25], 1 / 1024)
    d, peak = _traced_diameter(E)
    assert d == (7999 - 1) / 1024 + 1 / 1024
    assert peak < 2**20


def test_diameter_of_a_collinear_raster_scans_pairs_in_blocks():
    E = RasterSet(np.eye(2000, dtype=bool), [0.0, 0.0], 1 / 2000)
    d, peak = _traced_diameter(E)
    assert d == pytest.approx(math.sqrt(2), rel=1e-12)
    assert peak < 2**22


def _brute_force_diameter(E):
    """Every pair of true-cell centers, one coordinate at a time."""
    c = E.true_centers()
    d2 = sum((c[:, None, k] - c[None, :, k]) ** 2 for k in range(E.ndim))
    return float(np.sqrt(d2).max()) + E.h * math.sqrt(E.ndim)


@st.composite
def _diameter_rasters(draw):
    """Small masks on a random lattice: random bits, one cell, one row along
    an axis, a full box, or the cells of one lattice line with steps in
    -2..2 (collinear diagonals, slope-2 lines)."""
    n = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, (16, 12, 6)[n - 1]), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["bits", "cell", "row", "box", "line"]))
    mask = np.zeros(shape, dtype=bool)
    if kind == "bits":
        bits = draw(st.lists(st.booleans(), min_size=mask.size, max_size=mask.size))
        mask = np.array(bits).reshape(shape)
        mask.flat[draw(st.integers(0, mask.size - 1))] = True
    elif kind == "cell":
        mask[tuple(draw(st.integers(0, s - 1)) for s in shape)] = True
    elif kind == "row":
        axis = draw(st.integers(0, n - 1))
        at = [draw(st.integers(0, s - 1)) for s in shape]
        at[axis] = slice(None)
        mask[tuple(at)] = True
    elif kind == "box":
        mask[:] = True
    else:
        step = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        start = np.where(step < 0, np.array(shape) - 1, 0)
        count = min([(s - 1) // abs(v) + 1 for s, v in zip(shape, step) if v] or [1])
        mask[tuple((start + np.arange(count)[:, None] * step).T)] = True
    origin = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    h = draw(st.floats(1e-3, 10))
    return RasterSet(mask, origin, h)


@pytest.mark.bits
@given(_diameter_rasters())
@settings(max_examples=300, deadline=None)
def test_raster_diameter_equals_all_pairs(E):
    assert hd.raster_diameter(E) == _brute_force_diameter(E)


def test_diameter_of_a_flat_plate_keeps_only_its_rim():
    # a disk in one layer of a two-layer 3-D raster: its cells are coplanar,
    # and only the cells on its rim are first or last on their lattice lines
    disk = RasterSet.from_predicate(
        lambda x, y: x**2 + y**2 <= 0.9, [-1.0, -1.0], [200, 200], 0.01
    )
    plate = RasterSet(np.stack([disk.mask, np.zeros_like(disk.mask)], axis=-1),
                      [-1.0, -1.0, 0.0], 0.01)
    start = time.perf_counter()
    d = hd.raster_diameter(plate)
    elapsed = time.perf_counter() - start
    flat = hd.raster_diameter(disk) - 0.01 * math.sqrt(2)
    assert d == pytest.approx(flat + 0.01 * math.sqrt(3), rel=1e-12)
    assert elapsed < 1.0


def test_lipschitz_image_bound():
    rng = np.random.default_rng(11)
    cloud = hd.PointCloud(rng.random((500, 2)))
    L = 2.0
    f = lambda pts: L * pts  # exactly L-Lipschitz
    image_pm, bound = hd.lipschitz_image_bound_check(f, L, cloud, s=1.5, delta=0.1)
    assert image_pm <= bound + 1e-9


def test_lipschitz_image_bound_with_zero_constant_is_exact():
    # a constant map's image is one point: H^s is 0 for s > 0 and 1 for s = 0
    cloud = hd.PointCloud(np.random.default_rng(0).random((50, 2)))
    assert hd.lipschitz_image_bound_check(lambda p: 0 * p, 0.0, cloud, 1.0, 0.2) == (0.0, 0.0)
    image_pm, bound = hd.lipschitz_image_bound_check(lambda p: 0 * p, 0.0, cloud, 0.0, 0.2)
    assert image_pm == 1.0 <= bound
    # L * delta below the smallest double: no cover of that size either
    image_pm, bound = hd.lipschitz_image_bound_check(lambda p: 0 * p, 5e-324, cloud, 1.0, 0.2)
    assert image_pm == 0.0 <= bound


# one coordinate: a few small values (so rows repeat), or anything in int64,
# so that the index box of a sample can span more than 2^63 cells
_coordinate = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(2**63), -(2**62), 2**62, 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


@pytest.mark.bits
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_coordinate, min_size=n, max_size=n), max_size=40)
        .map(lambda rows, n=n: np.array(rows, dtype=np.int64).reshape(-1, n))
    )
)
@settings(max_examples=200, deadline=None)
def test_distinct_rows_matches_unique(idx):
    assert hd._distinct_rows(idx) == len(np.unique(idx, axis=0))
