import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from gmtkit import measures as ms


def real_measure(weights):
    atoms = tuple(f"a{i}" for i in range(len(weights)))
    return ms.AtomicMeasure(atoms, np.asarray(weights, dtype=float))


finite = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)
weight_lists = st.lists(finite, min_size=1, max_size=8)

# reference weights are either zero or bounded away from the subnormal
# range, so density ratios stay representable in float64
ref_weight = st.one_of(
    st.just(0.0), st.floats(min_value=1e-6, max_value=100)
)
ref_weight_lists = st.lists(ref_weight, min_size=1, max_size=8)


# ------------------------------------------------------------- basic algebra


def test_trivial_vector_norm():
    mu = ms.AtomicMeasure(("p",), np.array([[3.0, 4.0]]))
    assert ms.total_variation(mu, mu.full_subset()) == pytest.approx(5.0)


def test_measure_of_empty_set_is_zero():
    mu = real_measure([1.0, -2.0])
    assert np.allclose(ms.measure_of(mu, mu.empty_subset()), 0.0)


def test_alignment_error():
    mu = real_measure([1.0, 2.0])
    with pytest.raises(ms.AlignmentError):
        ms.measure_of(mu, ms.AtomSubset(np.array([True])))


def test_measure_sum_and_difference_need_one_atom_list_and_m():
    mu, nu = real_measure([1.0, -2.0]), real_measure([0.5, 4.0])
    assert (mu + nu).weights[:, 0].tolist() == [1.5, 2.0]
    assert (mu - nu).weights[:, 0].tolist() == [0.5, -6.0]
    other_atoms = ms.AtomicMeasure(("b0", "b1"), np.array([1.0, 2.0]))
    other_m = ms.AtomicMeasure(mu.atoms, np.array([[1.0, 0.0], [2.0, 0.0]]))
    for other in (other_atoms, other_m):
        with pytest.raises(ms.AlignmentError, match="share the atom list and m"):
            mu + other
        with pytest.raises(ms.AlignmentError, match="share the atom list and m"):
            mu - other


def test_subset_from_atoms_and_intersection():
    mu = real_measure([1.0, -2.0, 3.0, 4.0])
    E = ms.AtomSubset.from_atoms(mu, ["a0", "a2", "zz"])
    F = ms.AtomSubset.from_atoms(mu, ["a2", "a3"])
    assert E.flags.tolist() == [True, False, True, False]
    assert (E & F).flags.tolist() == [False, False, True, False]
    assert ms.measure_of(mu, E & F).tolist() == [3.0]


def test_json_roundtrip():
    mu = ms.AtomicMeasure(("x", "y"), np.array([[1.0, 2.0], [-3.0, 0.5]]))
    back = ms.AtomicMeasure.from_json(mu.to_json())
    assert back.atoms == mu.atoms
    assert np.array_equal(back.weights, mu.weights)


@given(weight_lists)
def test_tv_dominates_measure_norm(ws):
    mu = real_measure(ws)
    E = mu.full_subset()
    assert np.linalg.norm(ms.measure_of(mu, E)) <= ms.total_variation(mu, E) + 1e-9


@given(weight_lists)
def test_tv_additive_over_disjoint_sets(ws):
    mu = real_measure(ws)
    flags = np.arange(len(ws)) % 2 == 0
    E, F = ms.AtomSubset(flags), ms.AtomSubset(~flags)
    total = ms.total_variation(mu, mu.full_subset())
    assert ms.total_variation(mu, E) + ms.total_variation(mu, F) == pytest.approx(total)


# ----------------------------------------------------------- decompositions


@given(weight_lists)
def test_jordan_reconstruction_and_mutual_singularity(ws):
    mu = real_measure(ws)
    pos, neg = ms.jordan_decomposition(mu)
    assert np.allclose(pos.weights - neg.weights, mu.weights)
    assert np.all(pos.weights >= 0) and np.all(neg.weights >= 0)
    # mutually singular: no atom carries both
    assert np.all(pos.weights[:, 0] * neg.weights[:, 0] == 0)


@given(weight_lists)
def test_hahn_sets_partition_and_sign(ws):
    mu = real_measure(ws)
    e_pos, e_neg = ms.hahn_decomposition(mu)
    assert np.all(e_pos.flags ^ e_neg.flags)
    assert np.all(mu.weights[e_pos.flags, 0] >= 0)
    assert np.all(mu.weights[e_neg.flags, 0] < 0)


def test_jordan_rejects_vector_measures():
    mu = ms.AtomicMeasure(("p",), np.array([[1.0, 2.0]]))
    with pytest.raises(ms.VectorMeasureError):
        ms.jordan_decomposition(mu)


@given(weight_lists, ref_weight_lists)
@settings(max_examples=50)
def test_radon_nikodym_reconstruction(mws, nws):
    k = min(len(mws), len(nws))
    mu = real_measure(mws[:k])
    nu = real_measure(nws[:k])
    f, singular = ms.radon_nikodym(mu, nu)
    rebuilt = f * nu.weights[:, 0][:, None] + singular.weights
    assert np.allclose(rebuilt, mu.weights, atol=1e-12)
    assert ms.is_absolutely_continuous(
        ms.AtomicMeasure(mu.atoms, mu.weights - singular.weights), nu
    )


def test_absolute_continuity_reads_every_component_of_nu():
    # no atom is nu-null: the first component alone called atom "a" null
    mu = ms.AtomicMeasure(("a", "b"), [[1.0, 0.0], [1.0, 0.0]])
    nu = ms.AtomicMeasure(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
    assert ms.is_absolutely_continuous(mu, nu)
    null = ms.AtomicMeasure(("a", "b"), [[0.0, 0.0], [1.0, 0.0]])
    assert not ms.is_absolutely_continuous(mu, null)


def test_radon_nikodym_rejects_signed_reference():
    mu = real_measure([1.0])
    nu = real_measure([-1.0])
    with pytest.raises(ms.NotAPositiveMeasureError):
        ms.radon_nikodym(mu, nu)


@given(weight_lists)
def test_density_tv_identity(ws):
    nu = real_measure([abs(w) for w in ws])
    rng = np.random.default_rng(0)
    f = rng.standard_normal((len(ws), 3))
    lhs, rhs = ms.density_tv_identity(f, nu)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(weight_lists)
def test_restrict_splits_tv(ws):
    mu = real_measure(ws)
    flags = np.arange(len(ws)) % 3 == 0
    E = ms.AtomSubset(flags)
    inside = ms.restrict(mu, E)
    outside = ms.restrict(mu, ~E)
    assert np.allclose(inside.weights + outside.weights, mu.weights)
    assert ms.total_variation(inside, mu.full_subset()) == pytest.approx(
        ms.total_variation(mu, E)
    )


# -------------------------------------------------------- partition oracle


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 8), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_partition_sup_equals_singleton_tv(seed, k, m):
    rng = np.random.default_rng(seed)
    mu = ms.AtomicMeasure(tuple(range(k)), rng.standard_normal((k, m)))
    sup = ms.partition_variation_sup(mu)
    tv = ms.total_variation(mu, mu.full_subset())
    assert sup == pytest.approx(tv, abs=1e-12 * max(1.0, tv))


def _loop_partition_sup(mu):
    """Reference for ``ms.partition_variation_sup``: the 3^k subset loop,
    one Python float addition and comparison per (S, B) pair."""
    k = mu.size
    subset_sums = np.zeros((1 << k, mu.m))
    for i in range(k):
        bit = 1 << i
        subset_sums[bit : 2 * bit] = subset_sums[:bit] + mu.weights[i]
    norms = np.linalg.norm(subset_sums, axis=1).tolist()
    best = [0.0] * (1 << k)
    for S in range(1, 1 << k):
        low = S & -S
        rest = S ^ low
        T = rest
        val = norms[low] + best[rest]
        while T:
            B = low | T
            cand = norms[B] + best[S ^ B]
            if cand > val:
                val = cand
            T = (T - 1) & rest
        best[S] = val
    return float(best[-1])


# an atom with fresh weights, a copy, a positive multiple or the negation of
# an earlier atom, or zero; every partition into blocks of parallel atoms
# ties the singleton partition up to the rounding of its sums, so the
# maximum depends on every block being tried
_atom_kinds = st.lists(st.sampled_from(["fresh", "duplicate", "parallel", "antiparallel", "zero"]),
                       max_size=12)


@given(st.integers(min_value=0, max_value=2**32 - 1), _atom_kinds, st.integers(1, 3))
@example(7, ["fresh", "duplicate", "antiparallel", "zero"] * 3, 3)
@example(8, ["fresh"] + ["parallel"] * 11, 1)
@settings(max_examples=40, deadline=None)
def test_partition_sup_keeps_the_loop_bits(seed, kinds, m):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((len(kinds), m)) * 10.0 ** rng.uniform(-3, 3, (len(kinds), 1))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            w[i] = 0.0
        elif kind != "fresh" and i > 0:
            scale = {"duplicate": 1.0, "parallel": rng.uniform(1e-3, 1e3), "antiparallel": -1.0}[kind]
            w[i] = w[rng.integers(i)] * scale
    mu = ms.AtomicMeasure(tuple(range(len(kinds))), w)
    assert ms.partition_variation_sup(mu) == _loop_partition_sup(mu)


def test_partition_sup_keeps_the_loop_bits_where_a_rounded_block_wins():
    # the block of the lowest and highest atoms sums to 1 + 2^-52 (1 + 1.5 *
    # 2^-53 rounds up), and adding 2^-53 ties to even at 1 + 2^-51; every other
    # partition gives 1 + 2^-52
    mu = real_measure([1.0, 2**-53, 1.5 * 2**-53])
    assert ms.partition_variation_sup(mu) == _loop_partition_sup(mu) == 1 + 2**-51


def test_partition_sup_of_sixteen_atoms_is_fast_and_small():
    # on a 2-vCPU machine the 3^16-step Python loop took 2.4-3.7 s, and all
    # pairs of a subset size at once traced 174 MiB
    mu = ms.AtomicMeasure(tuple(range(16)), np.random.default_rng(16).standard_normal((16, 3)))
    start = time.perf_counter()
    sup = ms.partition_variation_sup(mu)
    assert time.perf_counter() - start < 1.0
    assert traced_peak(lambda: ms.partition_variation_sup(mu)) < 16 * 2**20
    tv = ms.total_variation(mu, mu.full_subset())
    assert sup == pytest.approx(tv, abs=1e-12 * tv)


def test_partition_sup_rejects_large_instances():
    mu = real_measure(list(range(1, 18)))
    with pytest.raises(ValueError):
        ms.partition_variation_sup(mu)


_BAD_ARGUMENTS = {
    # a NaN weight was kept and listed on the negative side of the Hahn decomposition
    "nan-weight": lambda: ms.AtomicMeasure(("a", "b"), [1.0, float("nan")]),
    "inf-weight": lambda: ms.AtomicMeasure(("a", "b"), [[1.0, float("inf")], [0.0, 1.0]]),
    "json-nan-weight": lambda: ms.AtomicMeasure.from_json(
        '{"atoms": ["a", "b"], "m": 1, "weights": [1.0, NaN]}'),
    # (nan, nan)
    "nan-density": lambda: ms.density_tv_identity([1.0, float("nan")], real_measure([1.0, 2.0])),
}


@pytest.mark.parametrize("name", list(_BAD_ARGUMENTS))
def test_bad_arguments_are_value_errors(name):
    with pytest.raises(ValueError, match="weights must be finite"):
        _BAD_ARGUMENTS[name]()
