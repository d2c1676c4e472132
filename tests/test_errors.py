"""The shared count rule, met through every public count parameter."""

import numpy as np
import pytest

from conftest import cantor_ifs_json
from gmtkit import area as ar
from gmtkit import hausdorff as hd
from gmtkit import pointwise as pw
from gmtkit import smoothing as sm
from gmtkit import sobolev_bv as sb
from gmtkit.grids import GridFunction

_F = GridFunction.from_callable(lambda x, y: np.sin(3 * x) * y, [0.0, 0.0], [16, 16], 1 / 16)
_CLOUD = hd.PointCloud(np.random.default_rng(0).random((50, 2)))
_FOLD = ar.builtin_map("fold")
_CANTOR = hd.IfsSystem.from_json(cantor_ifs_json(3))

# (count parameter, a call that passes it True); True == 1 passed the rule as
# an int >= 1, so most of these ran with a count of 1 and morrey_check raised
# TypeError
_TRUE_COUNTS = {
    "fold-laps": ("laps", lambda c: ar.builtin_map("fold", laps=c)),
    "surface-m": ("m", lambda c: ar.surface_measure(ar.builtin_map("sphere"), m=c)),
    "curve-nodes": ("nodes", lambda c: ar.curve_length(ar.builtin_map("helix"), nodes=c)),
    "multiplicity-depths": ("depth", lambda c: ar.multiplicity(_FOLD, [0.5], depths=[c, 4])),
    "area-formula-n-y": ("n_y", lambda c: ar.area_formula_with_multiplicity(_FOLD, n_y=c)),
    "area-formula-depth": ("depth", lambda c: ar.area_formula_with_multiplicity(_FOLD, depth=c)),
    "area-formula-m-cells": ("m_cells",
                             lambda c: ar.area_formula_with_multiplicity(_FOLD, m_cells=c)),
    "cov-n-y": ("n_y", lambda c: ar.change_of_variables(_FOLD, lambda p: p[:, 0], n_y=c)),
    "cov-depth": ("depth", lambda c: ar.change_of_variables(_FOLD, lambda p: p[:, 0], depth=c)),
    "cov-m-cells": ("m_cells",
                    lambda c: ar.change_of_variables(_FOLD, lambda p: p[:, 0], m_cells=c)),
    "jacobian-l1-m-cells": ("m_cells",
                            lambda c: ar.jacobian_l1_check(ar.builtin_map("polar"), m_cells=c)),
    "ifs-depth": ("depth", lambda c: hd.IfsSystem(_CANTOR.maps, depth=c)),
    "ifs-points-depth": ("depth", lambda c: hd.ifs_points(_CANTOR, depth=c)),
    "box-counts-n-offsets": ("n_offsets", lambda c: hd.box_counts(_CLOUD, [0.25], n_offsets=c)),
    "directional-levels": ("levels", lambda c: pw.directional_derivative(
        lambda p: p[0] ** 2, [0.5], [1.0], levels=c)),
    "default-radii-count": ("count", lambda c: pw.default_radii(_F, [0.5, 0.5], count=c)),
    "approx-partials-max-steps": ("max_steps",
                                  lambda c: pw.approx_partials(_F, [0.5, 0.5], max_steps=c)),
    "kernel-n": ("n", lambda c: sm.MollifierKernel("standard", c, 0.1, 1.0)),
    "standard-mollifier-n": ("n", lambda c: sm.make_standard_mollifier(c, 0.1)),
    "ball-mollifier-n": ("n", lambda c: sm.make_ball_mollifier(c, 0.1)),
    "battery-count": ("count", lambda c: sm.TestFunctionBattery.seeded([0, 0], [1, 1], count=c)),
    "dyadic-generations": ("generations", lambda c: sb.dyadic_cubes(_F, c)),
    "bmo-generations": ("generations", lambda c: sb.bmo_seminorm(_F, generations=c)),
    "morrey-n-pairs": ("n_pairs", lambda c: sb.morrey_check(_F, 4.0, n_pairs=c)),
    "perimeter-calibration-n": ("n", lambda c: sb.perimeter_calibration(c, 0.1)),
    "bump-field-n-bumps": ("n_bumps", lambda c: sb.seeded_bump_field(_F, 1, n_bumps=c)),
    "variation-n-levels": ("n_levels", lambda c: sb.variation_nd(_F, "coarea", n_levels=c)),
    "variation-n-fields": ("n_fields", lambda c: sb.variation_nd(_F, "divergence-sup", n_fields=c)),
    "decompose-window": ("window", lambda c: sb.decompose_1d(np.r_[np.zeros(20), np.ones(20)],
                                                             window=c)),
}


@pytest.mark.parametrize("case", list(_TRUE_COUNTS))
def test_a_bool_is_not_a_count(case):
    name, call = _TRUE_COUNTS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an int >= \d \(.*\); got True$"):
        call(True)
    with pytest.raises(ValueError, match=rf"^{name} must be an int >= "):
        call(np.bool_(True))
