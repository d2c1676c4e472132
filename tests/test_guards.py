"""Guard lines and early returns of the library, each reached from a public call.

Without this file, a line tracer over the suite finds these lines never
run.  Each row names a call that reaches one and what the call raises (the
exact exception type and its message) or returns.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from gmtkit import area as ar
from gmtkit import hausdorff as hd
from gmtkit import measures as ms
from gmtkit import pointwise as pw
from gmtkit import sobolev_bv as sb
from gmtkit.cli import ValidationFailure, emit_plot
from gmtkit.errors import ResolutionError
from gmtkit.grids import GridFunction, RasterSet

_SQUARE = RasterSet(np.ones((4, 4), bool), [0.0, 0.0], 0.25)
_EMPTY = RasterSet(np.zeros((4, 4), bool), [0.0, 0.0], 0.25)
_LINEAR = GridFunction.from_callable(lambda x, y: x + y, [0.0, 0.0], [16, 16], 1 / 16)
_TWO_MAPS = [hd.SimilarityMap(0.5, [0.0]), hd.SimilarityMap(0.5, [0.5])]
_NO_PLOT_DIR = Path("never-written")

# name: (call, exception type or None for a return, message pattern or returned value)
_GUARDS = {
    "linear-map-nan-entry": (lambda: ar.LinearMap([[math.nan]]),
                             ValueError, "^matrix entries must be finite$"),
    "image-measure-linear-1d-raster": (
        lambda: ar.image_measure_linear(ar.LinearMap(np.eye(2)), RasterSet(np.ones(4, bool), [0.0], 0.25)),
        ValueError, "^raster dimension must equal k$"),
    "parametric-map-k-above-n": (lambda: ar.ParametricMap(lambda p: p, [0.0, 0.0], [1.0, 1.0], n=1),
                                 ValueError, "^need k <= n$"),
    "curve-length-of-a-surface": (lambda: ar.curve_length(ar.builtin_map("polar")),
                                  ValueError, "^curve_length needs a 1-parameter map$"),
    "area-formula-of-a-surface": (lambda: ar.area_formula_with_multiplicity(ar.builtin_map("polar")),
                                  ValueError, "^the two-sided area formula is implemented for k = n = 1$"),
    "point-cloud-no-axis": (lambda: hd.PointCloud(np.zeros((3, 0))),
                            ValueError, "^ambient dimension must be >= 1$"),
    "ifs-one-map": (lambda: hd.IfsSystem(_TWO_MAPS[:1]), ValueError, "^an IFS needs at least two maps$"),
    "premeasure-empty-cloud": (
        lambda: hd.premeasure_delta(hd.PointCloud(np.zeros((0, 2))), 1.0, 0.5, refine_floor=0.1),
        None, 0.0),
    "ifs-points-no-depth": (lambda: hd.ifs_points(hd.IfsSystem(_TWO_MAPS)),
                            ValueError, "^either depth or min_scale must be given$"),
    "dimension-repeated-scale": (
        lambda: hd.dimension_estimate(hd.PointCloud(np.zeros((1, 1))), [0.5, 0.25, 0.25, 0.125]),
        ValueError, "^scales must be strictly decreasing$"),
    "linear-image-3x3-on-2d": (lambda: hd.linear_image_measure_check(_SQUARE, np.eye(3)),
                               ValueError, "^T must be square and match the raster dimension$"),
    "linear-image-empty-raster": (lambda: hd.linear_image_measure_check(_EMPTY, 2 * np.eye(2)),
                                  None, (0.0, 0.0)),
    "raster-diameter-empty": (lambda: hd.raster_diameter(_EMPTY), ValueError, "^raster is empty$"),
    "atomic-measure-repeated-atom": (lambda: ms.AtomicMeasure(("a", "a"), [1.0, 2.0]),
                                     ValueError, "^atom identifiers must be unique$"),
    "atomic-measure-missing-weight": (lambda: ms.AtomicMeasure(("a", "b"), [1.0]),
                                      ms.AlignmentError, "^one weight vector per atom required$"),
    "atomic-measure-m-0": (lambda: ms.AtomicMeasure(("a",), np.zeros((1, 0))),
                           ValueError, "^weight dimension m must be >= 1$"),
    "atom-subset-2d-flags": (lambda: ms.AtomSubset(np.zeros((2, 2))),
                             ValueError, "^flags must be one-dimensional$"),
    "partition-sup-no-atoms": (lambda: ms.partition_variation_sup(ms.AtomicMeasure((), [])), None, 0.0),
    "lipschitz-ball-of-one-cell": (lambda: pw.pointwise_lipschitz(_LINEAR, [0.5, 0.5], radii=[0.01]),
                                   ResolutionError, "^no lattice points inside the radius schedule$"),
    "approx-partials-one-cell-axis": (
        lambda: pw.approx_partials(GridFunction(np.zeros((1, 8)), [0.0, 0.0], 0.125), [0.05, 0.5]),
        ResolutionError, "^axis 0 has no neighbours at x$"),
    "dyadic-cubes-past-one-cell": (
        lambda: [side for _, side in sb.dyadic_cubes(GridFunction(np.zeros((4, 4)), [0.0, 0.0], 0.25), 3)],
        None, [1.0, 0.5, 0.5, 0.5, 0.5]),
    "coarea-constant-field": (
        lambda: sb.variation_nd(GridFunction(np.ones((4, 4)), [0.0, 0.0], 0.25), "coarea"),
        None, sb.VariationReport(0.0, "coarea", [])),
    "tonelli-1d": (lambda: sb.tonelli_variation(GridFunction(np.zeros(4), [0.0], 0.25)),
                   ValueError, "^Tonelli variation is defined for 2-D grids$"),
    "loglog-plot-without-series": (lambda: emit_plot({"results": {}}, "loglog", _NO_PLOT_DIR),
                                   ValidationFailure, "^report lacks the scales/counts series"),
    "loglog-plot-empty-series": (
        lambda: emit_plot({"results": {"scales": [], "counts": []}}, "loglog", _NO_PLOT_DIR),
        ValidationFailure, "^empty series$"),
    "plot-unknown-kind": (lambda: emit_plot({"results": {}}, "bars", _NO_PLOT_DIR),
                          ValidationFailure, "^unknown plot kind 'bars'$"),
}


@pytest.mark.parametrize("name", list(_GUARDS))
def test_a_guard_is_reached_from_a_public_call(name):
    call, raises, outcome = _GUARDS[name]
    if raises is None:
        assert call() == outcome
        return
    with pytest.raises(raises, match=outcome) as info:
        call()
    assert type(info.value) is raises
