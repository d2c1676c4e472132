"""geometry: warm in-process calls into hausdorff, area and measures.

Sizes are chosen so that the kernels (box counting, premeasure covers,
the partition-hit multiplicity scan, Gauss-Legendre quadrature) do the
work.  The seed moves inputs (translations, sample points,
weights, lap counts) but never their size, so every seed does the same
amount of work.
"""

from __future__ import annotations

import json
import math

import numpy as np

import checks
from workload import Op, rng_for


# Copies of the light tasks (0.03-0.3 s each) in a round, each copy on its
# own seeded inputs.  With one copy the round is 11 tasks, 60 % of its time
# in jacobian_l1_check, and the median latency of a run rests on ~22
# samples from eight tasks; three copies put ~48 light samples under it.
LIGHT_COPIES = 3


def build(seed: int, work_dir) -> list[Op]:
    """The heavy tasks once, then LIGHT_COPIES copies of the light ones."""
    ops = _heavy_ops(seed)
    for k in range(LIGHT_COPIES):
        ops += _light_ops(seed, k)
    return ops


def _heavy_ops(seed: int) -> list[Op]:
    """Tasks of about a second or more: two dimension estimates and the
    2-D multiplicity scan."""
    from gmtkit import area as ar
    from gmtkit import hausdorff as hd

    ops = []

    # Sierpinski triangle, translated by the seed
    shift = rng_for(seed, "sierpinski").random(2)
    corners = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, math.sqrt(3) / 4]])
    sierpinski = hd.IfsSystem(
        maps=tuple(hd.SimilarityMap(0.5, b + 0.5 * shift) for b in corners), depth=9
    )
    ops.append(Op(
        "dim-sierpinski",
        lambda: hd.dimension_estimate(sierpinski, hd.default_scales(3, 7)).slope,
        checks.sierpinski_slope,
    ))

    # dense 128 x 128 lattice of points, shifted by a seeded sub-cell offset
    n = 128
    axis = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = hd.PointCloud(np.stack([gx.ravel(), gy.ravel()], axis=1)
                         + rng_for(seed, "grid").random(2) / n)
    ops.append(Op(
        "dim-square-grid",
        lambda: hd.dimension_estimate(grid, hd.default_scales(4, 7)).slope,
        checks.square_grid_slope,
    ))
    ops.append(Op(
        "jacobian-l1-polar",
        lambda: ar.jacobian_l1_check(ar.builtin_map("polar")),
        lambda sides: checks.jacobian_l1(*sides),
    ))
    return ops


def _light_ops(seed: int, copy: int) -> list[Op]:
    """Tasks under half a second; copy k > 0 draws its own inputs and
    carries ``.k`` in its names."""
    from gmtkit import area as ar
    from gmtkit import hausdorff as hd
    from gmtkit import measures as ms

    tag = f".{copy}" if copy else ""
    ops = []

    # Cantor set conjugated by a seeded translation t: x -> x/3 + b + (2/3) t
    t = float(rng_for(seed, "cantor" + tag).random())
    cantor_json = json.dumps({
        "maps": [{"ratio": 1 / 3, "offset": [b + 2 / 3 * t]} for b in (0.0, 2 / 3)],
        "depth": 12,
    })
    ops.append(Op(
        "dim-cantor" + tag,
        lambda: hd.dimension_estimate(hd.IfsSystem.from_json(cantor_json),
                                      hd.default_scales(3, 10)).slope,
        checks.cantor_slope,
    ))

    # premeasure property suite on a seeded planar cloud
    rng = rng_for(seed, "premeasure" + tag)
    cloud = hd.PointCloud(rng.random((4000, 2)))
    scalings = 0.25 + 0.5 * rng.random(3)
    lipschitz = 0.5 + 2.0 * rng.random(3)

    def premeasure_suite():
        out = []
        for s, t, L in zip((0.5, 1.0, 1.5), scalings, lipschitz):
            mono = [hd.premeasure_delta(cloud, s, d, refine_floor=2.0**-8) for d in (0.4, 0.2, 0.1)]
            scaled = (hd.premeasure_delta(cloud.scale(t), s, t * 0.1),
                      t**s * hd.premeasure_delta(cloud, s, 0.1))
            image = hd.lipschitz_image_bound_check(lambda p, L=L: L * p, L, cloud, s, 0.1)
            out.append((mono, scaled, image))
        return out

    ops.append(Op(
        "premeasure-suite" + tag,
        premeasure_suite,
        lambda res: [checks.premeasure_properties(*r) for r in res],
    ))

    lo, hi = sorted(rng_for(seed, "helix" + tag).uniform(0.0, 2.0, 2))
    ops.append(Op(
        "curve-length-helix" + tag,
        lambda: ar.curve_length(ar.builtin_map("helix", lo=lo, hi=hi)),
        lambda length: checks.helix_length(length, lo, hi),
    ))
    ops.append(Op(
        "surface-measure-sphere" + tag,
        lambda: ar.surface_measure(ar.builtin_map("sphere")),
        checks.sphere_area,
    ))

    laps = int(rng_for(seed, "fold" + tag).integers(2, 6))
    ops.append(Op(
        "area-formula-fold" + tag,
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("fold", laps=laps), n_y=8192),
        lambda sides: checks.area_formula_sides(f"fold({laps} laps)", *sides, want=laps),
    ))
    ops.append(Op(
        "area-formula-square" + tag,
        lambda: ar.area_formula_with_multiplicity(ar.builtin_map("square"), n_y=8192),
        lambda sides: checks.area_formula_sides("x^2 on ]-1,1[", *sides, want=2.0),
    ))
    ops.append(Op(
        "change-of-variables-polar" + tag,
        lambda: ar.change_of_variables(ar.builtin_map("polar"), lambda p: np.ones(len(p))),
        lambda sides: checks.polar_disk_area(sides[0]),
    ))
    rng = rng_for(seed, "measures" + tag)
    measures = [ms.AtomicMeasure(tuple(range(10)), rng.standard_normal((10, m))) for m in (1, 2, 3)]

    def variations():
        return [(ms.total_variation(mu, mu.full_subset()), ms.partition_variation_sup(mu))
                for mu in measures]

    def check_variations(res):
        for (tv, sup), mu in zip(res, measures):
            checks.total_variation(tv, sup, mu.weights)

    ops.append(Op("total-variation-vs-partitions" + tag, variations, check_variations))
    return ops


def warm_up(work_dir) -> None:
    """Touch every code path once on small inputs: lazy imports, first calls."""
    from gmtkit import area as ar
    from gmtkit import hausdorff as hd
    from gmtkit import measures as ms

    cloud = hd.PointCloud(np.random.default_rng(0).random((64, 2)))
    hd.dimension_estimate(cloud, hd.default_scales(1, 4))
    hd.lipschitz_image_bound_check(lambda p: 2 * p, 2.0, cloud, 1.0, 0.4)
    hd.premeasure_delta(cloud, 1.0, 0.4, refine_floor=0.25)
    ar.curve_length(ar.builtin_map("helix"))
    ar.surface_measure(ar.builtin_map("sphere"), m=8)
    ar.area_formula_with_multiplicity(ar.builtin_map("fold"), n_y=64, depth=6, m_cells=64)
    ar.change_of_variables(ar.builtin_map("polar"), lambda p: np.ones(len(p)), n_y=16)
    ar.multiplicity(ar.builtin_map("polar"), [0.5, 0.0], depths=range(2, 4))
    mu = ms.AtomicMeasure((0, 1, 2), np.ones((3, 1)))
    ms.partition_variation_sup(mu)
    ms.total_variation(mu, mu.full_subset())
