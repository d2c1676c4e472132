"""lattice: warm in-process grid work in pointwise, smoothing, sobolev_bv
and grids.

The seed moves inputs (shifts, field coefficients, bump centres, jump
positions, test-function batteries) but never their size, so every seed
does the same amount of work.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from workload import Op, rng_for


def _bump(x, y, c, r):
    r2 = ((x - c[0]) ** 2 + (y - c[1]) ** 2) / (r * r)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


def bump_fields(rng, count: int, n: int = 96) -> list[np.ndarray]:
    """Sums of three smooth compactly supported bumps on ]0,1[^2."""
    axis = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(axis, axis, indexing="ij")
    fields = []
    for _ in range(count):
        vals = np.zeros((n, n))
        for _ in range(3):
            vals += rng.standard_normal() * _bump(x, y, 0.2 + 0.6 * rng.random(2),
                                                  0.1 + 0.15 * rng.random())
        fields.append(vals)
    return fields


def _dyadic_interval_mask(M: int) -> np.ndarray:
    """Union of [2^-(2j+1), 2^-2j[ on ]0,1[ at h = 2^-M; density 1/3 and 1/6
    at 0 along even and odd dyadic radii.
    """
    mask = np.zeros(2**M, dtype=bool)
    j = 0
    while 2 * j + 1 <= M:
        mask[2 ** (M - 2 * j - 1): 2 ** (M - 2 * j)] = True
        j += 1
    return mask


def build(seed: int, work_dir) -> list[Op]:
    from gmtkit import pointwise as pw
    from gmtkit import smoothing as sm
    from gmtkit import sobolev_bv as sb
    from gmtkit.grids import GridFunction, RasterSet

    ops = []

    # dyadic intervals at h = 2^-23 and a half-line, shifted by the seed
    rng = rng_for(seed, "density")
    shifts = rng.integers(0, 1024, 8) * 2.0**-10
    mask = _dyadic_interval_mask(23)
    dyadics = [RasterSet(mask, [a], 2.0**-23) for a in shifts]
    edges = -1.0 + rng.integers(2048, 6144, 4) * (2 / 8192)
    halves = [RasterSet.from_predicate(lambda x, e=e: x >= e, [-1.0], [8192], 2 / 8192)
              for e in edges]

    def densities():
        even = [pw.density(E, E.origin, radii=[2.0 ** (-2 * k)]).ratios[0]
                for E in dyadics for k in range(3, 7)]
        odd = [pw.density(E, E.origin, radii=[2.0 ** (-2 * k - 1)]).ratios[0]
               for E in dyadics for k in range(3, 7)]
        half = [r for H, e in zip(halves, edges)
                for r in pw.density(H, [e], radii=2.0 ** -np.arange(4, 10)).ratios]
        return even, odd, half

    def check_densities(res):
        even, odd, half = res
        for r in even:
            checks.density_ratio("1/3", r, 1 / 3)
        for r in odd:
            checks.density_ratio("1/6", r, 1 / 6)
        for r in half:
            checks.density_ratio("1/2", r, 0.5)

    ops.append(Op("density", densities, check_densities))

    # a gentle smooth field plus a jump across a seeded line, on 256^2; the
    # radii are fixed so that every seed does the same work
    rng = rng_for(seed, "approx-limit")
    phase, cut, tilt, jump = rng.uniform(0, 2 * math.pi), rng.uniform(-0.1, 0.1), \
        rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.2)

    def field(x, y):
        return 0.2 * np.sin(x + phase) + 0.15 * y * y + jump * (x >= cut + tilt * y)

    f_jump = GridFunction.from_callable(field, [-1.0, -1.0], [256, 256], 2 / 256)
    radii = 0.32 * 2.0 ** -np.arange(4)
    smooth_pts = np.stack([cut - 0.5 + rng.uniform(-0.05, 0.05, 8), rng.uniform(-0.3, 0.3, 8)], 1)
    smooth_vals = field(smooth_pts[:, 0], smooth_pts[:, 1])
    y_jump = rng.uniform(-0.3, 0.3)
    jump_pt = [cut + tilt * y_jump, y_jump]
    ops.append(Op(
        "approx-limit-smooth",
        lambda: [pw.approx_limit(f_jump, p, radii=radii) for p in smooth_pts],
        lambda vals: [checks.approx_limit_smooth(v, fx) for v, fx in zip(vals, smooth_vals)],
    ))
    ops.append(Op(
        "approx-limit-jump",
        lambda: pw.approx_limit(f_jump, jump_pt, radii=radii),
        checks.approx_limit_jump,
    ))

    def ratio(x, y):
        d = x**2 + y**2
        return np.where(d > 0, x**2 * y / np.where(d > 0, d, 1.0), 0.0)

    directions = [np.array([1.0, 1.0])] + list(rng_for(seed, "direction").uniform(0.2, 1.0, (99, 2)))

    def derivatives():
        return [pw.directional_derivative(ratio, [0.0, 0.0], v) for v in directions]

    def check_derivatives(res):
        for got, v in zip(res, directions):
            checks.directional_derivative(got, v)

    ops.append(Op("directional-derivative", derivatives, check_derivatives))

    ops.append(Op(
        "mollifier-mass",
        lambda: [sm.make_standard_mollifier(n, 0.05).mass() for n in (1, 2)],
        lambda masses: [checks.mollifier_mass(m) for m in masses],
    ))
    rng = rng_for(seed, "mollify")
    noisy = GridFunction(rng.standard_normal((512, 512)), [0.0, 0.0], 1 / 512)
    probe = rng.integers(0, 512 - 50, (16, 2))
    ops.append(Op(
        "mollify-field",
        lambda: sm.mollify(noisy, sm.make_standard_mollifier(2, 0.05)).values,
        lambda out: checks.mollified_cells(out, noisy.values, 0.05, noisy.h, probe),
    ))
    c = float(rng.uniform(-2.0, 2.0))
    constant = GridFunction(np.full((512, 512), c), [0.0, 0.0], 1 / 512)
    ops.append(Op(
        "mollify-constant",
        lambda: sm.mollify(constant, sm.make_standard_mollifier(2, 0.05)).values,
        lambda out: checks.constant_mollified(out, c),
    ))

    # x+ and its weak derivative H on ]-1,1[, against a seeded battery
    x_plus = GridFunction.from_callable(lambda x: np.maximum(x, 0.0), [-1.0], [20000], 1e-4)
    heaviside = GridFunction.from_callable(lambda x: (x > 0).astype(float), [-1.0], [20000], 1e-4)
    battery = sm.TestFunctionBattery.seeded([-1.0], [1.0], count=48, seed=seed)
    ops.append(Op(
        "weak-derivative",
        lambda: sm.weak_derivative_residual(x_plus, heaviside, 0, battery),
        checks.weak_residual,
    ))

    rng = rng_for(seed, "variation")
    centre, width = 0.3 + 0.4 * rng.random(2), 8 + 10 * rng.random()
    bump = GridFunction.from_callable(
        lambda x, y: np.exp(-width * ((x - centre[0]) ** 2 + (y - centre[1]) ** 2)),
        [0.0, 0.0], [256, 256], 1 / 256,
    )
    ops.append(Op(
        "variation-three-routes",
        lambda: tuple(sb.variation_nd(bump, m).tv
                      for m in ("gradient-integral", "coarea", "divergence-sup")),
        lambda tvs: checks.variation_routes(*tvs),
    ))

    fields = [GridFunction(v, [0.0, 0.0], 1 / 96) for v in bump_fields(rng_for(seed, "sobolev"), 100)]
    ops.append(Op(
        "gns-battery",
        lambda: [sb.gns_check(f, 1.0)[:2] for f in fields],
        lambda res: [checks.inequality_holds("GNS", *r) for r in res],
    ))
    ops.append(Op(
        "poincare-battery",
        lambda: [sb.poincare_cube_check(f, [0.0, 0.0], 1.0, 2.0) for f in fields],
        lambda res: [checks.inequality_holds("Poincare", *r) for r in res],
    ))
    ops.append(Op(
        "morrey-battery",
        lambda: [sb.morrey_check(f, 4.0, n_pairs=100, seed=seed + i) for i, f in enumerate(fields[:20])],
        lambda res: [checks.inequality_holds("Morrey", w, 1.0) for w in res],
    ))
    flat = GridFunction(np.full((64, 64), 2.25), [0.0, 0.0], 1 / 64)
    ops.append(Op(
        "bmo",
        lambda: (sb.bmo_seminorm(flat), [sb.bmo_seminorm(f) for f in fields[:20]]),
        lambda res: (checks.bmo_of_constant(res[0]),
                     [checks.inequality_holds("BMO <= 2 sup", b, 2 * float(np.abs(f.values).max()))
                      for b, f in zip(res[1], fields)]),
    ))

    # smooth rises plus eight seeded jumps each, N = 16384
    rng = rng_for(seed, "decompose")
    N = 16384
    xs = (np.arange(N) + 0.5) / N
    staircases = []
    for _ in range(8):
        f = 0.3 * np.sin(2 * math.pi * xs * (1 + rng.random()))
        for loc, height in zip(rng.choice(np.arange(100, N - 100), 8, replace=False),
                               rng.uniform(0.2, 1.0, 8)):
            f[loc + 1:] += height
        staircases.append(f)
    ops.append(Op(
        "decompose-1d",
        lambda: [sb.decompose_1d(f) for f in staircases],
        lambda parts: [checks.decomposition_sums(f, d.ac_part, d.jump_part, d.cantor_part)
                       for f, d in zip(staircases, parts)],
    ))

    grid = GridFunction(rng_for(seed, "csv").standard_normal((256, 256)), [-0.5, 0.25], 1 / 256)
    csv_path = work_dir / "roundtrip.csv"

    def roundtrip():
        grid.to_csv(csv_path)
        return GridFunction.from_csv(csv_path)

    def check_roundtrip(back):
        checks.bit_exact("CSV values", grid.values, back.values)
        checks.bit_exact("CSV origin", grid.origin, back.origin)
        checks.bit_exact("CSV spacing", np.float64(grid.h), np.float64(back.h))

    ops.append(Op("csv-roundtrip", roundtrip, check_roundtrip))
    return ops


def warm_up(work_dir) -> None:
    """Touch every code path once on small inputs: lazy imports, first calls."""
    from gmtkit import pointwise as pw
    from gmtkit import smoothing as sm
    from gmtkit import sobolev_bv as sb
    from gmtkit.grids import GridFunction, RasterSet

    E = RasterSet.from_predicate(lambda x: x >= 0, [-1.0], [256], 2 / 256)
    pw.density(E, [0.0])
    f = GridFunction.from_callable(lambda x, y: (x > 0) + 0.1 * y, [-1, -1], [32, 32], 2 / 32)
    pw.approx_limit(f, [0.0, 0.0])
    pw.directional_derivative(lambda x, y: x * y, [0.0, 0.0], [1.0, 1.0])
    kernel = sm.make_standard_mollifier(2, 0.2)
    kernel.mass()
    sm.mollify(f, kernel)
    g = GridFunction.from_callable(lambda x: x, [-1.0], [64], 2 / 64)
    sm.weak_derivative_residual(g, g, 0, sm.TestFunctionBattery.seeded([-1.0], [1.0], count=2))
    for method in ("gradient-integral", "coarea", "divergence-sup"):
        sb.variation_nd(f, method, n_levels=4, n_fields=2)
    sb.gns_check(f, 1.0)
    sb.poincare_cube_check(f, [-1.0, -1.0], 1.0, 2.0)
    sb.morrey_check(f, 4.0, n_pairs=4)
    sb.bmo_seminorm(f)
    sb.decompose_1d(np.arange(64.0))
    f.to_csv(work_dir / "warm.csv")
    GridFunction.from_csv(work_dir / "warm.csv")
