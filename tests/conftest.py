"""Shared test helpers: reference functions computed by independent routes."""

import tracemalloc

import numpy as np


def cantor_function(x, depth=30):
    """Ternary-digit evaluation of the Cantor (devil's staircase) function.

    Independent of anything in the library: walks base-3 digits, adding
    2^-k for each leading digit 2 and stopping with 2^-k at the first
    digit 1.
    """
    c = np.asarray(x, dtype=float).copy()
    f = np.zeros_like(c)
    alive = np.ones(c.shape, dtype=bool)
    scale = 0.5
    for _ in range(depth):
        d = np.floor(c * 3).astype(int)
        c = c * 3 - d
        hit_one = alive & (d == 1)
        f = f + np.where(alive & (d == 2), scale, 0.0) + np.where(hit_one, scale, 0.0)
        alive = alive & ~hit_one
        scale *= 0.5
    return f


def cantor_ifs_json(depth=12):
    return (
        '{"maps": [{"ratio": 0.3333333333333333, "offset": [0.0]}, '
        '{"ratio": 0.3333333333333333, "offset": [0.6666666666666666]}], '
        f'"depth": {depth}}}'
    )


def z_squared_map(lo, hi):
    """z -> z^2 on a box of C = R^2: two preimages when the box is symmetric."""
    from gmtkit.area import ParametricMap

    return ParametricMap(
        lambda p: np.stack([p[:, 0] ** 2 - p[:, 1] ** 2, 2 * p[:, 0] * p[:, 1]], axis=1),
        lo,
        hi,
        n=2,
    )


def traced_peak(call):
    """The peak of the memory that tracemalloc traces while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
