"""Exception types and the rules shared across modules: counts, bounded reals
and the float range of a result."""

import math
import numbers
import sys

import numpy as np


def _check_count(name: str, value, minimum: int, unit: str) -> None:
    """A count (cells, depth, levels, bumps) is an int >= ``minimum`` and not a bool,
    else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum} (at least one {unit}); got {value!r}")


def _check_real(name: str, value, minimum: float | None = None, maximum: float = math.inf) -> None:
    """A real is finite and > 0, or >= ``minimum`` when one is given, and at
    most ``maximum``, else a ValueError."""
    above = 0 < value if minimum is None else minimum <= value
    if not (above and value <= sys.float_info.max and value <= maximum):  # no int past the float range
        bound = "positive" if minimum is None else "nonnegative" if minimum == 0 else f">= {minimum}"
        cap = "" if maximum == math.inf else f" and <= {maximum}"
        raise ValueError(f"{name} must be finite and {bound}{cap}, got {value}")


def _finite(compute, message) -> float:
    """The one float-range rule: ``float(compute())``, or ``ValueError(message())``
    where it overflows (``OverflowError``, or numpy overflow or invalid) or is not
    finite.  No second formula stands in past the range; ``message`` runs only then."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = float(compute())
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(message())
    return out


class NonConvergenceError(RuntimeError):
    """A limit/refinement schedule failed to stabilize."""


class ResolutionError(ValueError):
    """Requested radius or step is below what the lattice resolves."""


class SingularMapError(ValueError):
    """Linear map is singular where a nonsingular one is required."""


class RegimeError(ValueError):
    """Exponent (p, n) pair routed to the wrong embedding check."""


class UnderResolvedKernelError(ValueError):
    """Mollifier width too small for the grid spacing."""
