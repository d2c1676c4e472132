"""Exception types and the one count check, shared across modules."""

import numbers


def _check_count(name: str, value, minimum: int, unit: str) -> None:
    """A count (cells, y-cells, depth, offsets) is an int >= ``minimum``, else a ValueError."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum} (at least one {unit}); got {value!r}")


class NonConvergenceError(RuntimeError):
    """A limit/refinement schedule failed to stabilize."""


class ResolutionError(ValueError):
    """Requested radius or step is below what the lattice resolves."""


class RegimeError(ValueError):
    """Exponent (p, n) pair routed to the wrong embedding check."""


class UnderResolvedKernelError(ValueError):
    """Mollifier width too small for the grid spacing."""
