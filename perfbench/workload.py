"""What a workload is: a round of operations, each run and then checked."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    """One library task (or one CLI job).

    ``run`` does the work that is timed; ``check`` receives its result
    and raises ``checks.CheckFailed`` when the output is wrong.  Checks
    run outside the timed span.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent stream per (seed, input), stable when inputs are added."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])
