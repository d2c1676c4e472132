"""Signed and vector measures on a finite set of atoms.

Every measure here is a finite list of atoms with a weight vector in R^m
per atom (m = 1 is the signed/real case).  On such spaces the classical
decompositions are exact finite computations: total variation is attained
by the singleton partition, Jordan/Hahn reduce to sign splits and
Radon-Nikodym to per-atom ratios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AtomicMeasure",
    "AtomSubset",
    "AlignmentError",
    "VectorMeasureError",
    "NotAPositiveMeasureError",
    "measure_of",
    "total_variation",
    "jordan_decomposition",
    "hahn_decomposition",
    "radon_nikodym",
    "density_tv_identity",
    "restrict",
    "partition_variation_sup",
    "is_absolutely_continuous",
]


# (S, B) pairs per numpy chunk of partition_variation_sup
_PAIR_CHUNK = 1 << 16


class AlignmentError(ValueError):
    """Subset or measure does not share the atom list it is applied to."""


class VectorMeasureError(ValueError):
    """Operation defined only for real (m = 1) measures."""


class NotAPositiveMeasureError(ValueError):
    """Reference measure has a negative weight."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite measure: ordered atom identifiers plus per-atom weights in R^m."""

    atoms: tuple
    weights: np.ndarray  # shape (len(atoms), m)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        object.__setattr__(self, "weights", w)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom identifiers must be unique")
        if w.shape[0] != len(self.atoms):
            raise AlignmentError("one weight vector per atom required")
        if w.shape[1] < 1:
            raise ValueError("weight dimension m must be >= 1")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")

    @property
    def m(self) -> int:
        return self.weights.shape[1]

    @property
    def size(self) -> int:
        return len(self.atoms)

    def full_subset(self) -> "AtomSubset":
        return AtomSubset(np.ones(self.size, dtype=bool))

    def empty_subset(self) -> "AtomSubset":
        return AtomSubset(np.zeros(self.size, dtype=bool))

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure(self.atoms, self.weights + _aligned_weights(self, other, same_m=True))

    def __sub__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure(self.atoms, self.weights - _aligned_weights(self, other, same_m=True))

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": list(self.atoms), "m": self.m, "weights": self.weights.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "AtomicMeasure":
        data = json.loads(text)
        mu = cls(tuple(data["atoms"]), data["weights"])
        if mu.m != data["m"]:
            raise ValueError("weight rows must have length m")
        return mu


@dataclass(frozen=True)
class AtomSubset:
    """Member flags aligned with an AtomicMeasure's atom list."""

    flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flags", np.asarray(self.flags, dtype=bool))
        if self.flags.ndim != 1:
            raise ValueError("flags must be one-dimensional")

    @classmethod
    def from_atoms(cls, mu: AtomicMeasure, members: Sequence) -> "AtomSubset":
        member_set = set(members)
        return cls(np.array([a in member_set for a in mu.atoms], dtype=bool))

    def __and__(self, other: "AtomSubset") -> "AtomSubset":
        return AtomSubset(self.flags & other.flags)

    def __invert__(self) -> "AtomSubset":
        return AtomSubset(~self.flags)


def _check_aligned(mu: AtomicMeasure, E: AtomSubset) -> None:
    if E.flags.shape[0] != mu.size:
        raise AlignmentError(
            f"subset has {E.flags.shape[0]} flags for {mu.size} atoms"
        )


def _aligned_weights(mu: AtomicMeasure, nu: AtomicMeasure, same_m: bool = False) -> np.ndarray:
    """The one same-atom-list rule (``same_m``: and the same m): nu's weights on mu's atoms."""
    if nu.atoms != mu.atoms or (same_m and nu.m != mu.m):
        raise AlignmentError(f"measures must share the atom list{' and m' if same_m else ''}")
    return nu.weights


def _real_weights(mu: AtomicMeasure, role: str) -> np.ndarray:
    """The one real-measure rule: mu's weights as an (atoms,) array when m = 1."""
    if mu.m != 1:
        raise VectorMeasureError(f"{role} must be real (m = 1), got m = {mu.m}")
    return mu.weights[:, 0]


def measure_of(mu: AtomicMeasure, E: AtomSubset) -> np.ndarray:
    """mu(E): componentwise sum of weights over member atoms."""
    _check_aligned(mu, E)
    return mu.weights[E.flags].sum(axis=0) if E.flags.any() else np.zeros(mu.m)


def total_variation(mu: AtomicMeasure, E: AtomSubset) -> float:
    """|mu|(E) as the sum of per-atom Euclidean weight norms over E.

    On atomic measures the supremum over partitions is attained by the
    singleton partition, so this finite sum is the exact total variation.
    """
    _check_aligned(mu, E)
    norms = np.linalg.norm(mu.weights, axis=1)
    return float(norms[E.flags].sum())


def jordan_decomposition(mu: AtomicMeasure) -> tuple[AtomicMeasure, AtomicMeasure]:
    """Split a real measure into mutually singular positive/negative parts."""
    w = _real_weights(mu, "the decomposed measure")
    pos = AtomicMeasure(mu.atoms, np.maximum(w, 0.0))
    neg = AtomicMeasure(mu.atoms, np.maximum(-w, 0.0))
    return pos, neg


def hahn_decomposition(mu: AtomicMeasure) -> tuple[AtomSubset, AtomSubset]:
    """Positive/negative atom sets; weight-0 atoms go to the positive side."""
    pos = AtomSubset(_real_weights(mu, "the decomposed measure") >= 0)
    return pos, ~pos


def radon_nikodym(
    mu: AtomicMeasure, nu: AtomicMeasure
) -> tuple[np.ndarray, AtomicMeasure]:
    """Split mu into a density w.r.t. nu plus a part singular to nu.

    Returns ``(f, singular)`` with ``mu = f * nu + singular`` exactly:
    on atoms where nu > 0 the density is the weight ratio, elsewhere the
    whole weight is singular.
    """
    nw = _real_weights(nu, "the reference measure")
    _aligned_weights(mu, nu)
    if np.any(nw < 0):
        raise NotAPositiveMeasureError("reference measure has negative weights")
    positive = nw > 0
    f = np.zeros_like(mu.weights)
    f[positive] = mu.weights[positive] / nw[positive, None]
    singular_w = np.where(positive[:, None], 0.0, mu.weights)
    return f, AtomicMeasure(mu.atoms, singular_w)


def density_tv_identity(f: np.ndarray, nu: AtomicMeasure) -> tuple[float, float]:
    """Both sides of |f nu|(X) = sum_i ||f_i|| nu_i, computed independently."""
    nw = _real_weights(nu, "the reference measure")
    f = AtomicMeasure(nu.atoms, f).weights  # the weight rules: one finite vector per atom
    fnu = AtomicMeasure(nu.atoms, f * nw[:, None])
    lhs = total_variation(fnu, fnu.full_subset())
    rhs = float((np.linalg.norm(f, axis=1) * nw).sum())
    return lhs, rhs


def restrict(mu: AtomicMeasure, E: AtomSubset) -> AtomicMeasure:
    """mu restricted to E: weights zeroed outside E."""
    _check_aligned(mu, E)
    return AtomicMeasure(mu.atoms, np.where(E.flags[:, None], mu.weights, 0.0))


def is_absolutely_continuous(mu: AtomicMeasure, nu: AtomicMeasure) -> bool:
    """nu(atom) = 0 implies the atom carries no mu mass."""
    null = ~np.any(_aligned_weights(mu, nu), axis=1)
    return bool(np.all(np.linalg.norm(mu.weights[null], axis=1) == 0))


def partition_variation_sup(mu: AtomicMeasure) -> float:
    """Exhaustive supremum of sum_j ||mu(E_j)|| over all set partitions.

    Dynamic program over atom subsets (Held & Karp, *J. SIAM* 10, 1962):
    every partition of a subset S splits off the block B that holds the
    lowest atom of S, so best[S] = max over B of ||mu(B)|| + best[S - B],
    and the maximum over all partitions is exact.  The subsets are taken
    one size at a time, their (S, B) pairs in numpy chunks of about
    ``_PAIR_CHUNK``: (3^k - 1)/2 pairs in all, so k = 16, the limit,
    answers in under a second.  Each candidate is one float addition and
    a maximum is exact, so no order of the pairs changes a bit.  Intended
    as an independent oracle for :func:`total_variation`.
    """
    k = mu.size
    if k == 0:
        return 0.0
    if k > 16:
        raise ValueError("exhaustive partition supremum is limited to 16 atoms")
    # subset_sums[S] = mu(S) and size[S] = |S| for every bitmask S
    subset_sums = np.zeros((1 << k, mu.m))
    size = np.zeros(1 << k, dtype=np.int8)
    for i in range(k):
        bit = 1 << i
        subset_sums[bit : 2 * bit] = subset_sums[:bit] + mu.weights[i]
        size[bit : 2 * bit] = size[:bit] + 1
    norms = np.linalg.norm(subset_sums, axis=1)
    best = np.zeros(1 << k)
    for p in range(1, k + 1):
        subsets = np.flatnonzero(size == p)
        rows = max(1, _PAIR_CHUNK >> (p - 1))  # each S of size p has 2^(p-1) blocks B
        for r in range(0, len(subsets), rows):
            S = subsets[r : r + rows]
            low = S & -S
            rest = S ^ low
            # B = low | T for every subset T of rest, depositing rest's bits one at a time
            B = np.empty((len(S), 1 << (p - 1)), dtype=S.dtype)
            B[:, 0] = low
            for j in range(p - 1):
                bit = rest & -rest
                rest ^= bit
                np.bitwise_or(B[:, : 1 << j], bit[:, None], out=B[:, 1 << j : 2 << j])
            cand = norms[B]
            np.bitwise_xor(B, S[:, None], out=B)  # the rest S - B of each block
            with np.errstate(over="ignore"):  # a candidate past the float range is inf, silently
                cand += best[B]
            best[S] = cand.max(axis=1)
    return float(best[-1])
