"""Pair entanglement entropies: spectra of pair reductions, their von Neumann
entropies, batched over stacks of states, and the six-entry four-party profile."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import UNIT_NORM_TOL, DomainError, PARTY_LETTERS, PureState, check_normalized, pair_cuts

PAIRS = ("AB", "AC", "AD", "BC", "BD", "CD")
EIG_FLOOR = 1e-15


def eigenvalue_entropy(lam):
    """Von Neumann entropy in bits of each spectrum along the last axis of ``lam``.

    Eigenvalues in [-1e-10, 0) are treated as exact zeros; anything more negative,
    or NaN, is rejected.  Eigenvalues below ``EIG_FLOOR`` contribute exactly zero.
    An entropy is never negative: a pure spectrum whose eigenvalue rounds just
    above 1, such as [1 + 4.4e-16, 0], gives +0.0 like an exact one, never -0.0.
    """
    lam = np.asarray(lam, dtype=float)
    if not lam.min(initial=0.0) >= -1e-10:
        raise DomainError("eigenvalue is NaN" if np.isnan(lam).any()
                          else "matrix is not positive semidefinite within tolerance")
    kept = np.where(lam >= EIG_FLOOR, lam, 1.0)
    return np.maximum(0.0 - (kept * np.log2(kept)).sum(axis=-1), 0.0)


def spectra(rho) -> np.ndarray:
    """Ascending eigenvalues ``(..., d)`` of each Hermitian positive semidefinite
    matrix in a stack ``(..., d, d)``.

    A 2x2 [[a, b], [b*, c]] takes the closed form: the larger eigenvalue is
    (a + c + sqrt((a - c)^2 + 4|b|^2)) / 2, and the smaller is the determinant
    ac - |b|^2, clipped at 0, over the larger rather than the difference of those
    two terms, so neither is negative.  A larger stack takes one ``eigvalsh``.
    """
    if rho.shape[-1] != 2:
        return np.linalg.eigvalsh(rho)
    a, c = rho[..., 0, 0].real, rho[..., 1, 1].real
    coherence = np.abs(rho[..., 0, 1]) ** 2
    high = (a + c + np.sqrt((a - c) ** 2 + 4.0 * coherence)) / 2.0
    low = np.maximum(a * c - coherence, 0.0) / np.where(high > 0.0, high, 1.0)
    return np.stack([low, high], axis=-1)


def entropy(rho) -> float:
    """Von Neumann entropy -tr(rho log2 rho) of a unit-trace Hermitian matrix."""
    if not abs(np.trace(rho).real - 1.0) <= UNIT_NORM_TOL:
        raise DomainError(f"trace deviates from 1 by more than {UNIT_NORM_TOL}")
    return float(eigenvalue_entropy(np.linalg.eigvalsh(rho)))


@functools.lru_cache(maxsize=None)
def _pair_sides(dims: tuple) -> tuple:
    """Groups ``(pair indices, sides)`` of the pairs of ``dims`` whose reductions
    have equal size, pairs numbered in ``itertools.combinations`` order.

    A pure state's pair entropy equals the entropy of the pair's complement, so
    each pair is read from the side of its cut with fewer parties, the pair
    itself on a tie: a single party for three parties, the pair from four up.
    """
    n = len(dims)
    groups = {}
    for i, pair in enumerate(itertools.combinations(range(n), 2)):
        rest = tuple(q for q in range(n) if q not in pair)
        side = rest if len(rest) < len(pair) else pair
        groups.setdefault(math.prod(dims[q] for q in side), []).append((i, side))
    return tuple((tuple(i for i, _ in rows), tuple(side for _, side in rows))
                 for rows in groups.values())


def stacked_pair_entropies(amps, dims) -> np.ndarray:
    """Pair entropies ``(..., P)`` of every pure state in ``amps`` shaped ``(..., R)``.

    Pairs run in ``itertools.combinations`` order.  Sides of equal size share
    one ``pair_cuts`` gather and one ``spectra`` call over the whole stack, so a
    qubit side costs no eigensolver.
    """
    dims = tuple(dims)
    if len(dims) < 3:
        raise DomainError("pair entropies need at least three parties")
    amps = np.asarray(amps, dtype=complex)
    check_normalized(amps)
    out = np.empty(amps.shape[:-1] + (math.comb(len(dims), 2),))
    for index, sides in _pair_sides(dims):
        _, rho = pair_cuts(amps, dims, sides)
        out[..., index] = eigenvalue_entropy(spectra(rho))
    return out


def pair_entropies(s: PureState) -> dict:
    """Entropies of every two-party reduction, keyed by letter pairs AB, AC, ..."""
    pairs = itertools.combinations(range(s.n_parties), 2)
    values = stacked_pair_entropies(s.amps, s.dims).tolist()
    return {PARTY_LETTERS[a] + PARTY_LETTERS[b]: v for (a, b), v in zip(pairs, values)}


@dataclass(frozen=True)
class EntropyProfile:
    """The six pair entropies of a four-party state and their average."""

    entries: dict
    average: float

    def sorted_entries(self) -> tuple:
        return tuple(sorted(self.entries.values()))

    def to_json(self) -> dict:
        return {"pairs": dict(self.entries), "average": self.average}


def profile(s: PureState) -> EntropyProfile:
    """Entropy profile over the six pairs of a four-party state."""
    if s.n_parties != 4:
        raise DomainError(f"profile is defined for four parties, got {s.n_parties}")
    entries = pair_entropies(s)
    return EntropyProfile(entries, math.fsum(entries.values()) / 6.0)

