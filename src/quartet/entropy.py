"""Pair entanglement entropies and the sorted-profile fingerprint built from them."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, DomainError, PARTY_LETTERS, PureState, pair_cuts

PAIRS = ("AB", "AC", "AD", "BC", "BD", "CD")
TRACE_TOL = 1e-8
EIG_FLOOR = 1e-15
FINGERPRINT_TOL = 1e-7


def pair_parties(pair: str) -> tuple:
    """Party indices named by a two-letter pair label."""
    pair = pair.upper()
    if len(pair) != 2 or pair[0] == pair[1]:
        raise DomainError(f"bad pair label {pair!r}")
    return tuple(sorted(PARTY_LETTERS.index(c) for c in pair))


def complement(pair: str) -> str:
    """The opposite pair of a four-party system, e.g. AB -> CD."""
    rest = [c for c in "ABCD" if c not in pair.upper()]
    if len(rest) != 2:
        raise DomainError(f"{pair!r} is not a pair of four parties")
    return "".join(rest)


def eigenvalue_entropy(lam):
    """Von Neumann entropy in bits of each spectrum along the last axis of ``lam``.

    Eigenvalues in [-1e-10, 0) are treated as exact zeros; anything more
    negative is rejected.  Eigenvalues below ``EIG_FLOOR`` contribute exactly zero.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.min(initial=0.0) < -1e-10:
        raise DomainError("matrix is not positive semidefinite within tolerance")
    kept = np.where(lam >= EIG_FLOOR, lam, 1.0)
    return -(kept * np.log2(kept)).sum(axis=-1)


def entropy(m: DensityMatrix) -> float:
    """Von Neumann entropy -tr(m log2 m) of a unit-trace density matrix."""
    if abs(m.trace() - 1.0) > TRACE_TOL:
        raise DomainError(f"trace deviates from 1 by more than {TRACE_TOL}")
    return float(eigenvalue_entropy(np.linalg.eigvalsh(np.asarray(m.entries))))


def pair_entropies(s: PureState) -> dict:
    """Entropies of every two-party reduction, keyed by letter pairs AB, AC, ...

    Pairs whose reductions have the same size share one ``pair_cuts`` gather
    and one batched ``eigvalsh``; equal local dimensions make a single group.
    """
    if s.n_parties < 3:
        raise DomainError("pair entropies need at least three parties")
    if abs(s.norm() ** 2 - 1.0) > TRACE_TOL:
        raise DomainError(f"squared norm deviates from 1 by more than {TRACE_TOL}")
    pairs = list(itertools.combinations(range(s.n_parties), 2))
    groups = {}
    for a, b in pairs:
        groups.setdefault(s.dims[a] * s.dims[b], []).append((a, b))
    values = {}
    for rows in groups.values():
        _, rho = pair_cuts(s.amps, s.dims, tuple(rows))
        values.update(zip(rows, eigenvalue_entropy(np.linalg.eigvalsh(rho)).tolist()))
    return {PARTY_LETTERS[a] + PARTY_LETTERS[b]: values[a, b] for a, b in pairs}


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


def _sorted_values(x) -> tuple:
    if isinstance(x, EntropyProfile):
        return x.sorted_entries()
    if isinstance(x, dict):
        return tuple(sorted(x.values()))
    return tuple(sorted(float(v) for v in x))


def fingerprint_residual(a, b) -> float:
    """Largest entrywise gap between two sorted entropy fingerprints."""
    va, vb = _sorted_values(a), _sorted_values(b)
    if len(va) != len(vb):
        raise DomainError("fingerprints have different lengths")
    return float(max(abs(x - y) for x, y in zip(va, vb)))


def fingerprint_match(a, b, tol: float = FINGERPRINT_TOL) -> bool:
    """Sorted entropy values agree entrywise within tol.

    A necessary condition for local-unitary equivalence, not a sufficient one.
    Accepts EntropyProfile objects, pair->entropy dicts, or plain sequences.
    """
    return fingerprint_residual(a, b) <= tol
