"""Projective single-party measurements and entanglement robustness reports.

Measuring party p in an orthonormal basis contracts each basis bra onto that
party's axis; the squared norm of the contraction is the Born probability and
the renormalized remainder is the residual state on the other parties, with
their original order preserved.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import unitary_from_first_column
from .core import (
    DomainError,
    PARTY_LETTERS,
    PureState,
    ShapeError,
    apply_local_unitary,
    check_count,
    inner,
)
from .entropy import pair_entropies

PROB_FLOOR = 1e-14
ORTHO_TOL = 1e-10
FRAGILE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal single-party basis; ``vectors[k]`` is the k-th basis vector."""

    party: int
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise ShapeError(f"basis must be square, got shape {vectors.shape}")
        gram = vectors @ vectors.conj().T
        if np.max(np.abs(gram - np.eye(vectors.shape[0]))) >= ORTHO_TOL:
            raise DomainError("basis vectors are not orthonormal within tolerance")
        vectors.setflags(write=False)
        object.__setattr__(self, "party", int(self.party))
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def computational_basis(party: int, dim: int = 2) -> MeasurementBasis:
    return MeasurementBasis(party, np.eye(dim, dtype=complex))


def plus_minus_basis(party: int) -> MeasurementBasis:
    r = 1.0 / np.sqrt(2.0)
    return MeasurementBasis(party, np.array([[r, r], [r, -r]], dtype=complex))


def random_basis(party: int, dim: int, rng) -> MeasurementBasis:
    """First vector Haar-uniform on the local sphere, completed deterministically."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = unitary_from_first_column(z / np.linalg.norm(z))
    return MeasurementBasis(party, u.T)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of a projective measurement; ``residual`` is None when the
    probability is below 1e-14 and the post-measurement state is undefined."""

    index: int
    probability: float
    residual: PureState


def measure(s: PureState, basis: MeasurementBasis) -> list:
    """All outcomes of measuring one party, with Born probabilities summing to 1."""
    p = basis.party
    if p < 0 or p >= s.n_parties:
        raise DomainError(f"party {p} out of range")
    if s.n_parties < 2:
        raise DomainError("measurement needs at least two parties")
    if basis.dim != s.dims[p]:
        raise ShapeError(f"basis dimension {basis.dim} does not match party dimension {s.dims[p]}")
    t = s.tensor()
    rest = tuple(d for q, d in enumerate(s.dims) if q != p)
    outcomes = []
    for k in range(basis.dim):
        w = np.tensordot(basis.vectors[k].conj(), t, axes=([0], [p])).reshape(-1)
        prob = float(np.linalg.norm(w) ** 2)
        residual = PureState(rest, w / np.sqrt(prob)) if prob >= PROB_FLOOR else None
        outcomes.append(MeasurementOutcome(k, prob, residual))
    return outcomes


def residual_pair_entropies(residual: PureState, measured_party: int, n_parties: int) -> dict:
    """Pair entropies of a residual keyed by the original letters; {} below three parties."""
    remaining = "".join(PARTY_LETTERS[q] for q in range(n_parties) if q != measured_party)
    if len(remaining) != residual.n_parties:
        raise DomainError(f"residual has {residual.n_parties} parties, expected {len(remaining)}")
    if residual.n_parties < 3:
        return {}
    relabel = str.maketrans(PARTY_LETTERS[: len(remaining)], remaining)
    return {key.translate(relabel): v for key, v in pair_entropies(residual).items()}


def equivariance_overlap(s: PureState, party: int, u) -> float:
    """Smallest overlap modulus between rotated-basis residuals and the
    locally rotated computational residuals.

    For a state invariant (up to phase) under u applied to every party, each
    outcome of the basis {u|k>} leaves a residual equal, up to phase, to u
    applied on every unmeasured party of the computational outcome's residual.
    Returns 1.0 exactly in that case, up to round-off.
    """
    u = np.asarray(u, dtype=complex)
    rotated = measure(s, MeasurementBasis(party, u.T))
    plain = measure(s, computational_basis(party, s.dims[party]))
    overlaps = []
    for rot, comp in zip(rotated, plain):
        if rot.residual is None or comp.residual is None:
            continue
        carried = comp.residual
        for q in range(carried.n_parties):
            carried = apply_local_unitary(carried, q, u)
        overlaps.append(abs(inner(rot.residual, carried)))
    if not overlaps:
        raise DomainError("no outcome has probability above the floor")
    return float(min(overlaps))


def _basis_row(state, basis, measured_party):
    entries = []
    defined_entropies = []
    for outcome in measure(state, basis):
        row = {"outcome": outcome.index, "probability": outcome.probability}
        if outcome.residual is None:
            row["undefined"] = True
        else:
            ent = residual_pair_entropies(outcome.residual, measured_party, state.n_parties)
            row["entropies"] = ent
            defined_entropies.extend(ent.values())
        entries.append(row)
    fragile = bool(defined_entropies) and all(e < FRAGILE_TOL for e in defined_entropies)
    return {"fragile": fragile, "outcomes": entries}, defined_entropies


def robustness_report(s: PureState, trials: int, seed: int = 0) -> dict:
    """Residual pair entropies under single-party measurements of a four-party state.

    For every party this evaluates the computational basis, the |+>/|-> basis,
    and ``trials`` Haar-random bases (sub-seeded per party and trial).  Random
    bases contribute min/max/mean statistics per remaining pair; each basis also
    carries a fragility flag (every residual entropy below 1e-10).
    """
    if s.n_parties != 4:
        raise DomainError(f"robustness_report is defined for four parties, got {s.n_parties}")
    check_count("trials", trials, 1)
    check_count("seed", seed)
    per_party = {}
    pooled = []
    for p in range(4):
        letter = PARTY_LETTERS[p]
        d = s.dims[p]
        comp_row, _ = _basis_row(s, computational_basis(p, d), p)
        entry = {"computational": comp_row}
        if d == 2:
            pm_row, _ = _basis_row(s, plus_minus_basis(p), p)
            entry["plusminus"] = pm_row
        samples = {}
        fragile_trials = []
        for trial in range(trials):
            rng = np.random.default_rng([seed, p, trial])
            row, values = _basis_row(s, random_basis(p, d, rng), p)
            if row["fragile"]:
                fragile_trials.append(trial)
            for outcome in row["outcomes"]:
                for pair, value in outcome.get("entropies", {}).items():
                    samples.setdefault(pair, []).append(value)
            pooled.extend(values)
        entry["random"] = {
            "pairs": {
                pair: {
                    "min": float(np.min(vals)),
                    "max": float(np.max(vals)),
                    "mean": float(np.mean(vals)),
                }
                for pair, vals in sorted(samples.items())
            },
            "fragile_trials": fragile_trials,
        }
        per_party[letter] = entry
    report = {"trials": trials, "seed": seed, "per_party": per_party}
    if pooled:
        report["overall"] = {
            "min": float(np.min(pooled)),
            "max": float(np.max(pooled)),
            "mean": float(np.mean(pooled)),
        }
    return report
