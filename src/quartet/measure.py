"""Projective single-party measurements and entanglement robustness reports.

Measuring party p in an orthonormal basis contracts each basis bra onto that
party's axis; the squared norm of the contraction is the Born probability and
the renormalized remainder is the residual state on the other parties, with
their original order preserved.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .canonical import unitary_from_first_column
from .core import (DomainError, PARTY_LETTERS, PureState, ShapeError, check_count,
                   check_normalized, party_index)
from .entropy import stacked_pair_entropies

PROB_FLOOR = 1e-14
ORTHO_TOL = 1e-10
FRAGILE_TOL = 1e-10
# Every basis of a party is measured at once, so the trial count is bounded.
MAX_TRIALS = 4096
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _check_orthonormal(vectors: np.ndarray) -> None:
    """Reject any basis in a stack ``(..., d, d)`` whose rows are not orthonormal."""
    gram = vectors @ vectors.conj().swapaxes(-1, -2)
    # Written so that a NaN entry fails the test too.
    if not np.max(np.abs(gram - np.eye(vectors.shape[-1]))) < ORTHO_TOL:
        raise DomainError("basis vectors are not orthonormal within tolerance")


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal single-party basis; ``vectors[k]`` is the k-th basis vector."""

    party: int
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise ShapeError(f"basis must be square, got shape {vectors.shape}")
        _check_orthonormal(vectors)
        # The range check needs a state; _branches makes it.
        check_count("party", self.party)
        vectors.setflags(write=False)
        object.__setattr__(self, "party", int(self.party))
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def computational_basis(party: int, dim: int = 2) -> MeasurementBasis:
    return MeasurementBasis(party, np.eye(dim, dtype=complex))


def plus_minus_basis(party: int) -> MeasurementBasis:
    return MeasurementBasis(party, _PLUS_MINUS)


def _gaussian_bases(normals: np.ndarray) -> np.ndarray:
    """Bases ``(..., d, d)`` from normals ``(..., 2d)``: the first vector has the first d
    draws as real and the last d as imaginary parts, completed deterministically."""
    d = normals.shape[-1] // 2
    return unitary_from_first_column(normals[..., :d] + 1j * normals[..., d:]).swapaxes(-1, -2)


def random_basis(party: int, dim: int, rng) -> MeasurementBasis:
    """First vector Haar-uniform on the local sphere, completed deterministically."""
    return MeasurementBasis(party, _gaussian_bases(rng.standard_normal(2 * dim)))


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of a projective measurement; ``residual`` is None when the
    probability is below 1e-14 and the post-measurement state is undefined."""

    index: int
    probability: float
    residual: PureState


def _branches(s: PureState, party: int, vectors: np.ndarray) -> tuple:
    """Measure ``party`` in every basis of the stack ``vectors`` (B, d, d) at once.

    Returns the Born probabilities (B, d), the residual amplitudes (B, d, R) and
    the mask (B, d) of branches whose probability reaches ``PROB_FLOOR``; only
    those are renormalized, and only they have a residual state.
    """
    if party < 0 or party >= s.n_parties:
        raise DomainError(f"party {party} out of range")
    if s.n_parties < 2:
        raise DomainError("measurement needs at least two parties")
    if vectors.shape[-1] != s.dims[party]:
        raise ShapeError(f"basis dimension {vectors.shape[-1]} does not match party "
                         f"dimension {s.dims[party]}")
    check_normalized(s.amps)
    w = np.tensordot(vectors.conj(), s.tensor(), axes=([2], [party]))
    w = w.reshape(vectors.shape[:2] + (-1,))
    probs = np.linalg.norm(w, axis=-1) ** 2
    defined = probs >= PROB_FLOOR
    w[defined] /= np.sqrt(probs[defined])[:, None]
    return probs, w, defined


def measure(s: PureState, basis: MeasurementBasis) -> list:
    """All outcomes of measuring one party, with Born probabilities summing to 1."""
    probs, w, defined = _branches(s, basis.party, basis.vectors[None])
    rest = tuple(d for q, d in enumerate(s.dims) if q != basis.party)
    return [MeasurementOutcome(k, prob, PureState(rest, amps) if ok else None)
            for k, (prob, amps, ok) in enumerate(zip(probs[0].tolist(), w[0], defined[0]))]


def _residual_pairs(party: int, n_parties: int) -> tuple:
    """Letters of the parties left after measuring ``party``, and their pairs in
    ``itertools.combinations`` order: the keys of a residual's pair entropies."""
    remaining = [PARTY_LETTERS[q] for q in range(n_parties) if q != party]
    return remaining, [a + b for a, b in itertools.combinations(remaining, 2)]


def residual_pair_entropies(residual: PureState, measured_party, n_parties: int) -> dict:
    """Pair entropies of a residual keyed by the original letters; {} below three parties."""
    measured_party = party_index(measured_party, n_parties)
    remaining, pairs = _residual_pairs(measured_party, n_parties)
    if len(remaining) != residual.n_parties:
        raise DomainError(f"residual has {residual.n_parties} parties, expected {len(remaining)}")
    if residual.n_parties < 3:
        return {}
    return dict(zip(pairs, stacked_pair_entropies(residual.amps, residual.dims).tolist()))


def equivariance_overlap(s: PureState, party: int, u) -> float:
    """Smallest overlap modulus between rotated-basis residuals and the
    locally rotated computational residuals, both bases measured in one call.

    For a state invariant (up to phase) under u applied to every party, each
    outcome of the basis {u|k>} leaves a residual equal, up to phase, to u
    applied on every unmeasured party of the computational outcome's residual.
    Returns 1.0 exactly in that case, up to round-off.
    """
    basis = MeasurementBasis(party, np.asarray(u, dtype=complex).T)
    d = basis.dim
    _, w, defined = _branches(s, party, np.stack([basis.vectors, np.eye(d)]))
    rest = [e for q, e in enumerate(s.dims) if q != party]
    if any(e != d for e in rest):
        raise ShapeError(f"a {d}x{d} unitary does not fit the unmeasured dims {rest}")
    # u acts on the leading unmeasured axis, which then cycles to the back.
    carried = w[1]
    for _ in rest:
        carried = (basis.vectors.T @ carried.reshape(d, d, -1)).swapaxes(1, 2).reshape(d, -1)
    both = defined[0] & defined[1]
    if not np.any(both):
        raise DomainError("no outcome has probability above the floor")
    return float(np.min(np.abs(np.sum(w[0].conj() * carried, axis=-1))[both]))


def _party_bases(party: int, d: int, trials: int, seed: int) -> np.ndarray:
    """The bases a robustness report measures ``party`` in, stacked (B, d, d): the
    computational basis, |+>/|-> for a qubit, then one random basis per trial.

    Trial t reads row t of one ``default_rng([seed, party])`` draw of shape
    (trials, 2d), which is bitwise the t-th of successive ``random_basis`` calls
    on that generator; so trial t does not depend on ``trials``, and trial 0 is
    the basis ``quartet measure --basis random`` uses.
    """
    normals = np.random.default_rng([seed, party]).standard_normal((trials, 2 * d))
    named = [np.eye(d, dtype=complex)] + ([_PLUS_MINUS] if d == 2 else [])
    bases = np.concatenate([named, _gaussian_bases(normals)])
    _check_orthonormal(bases)
    return bases


def _stats(values) -> dict:
    return {"min": float(np.min(values)), "max": float(np.max(values)),
            "mean": float(np.mean(values))}


def robustness_report(s: PureState, trials: int, seed: int = 0) -> dict:
    """Residual pair entropies under single-party measurements of a four-party state.

    For every party this evaluates the computational basis, the |+>/|-> basis,
    and ``trials`` Haar-random bases drawn from one ``default_rng([seed, party])``
    stream, trial 0 first (see ``_party_bases``).  Random bases contribute
    min/max/mean statistics per remaining pair; each basis also carries a
    fragility flag (every residual entropy below 1e-10).  All bases of a party
    are measured in one contraction, and every residual of the party is read
    with one batched ``stacked_pair_entropies`` call, so ``trials`` must be an
    integer in 1..``MAX_TRIALS``.
    """
    if s.n_parties != 4:
        raise DomainError(f"robustness_report is defined for four parties, got {s.n_parties}")
    check_count("trials", trials, 1)
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    check_count("seed", seed)
    per_party, pooled = {}, []
    for p in range(4):
        _, pairs = _residual_pairs(p, 4)
        rest = tuple(d for q, d in enumerate(s.dims) if q != p)
        probs, w, defined = _branches(s, p, _party_bases(p, s.dims[p], trials, seed))
        ents = np.zeros(defined.shape + (len(pairs),))
        ents[defined] = stacked_pair_entropies(w[defined], rest)
        # Undefined branches keep zero entropies; they cannot decide fragility,
        # because every basis of a normalized state has a defined branch.
        fragile = np.all(ents < FRAGILE_TOL, axis=(1, 2)).tolist()
        n_named = len(fragile) - trials
        entry = {}
        for name, b_probs, b_ents, b_defined, b_fragile in zip(
                ("computational", "plusminus"), probs[:n_named].tolist(),
                ents[:n_named].tolist(), defined[:n_named].tolist(), fragile):
            outcomes = [{"outcome": k, "probability": prob, "entropies": dict(zip(pairs, values))}
                        if ok else {"outcome": k, "probability": prob, "undefined": True}
                        for k, (prob, values, ok) in enumerate(zip(b_probs, b_ents, b_defined))]
            entry[name] = {"fragile": b_fragile, "outcomes": outcomes}
        random = ents[n_named:][defined[n_named:]]
        pooled.append(random.reshape(-1))
        entry["random"] = {
            "pairs": {pair: _stats(random[:, i]) for i, pair in enumerate(pairs)},
            "fragile_trials": [t for t in range(trials) if fragile[n_named + t]],
        }
        per_party[PARTY_LETTERS[p]] = entry
    return {"trials": trials, "seed": seed, "per_party": per_party,
            "overall": _stats(np.concatenate(pooled))}
