"""Projective single-party measurements and entanglement robustness reports.

Measuring party p in an orthonormal basis contracts each basis bra onto that
party's axis; the squared norm of the contraction is the Born probability and
the renormalized remainder is the residual state on the other parties, with
their original order preserved.  A robustness report needs only the residuals'
single-party reductions, and reads them from the state's own pair reductions:
outcome b leaves party q with sigma_q(b) = (b^dagger x I) rho_pq (b x I), whose
trace is the Born probability.  Only a branch of small probability is contracted.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, PARTY_LETTERS, PureState, ShapeError, check_count,
                   check_normalized, pair_cuts, party_index, unitary_from_first_column)
from .entropy import eigenvalue_entropy, spectra, stacked_pair_entropies

PROB_FLOOR = 1e-14
ORTHO_TOL = 1e-10
FRAGILE_TOL = 1e-10
# A robustness report reads a branch of smaller Born probability from its own contracted
# vector rather than from the pair reductions (see ``robustness_report``).
SIGMA_PROB = 0.05
# A robustness pass holds every basis of its parties at once, so the trial count is bounded.
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


def _gaussian_bases(normals: np.ndarray, d: int) -> np.ndarray:
    """Haar-random bases ``(..., d, d)`` from normals ``(..., d(d + 1) - 2)``: the first d
    draws are the first vector's real parts and the next d its imaginary parts.  A
    Householder reflection completes it, its other columns rotated by a basis of
    dimension d - 1 built likewise from the remaining draws (Stewart, SIAM J. Numer.
    Anal. 17, 403 (1980)), so that every vector, not only the first, is Haar-uniform."""
    u = unitary_from_first_column(normals[..., :d] + 1j * normals[..., d:2 * d])
    if d > 2:
        rest = _gaussian_bases(normals[..., 2 * d:], d - 1)
        u[..., :, 1:] = u[..., :, 1:] @ rest.swapaxes(-1, -2)
    return u.swapaxes(-1, -2)


def random_basis(party: int, dim: int, rng) -> MeasurementBasis:
    """A Haar-random basis from one draw of dim(dim + 1) - 2 normals; dim is at least 2."""
    check_count("dim", dim, 2)
    return MeasurementBasis(party, _gaussian_bases(rng.standard_normal(dim * (dim + 1) - 2), dim))


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of a projective measurement; ``residual`` is None when the
    probability is below 1e-14 and the post-measurement state is undefined."""

    index: int
    probability: float
    residual: PureState


def _branches(s: PureState, parties: tuple, vectors: np.ndarray) -> tuple:
    """Measure each of ``parties`` in every basis of its stack at once: ``vectors``
    (G, B, d, d) holds the B bases of party ``parties[g]`` in row g, and every
    listed party has local dimension d.  ``measure``, ``equivariance_overlap`` and a
    robustness pass with a branch below ``SIGMA_PROB`` all contract through here.

    Returns the Born probabilities (G, B, d), the residual amplitudes (G, B, d, R)
    on the other parties in their original order, and the mask (G, B, d) of
    branches whose probability reaches ``PROB_FLOOR``; only those are
    renormalized, and only they have a residual state.
    """
    for party in parties:
        if party < 0 or party >= s.n_parties:
            raise DomainError(f"party {party} out of range")
    if s.n_parties < 2:
        raise DomainError("measurement needs at least two parties")
    g, b, d = vectors.shape[:3]
    for party in parties:
        if d != s.dims[party]:
            raise ShapeError(f"basis dimension {d} does not match party "
                             f"dimension {s.dims[party]}")
    check_normalized(s.amps)
    fronts = np.stack([np.moveaxis(s.tensor(), party, 0).reshape(d, -1) for party in parties])
    w = (vectors.conj().reshape(g, b * d, d) @ fronts).reshape(g, b, d, -1)
    probs = np.linalg.norm(w, axis=-1) ** 2
    defined = probs >= PROB_FLOOR
    w[defined] /= np.sqrt(probs[defined])[:, None]
    return probs, w, defined


def measure(s: PureState, basis: MeasurementBasis) -> list:
    """All outcomes of measuring one party, with Born probabilities summing to 1."""
    probs, w, defined = _branches(s, (basis.party,), basis.vectors[None, None])
    rest = tuple(d for q, d in enumerate(s.dims) if q != basis.party)
    return [MeasurementOutcome(k, prob, PureState(rest, amps) if ok else None)
            for k, (prob, amps, ok) in enumerate(zip(probs[0, 0].tolist(), w[0, 0], defined[0, 0]))]


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


def equivariance_overlap(s: PureState, party, u) -> float:
    """Smallest overlap modulus between rotated-basis residuals and the
    locally rotated computational residuals, both bases measured in one call.

    For a state invariant (up to phase) under u applied to every party, each
    outcome of the basis {u|k>} leaves a residual equal, up to phase, to u
    applied on every unmeasured party of the computational outcome's residual.
    Returns 1.0 exactly in that case, up to round-off.  The party is an index
    or a letter.
    """
    party = party_index(party, s.n_parties)
    basis = MeasurementBasis(party, np.asarray(u, dtype=complex).T)
    d = basis.dim
    _, w, defined = _branches(s, (party,), np.stack([basis.vectors, np.eye(d)])[None])
    w, defined = w[0], defined[0]
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


def _party_bases(parties: tuple, d: int, trials: int, seed: int) -> np.ndarray:
    """The bases a robustness report measures each of ``parties`` in, all of local
    dimension d, stacked (G, B, d, d): the computational basis, |+>/|-> for a
    qubit, then one random basis per trial.

    Trial t of party p reads row t of one ``default_rng([seed, p])`` draw of shape
    (trials, d(d + 1) - 2), which is bitwise the t-th of successive ``random_basis``
    calls on that generator; so trial t depends neither on ``trials`` nor on the
    other parties, and trial 0 is the basis ``quartet measure --basis random`` uses.
    """
    draws = (trials, d * (d + 1) - 2)
    normals = np.stack([np.random.default_rng([seed, p]).standard_normal(draws) for p in parties])
    named = np.array([np.eye(d)] + ([_PLUS_MINUS] if d == 2 else []), dtype=complex)
    bases = np.concatenate([np.broadcast_to(named, (len(parties),) + named.shape),
                            _gaussian_bases(normals, d)], axis=1)
    _check_orthonormal(bases)
    return bases


def robustness_report(s: PureState, trials: int, seed: int = 0) -> dict:
    """Residual pair entropies under single-party measurements of a four-party state.

    For every party this evaluates the computational basis, the |+>/|-> basis,
    and ``trials`` Haar-random bases drawn from one ``default_rng([seed, party])``
    stream, trial 0 first (see ``_party_bases``), every vector Haar-uniform whatever
    the party's dimension.  Random bases contribute min/max/mean statistics per
    remaining pair; each basis also carries a fragility flag (every residual
    entropy below 1e-10).

    Most branches build no residual state: outcome b of measuring party p leaves q with
    sigma_q(b) = (b^dagger x I) rho_pq (b x I), rho_pq the state's own reduction, whose
    trace is the Born probability, and the residual pair without q has the entropy of
    sigma_q.  Parties whose residuals have equal dims share a pass, with one basis
    completion (d - 1 reflections).  Per residual dim a pass makes one ``pair_cuts``
    call for the rho_pq of its parties, one batched matmul of the outer products
    conj(b) x b against them, and one ``spectra`` call, in closed form for a qubit.  A
    branch whose sigma has trace below ``SIGMA_PROB`` loses too many digits to
    cancellation; its pass reads it from ``_branches`` instead, all such branches of the
    pass in one ``stacked_pair_entropies`` call.  A pass holds no more bases than one
    party at ``MAX_TRIALS``, and ``trials`` must be an integer in 1..``MAX_TRIALS``.
    """
    if s.n_parties != 4:
        raise DomainError(f"robustness_report is defined for four parties, got {s.n_parties}")
    check_count("trials", trials, 1)
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    check_count("seed", seed)
    check_normalized(s.amps)
    groups = {}
    for p in range(4):
        groups.setdefault(s.dims[:p] + s.dims[p + 1:], []).append(p)
    # A pass holds at most the bases of one party at MAX_TRIALS, which bounds its memory.
    size = (MAX_TRIALS + 2) // (trials + 2)
    passes = [(rest, parties[i:i + size]) for rest, parties in groups.items()
              for i in range(0, len(parties), size)]
    entries, low, high, total, count = {}, np.inf, -np.inf, 0.0, 0
    for rest, parties in passes:
        g, d = len(parties), s.dims[parties[0]]
        bases = _party_bases(parties, d, trials, seed)
        n_bases = bases.shape[1]
        vecs = bases.reshape(g, -1, d)
        outer = (vecs.conj()[..., :, None] * vecs[..., None, :]).reshape(g, -1, d * d)
        others = [[q for q in range(4) if q != p] for p in parties]
        ents, probs = np.empty((g, n_bases * d, 3)), None
        # Residual position k (party q = others[k]) is the complement of pair 2 - k in
        # combinations order.  Each residual dim e is one group, smallest first, its
        # positions from the last down, so that equal dims give pair order.
        for e in sorted(set(rest)):
            ks = [k for k in (2, 1, 0) if rest[k] == e]
            _, rho = pair_cuts(s.amps, s.dims, tuple((p, qs[k]) for p, qs in zip(parties, others)
                                                     for k in ks))
            # rho_pq[(i, j), (i', j')] moves to row (i, i') and column (k, j, j'), so that
            # sigma_q(b) = (conj(b) x b) @ rho; rows of sigma are (basis, outcome).
            sig = (outer @ rho.reshape(g, len(ks), d, e, d, e).transpose(0, 2, 4, 1, 3, 5)
                   .reshape(g, d * d, -1)).reshape(g, -1, len(ks), e, e)
            traces = np.einsum("...ii->...", sig).real
            if probs is None:
                # The Born probability is the trace of the first sigma.  sigma carries a
                # round-off of about 1e-16 whatever its trace P, and normalizing its spectrum
                # magnifies that to 1e-16 / P, so a branch below SIGMA_PROB is read from its
                # contracted vector, whose round-off scales with P.
                probs = traces[..., 0]
                near = probs < SIGMA_PROB
            lam = spectra(sig) / np.where(near[..., None], 1.0, traces)[..., None]
            ents[..., [2 - k for k in ks]] = np.where(near[..., None], 0.0, eigenvalue_entropy(lam))
        if near.any():
            branch_probs, w, _ = _branches(s, parties, bases)
            probs[near] = branch_probs.reshape(g, -1)[near]
            read = near & (probs >= PROB_FLOOR)
            ents[read] = stacked_pair_entropies(w.reshape(g, n_bases * d, -1)[read], rest)
        defined = probs >= PROB_FLOOR
        # Undefined branches cannot decide fragility, because every basis of a
        # normalized state has a defined branch.
        fragile = np.all(ents.reshape(g, n_bases, -1) < FRAGILE_TOL, axis=-1).tolist()
        n_named = n_bases - trials
        # Each party's random trials give min/max/mean per pair over defined branches only.
        random, kept = ents[:, n_named * d:], defined[:, n_named * d:, None]
        lows = np.where(kept, random, np.inf).min(axis=1)
        highs = np.where(kept, random, -np.inf).max(axis=1)
        sums = np.where(kept, random, 0.0).sum(axis=1)
        counts = kept.sum(axis=1)
        # A mean of equal values can round one ulp outside them.
        stats = np.stack([lows, highs, np.clip(sums / counts, lows, highs)], axis=-1).tolist()
        low, high = min(low, lows.min()), max(high, highs.max())
        total, count = total + sums.sum(), count + 3 * int(counts.sum())
        named_probs, named_ents, named_defined = (
            a[:, :n_named * d].reshape((g, n_named, d) + a.shape[2:]).tolist()
            for a in (probs, ents, defined))
        for i, p in enumerate(parties):
            _, pairs = _residual_pairs(p, 4)
            entry = {}
            for name, b_probs, b_ents, b_defined, b_fragile in zip(
                    ("computational", "plusminus"), named_probs[i], named_ents[i],
                    named_defined[i], fragile[i]):
                outcomes = [
                    {"outcome": k, "probability": prob, "entropies": dict(zip(pairs, values))}
                    if ok else {"outcome": k, "probability": prob, "undefined": True}
                    for k, (prob, values, ok) in enumerate(zip(b_probs, b_ents, b_defined))]
                entry[name] = {"fragile": b_fragile, "outcomes": outcomes}
            entry["random"] = {
                "pairs": {pair: dict(zip(("min", "max", "mean"), row))
                          for pair, row in zip(pairs, stats[i])},
                "fragile_trials": [t for t in range(trials) if fragile[i][n_named + t]],
            }
            entries[p] = entry
    mean = min(max(total / count, low), high)
    return {"trials": trials, "seed": seed,
            "per_party": {PARTY_LETTERS[p]: entries[p] for p in range(4)},
            "overall": {"min": float(low), "max": float(high), "mean": float(mean)}}
