"""Closest-product-state canonical form via alternating single-party maximization.

The overlap N = |<s|a_1 ... a_n>|^2 is maximized one party at a time; with the
other parties fixed, the exact maximizer is the normalized contraction of the
state against them.  The converged product vectors define per-party unitaries
that rotate each maximizer to |0>, after which the coefficient of |0...0> is
real nonnegative and every coefficient with a single party excited to level 1
vanishes at a true fixed point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, PureState, apply_kept_operator

DEFAULT_RESTARTS = 16
SWEEP_RESIDUAL_TOL = 1e-10
MAX_SWEEPS = 500
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-14
TIE_TOL = 1e-12
_MAX_RESEEDS = 8


def unitary_from_first_column(v) -> np.ndarray:
    """Complete a unit vector to a unitary with that vector as first column.

    Remaining columns come from Gram-Schmidt over the computational basis,
    skipping the basis vector with the largest overlap against ``v`` (first
    index wins ties), so the completion is deterministic and well conditioned.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = v.size
    cols = [v / np.linalg.norm(v)]
    skip = int(np.argmax(np.abs(v)))
    for j in range(d):
        if j == skip:
            continue
        w = np.zeros(d, dtype=complex)
        w[j] = 1.0
        for c in cols:
            w -= np.vdot(c, w) * c
        cols.append(w / np.linalg.norm(w))
    return np.stack(cols, axis=1)


def _contract(t: np.ndarray, vectors, skip: int) -> np.ndarray:
    """Contract conj(vectors[q]) onto every axis q != skip; returns a local vector."""
    out = t
    for q in sorted(range(t.ndim), reverse=True):
        if q == skip:
            continue
        out = np.tensordot(out, vectors[q].conj(), axes=([q], [0]))
    return out


def best_local_vector(s: PureState, party: int, others) -> tuple:
    """Exact single-party maximizer of the product overlap, with the rest fixed.

    ``others`` maps each remaining party to its fixed local vector.  Returns
    ``(vector, contraction_norm)``; a zero contraction is degenerate and yields
    the first basis vector with norm 0.0.
    """
    if party < 0 or party >= s.n_parties:
        raise DomainError(f"party {party} out of range")
    vectors = [None] * s.n_parties
    for q in range(s.n_parties):
        if q == party:
            continue
        try:
            vec = others[q]
        except (KeyError, IndexError, TypeError):
            raise DomainError(f"missing fixed vector for party {q}") from None
        vectors[q] = np.asarray(vec, dtype=complex).reshape(-1)
        if vectors[q].size != s.dims[q]:
            raise DomainError(f"fixed vector for party {q} has wrong dimension")
    v = _contract(s.tensor(), vectors, party)
    nv = float(np.linalg.norm(v))
    if nv < DEGENERACY_TOL:
        e0 = np.zeros(s.dims[party], dtype=complex)
        e0[0] = 1.0
        return PureState((s.dims[party],), e0), 0.0
    return PureState((s.dims[party],), v / nv), nv


def _random_product(dims, rng):
    vecs = []
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(z / np.linalg.norm(z))
    return vecs


def _alternate(t, dims, vectors, rng, max_sweeps=MAX_SWEEPS, tol=SWEEP_RESIDUAL_TOL):
    """Run alternating maximization from a product start; returns (vecs, N, history).

    Stops once a full sweep moves no contraction off its current axis by more
    than ``tol``.  That drift bounds the single-excitation coefficients of the
    final form, so stopping on it (rather than on the overlap increment, which
    saturates at float resolution long before the vectors settle) is what keeps
    ``zero_residual`` small.
    """
    n = len(dims)
    vectors = [np.asarray(v, dtype=complex).copy() for v in vectors]
    history = []
    overlap = 0.0
    reseeds = 0
    sweep = 0
    while sweep < max_sweeps:
        degenerate = False
        drift = 0.0
        for p in range(n):
            v = _contract(t, vectors, p)
            nv = np.linalg.norm(v)
            if nv < DEGENERACY_TOL:
                degenerate = True
                break
            # Component of the new contraction orthogonal to the vector the
            # sweep is about to replace; zero exactly at a fixed point.
            axial = (vectors[p].conj() @ v) * vectors[p]
            drift = max(drift, float(np.linalg.norm(v - axial)))
            vectors[p] = v / nv
            overlap = float(nv * nv)
        if degenerate:
            if reseeds >= _MAX_RESEEDS:
                break
            vectors = _random_product(dims, rng)
            reseeds += 1
            overlap = 0.0
            history.clear()
            sweep = 0
            continue
        history.append(overlap)
        sweep += 1
        if sweep > 1 and drift < tol:
            break
    return vectors, overlap, history


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalization.

    ``state`` equals the input with ``local_unitaries`` applied party by party;
    its |0...0> coefficient is real nonnegative and equals sqrt(overlap).
    ``zero_residual`` is the largest modulus over the n single-excitation
    coefficients; values >= 1e-8 mean the alternating search did not converge.
    """

    state: PureState
    local_unitaries: list
    overlap: float
    zero_residual: float
    converged: bool
    sweeps: int
    history: list = field(repr=False)


def canonicalize(s: PureState, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CanonicalForm:
    """Find the closest product state and rotate it onto |0...0>.

    Runs one start from the computational product |0...0> plus ``restarts``
    random product starts; keeps the largest overlap.  The earliest start wins
    ties up to float noise, so a state already in canonical form comes back
    with identity rotations instead of whatever a random restart landed on.
    """
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if abs(s.norm() ** 2 - 1.0) > 1e-8:
        raise DomainError("canonicalize expects a normalized state")
    t = s.tensor()
    dims = s.dims
    n = s.n_parties

    comp = []
    for d in dims:
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        comp.append(e0)

    best = None
    for r in range(restarts + 1):
        rng = np.random.default_rng([seed, r])
        start = comp if r == 0 else _random_product(dims, rng)
        vecs, overlap, history = _alternate(t, dims, start, rng)
        if best is None or overlap > best[0] + TIE_TOL:
            best = (overlap, vecs, history)
    overlap, vecs, history = best

    # Rotate the phase of the party-0 vector so the canonical |0...0| coefficient
    # comes out real nonnegative.
    amplitude = complex(_contract(t, vecs, 0) @ vecs[0].conj())
    if abs(amplitude) > 0:
        vecs[0] = vecs[0] * (amplitude / abs(amplitude))

    unitaries = [unitary_from_first_column(v).conj().T for v in vecs]
    out = t
    for p, u in enumerate(unitaries):
        out = apply_kept_operator(out, u, (p,))
    canon = PureState(dims, out.reshape(-1))

    residual = 0.0
    ct = canon.tensor()
    for p in range(n):
        idx = tuple(1 if q == p else 0 for q in range(n))
        residual = max(residual, abs(ct[idx]))

    return CanonicalForm(
        state=canon,
        local_unitaries=unitaries,
        overlap=overlap,
        zero_residual=float(residual),
        converged=bool(residual < RESIDUAL_TOL),
        sweeps=len(history),
        history=history,
    )
