"""Closest-product-state canonical form via alternating single-party maximization.

The overlap N = |<s|a_1 ... a_n>|^2 is maximized one party at a time; with the
other parties fixed, the exact maximizer is the normalized contraction of the
state against them.  The converged product vectors define per-party unitaries
that rotate each maximizer to |0>, after which the coefficient of |0...0> is
real nonnegative and every coefficient with a single party excited to level 1
vanishes at a true fixed point.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, PureState, apply_kept_operator, check_count, check_normalized

DEFAULT_RESTARTS = 16
SWEEP_RESIDUAL_TOL = 1e-10
MAX_SWEEPS = 500
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-14
TIE_TOL = 1e-12
_MAX_RESEEDS = 8
# Every start's vectors are held at once, so the start count is bounded.
MAX_RESTARTS = 4096


def unitary_from_first_column(v) -> np.ndarray:
    """Complete a unit vector to a unitary with that vector as first column.

    Remaining columns come from Gram-Schmidt over the computational basis,
    skipping the basis vector with the largest overlap against ``v`` (first
    index wins ties), so the completion is deterministic and well conditioned.
    A stack ``(..., d)`` of vectors gives the stack ``(..., d, d)`` of unitaries.
    """
    v = np.asarray(v, dtype=complex)
    d = v.shape[-1]
    cols = [v / np.linalg.norm(v, axis=-1, keepdims=True)]
    skip = np.argmax(np.abs(v), axis=-1)
    # Basis indices in ascending order, each row's skipped index moved last.
    order = np.argsort(np.arange(d) == skip[..., None], axis=-1, kind="stable")
    eye = np.eye(d, dtype=complex)
    for j in range(d - 1):
        w = eye[order[..., j]]
        for c in cols:
            w = w - np.sum(c.conj() * w, axis=-1, keepdims=True) * c
        cols.append(w / np.linalg.norm(w, axis=-1, keepdims=True))
    return np.stack(cols, axis=-1)


def _contract_rows(front: np.ndarray, vectors, party: int) -> np.ndarray:
    """Contract conj(vectors[q]) onto every axis q != party; returns ``(R, d_party)``.

    ``front`` is the state tensor with ``party``'s axis moved to the front, and
    ``vectors[q]`` stacks R local vectors as ``(R, d_q)``.  One stacked matmul per
    axis, so a call costs about the same for R rows as for one.
    """
    out = front[None]
    for q in reversed(range(len(vectors))):
        if q != party:
            vec = vectors[q]
            out = out.reshape(len(out), -1, vec.shape[1]) @ vec.conj()[:, :, None]
    return out.reshape(len(out), front.shape[0])


def _random_product(dims, rng):
    vecs = []
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(z / np.linalg.norm(z))
    return vecs


@dataclass(frozen=True)
class RestartRecord:
    """What one start of the alternating search did.

    ``stop_reason`` is ``settled`` (a sweep after the first moved no contraction
    off its axis by more than ``SWEEP_RESIDUAL_TOL``), ``max_sweeps`` (stopped
    at ``MAX_SWEEPS`` without settling) or ``reseeds_exhausted`` (a degenerate
    contraction after ``_MAX_RESEEDS`` reseeds).  ``sweeps`` counts the sweeps
    since the last reseed.
    """

    restart: int
    sweeps: int
    reseeds: int
    overlap: float
    stop_reason: str


def _alternate(t: np.ndarray, starts, rngs):
    """Run alternating maximization from R product starts in lockstep.

    ``starts[q]`` stacks party q's start vectors as ``(R, d_q)``; row r reseeds
    from ``rngs[r]`` after a degenerate contraction.  A row stops once a sweep
    after the first moves no contraction off its current axis by more than
    ``SWEEP_RESIDUAL_TOL``.  That drift bounds the single-excitation
    coefficients of the final form, so stopping on it (rather than on the
    overlap increment, which saturates at float resolution long before the
    vectors settle) is what keeps ``zero_residual`` small.  Stopped rows are
    frozen while the others go on.
    Returns ``(vectors, histories, records)``.
    """
    n = t.ndim
    rows = len(rngs)
    fronts = [np.ascontiguousarray(np.moveaxis(t, p, 0)) for p in range(n)]
    vectors = list(starts)
    overlap = np.zeros(rows)
    histories = [[] for _ in range(rows)]
    reseeds = [0] * rows
    reasons = [None] * rows
    active = np.ones(rows, dtype=bool)
    while active.any():
        live = active.copy()
        drift = np.zeros(rows)
        for p in range(n):
            v = _contract_rows(fronts[p], vectors, p)
            nv = np.linalg.norm(v, axis=1)
            live &= nv >= DEGENERACY_TOL
            # Component of the new contraction orthogonal to the vector the
            # sweep is about to replace; zero exactly at a fixed point.
            axial = (vectors[p].conj() * v).sum(axis=1)[:, None] * vectors[p]
            drift = np.maximum(drift, np.linalg.norm(v - axial, axis=1))
            vectors[p] = np.where(live[:, None], v / np.maximum(nv, DEGENERACY_TOL)[:, None],
                                  vectors[p])
            overlap = np.where(live, nv * nv, overlap)
        values = overlap.tolist()
        for r in np.flatnonzero(active).tolist():
            if not live[r]:
                if reseeds[r] >= _MAX_RESEEDS:
                    reasons[r] = "reseeds_exhausted"
                    active[r] = False
                    continue
                for q, vec in enumerate(_random_product(t.shape, rngs[r])):
                    vectors[q][r] = vec
                reseeds[r] += 1
                overlap[r] = 0.0
                histories[r].clear()
                continue
            histories[r].append(values[r])
            sweeps = len(histories[r])
            if sweeps > 1 and drift[r] < SWEEP_RESIDUAL_TOL:
                reasons[r] = "settled"
            elif sweeps >= MAX_SWEEPS:
                reasons[r] = "max_sweeps"
            active[r] = reasons[r] is None
    records = [
        RestartRecord(r, len(histories[r]), reseeds[r], float(overlap[r]), reasons[r])
        for r in range(rows)
    ]
    return vectors, histories, records


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalization.

    ``state`` equals the input with ``local_unitaries`` applied party by party;
    its |0...0> coefficient is real nonnegative and equals sqrt(overlap).
    ``zero_residual`` is the largest modulus over the n single-excitation
    coefficients; values >= 1e-8 mean the alternating search did not converge.
    ``restarts`` holds one ``RestartRecord`` per start, the computational one first.
    """

    state: PureState
    local_unitaries: list
    overlap: float
    zero_residual: float
    converged: bool
    sweeps: int
    history: list = field(repr=False)
    restarts: list = field(repr=False)


def canonicalize(s: PureState, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CanonicalForm:
    """Find the closest product state and rotate it onto |0...0>.

    Runs one start from the computational product |0...0> plus ``restarts``
    random product starts, all in lockstep, and keeps the largest overlap.  The
    earliest start wins ties up to float noise, so a state already in canonical
    form comes back with identity rotations instead of whatever a random
    restart landed on.  ``restarts`` must be an integer in 1..``MAX_RESTARTS``,
    since every start's vectors are held at once, and ``seed`` a non-negative
    integer.
    """
    check_count("restarts", restarts, 1)
    if restarts > MAX_RESTARTS:
        raise DomainError(f"restarts must be at most {MAX_RESTARTS}, got {restarts}")
    check_count("seed", seed)
    check_normalized(s.amps)
    t = s.tensor()
    dims = s.dims
    n = s.n_parties

    rngs = [np.random.default_rng([seed, r]) for r in range(restarts + 1)]
    products = [[np.eye(d, dtype=complex)[0] for d in dims]]
    products += [_random_product(dims, rng) for rng in rngs[1:]]
    starts = [np.array(column) for column in zip(*products)]
    vectors, histories, records = _alternate(t, starts, rngs)

    best = 0
    for r in range(1, restarts + 1):
        if records[r].overlap > records[best].overlap + TIE_TOL:
            best = r
    overlap, history = records[best].overlap, histories[best]
    vecs = [v[best] for v in vectors]

    # Rotate the phase of the party-0 vector so the canonical |0...0| coefficient
    # comes out real nonnegative.
    amplitude = complex(_contract_rows(t, [v[None] for v in vecs], 0)[0] @ vecs[0].conj())
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
        restarts=records,
    )
