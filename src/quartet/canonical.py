"""Closest-product-state canonical form: alternating sweeps find each start's basin,
and ``ascent.ascend`` converges the start that wins.

The overlap N = |<s|a_1 ... a_n>|^2 is maximized one party at a time; with the
other parties fixed, the exact maximizer is the normalized contraction of the
state against them, so a party step never lowers the overlap (the higher-order
power method of De Lathauwer, De Moor and Vandewalle, 2000).  It converges only
linearly, slowest near states whose best product states form a continuum
(|M4>, Bell pairs, W), so ``ascend``, which converges superlinearly, finishes
the winning start.  Its product vectors define per-party unitaries that rotate
each maximizer to |0>, after which every coefficient with a single party
excited to level 1 vanishes at a true fixed point.

Every state gets the same starts: |0...0>, then the rows of one random draw keyed
``[seed, *STARTS_KEY]``.  By SeedSequence zero padding, ``[seed]`` and ``[seed, 0]``
key ``default_rng(seed)``, and a state drawn from it would be correlated with such
starts.  Only a start's first contraction can vanish (|0...0> for |M4>, |1...1> or
the flipped W); every normalization floors the norm at ``DEGENERACY_TOL``, so such
a start is the zero vector, settles at sweep 2 with overlap 0 and loses.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ascent import ascend
from .core import (DomainError, PureState, apply_kept_operator, check_count, check_normalized,
                   unitary_from_first_column)

DEFAULT_RESTARTS = 16
SWEEP_RESIDUAL_TOL = 1e-4
MAX_SWEEPS = 500
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-14
TIE_TOL = 1e-12
# Every start's vectors are held at once, so the start count is bounded.
MAX_RESTARTS = 4096
STARTS_KEY = (0, 1)  # the random starts' stream key after the seed


def _outer(a, b):
    """Row-wise outer product of stacks ``(R, m)`` and ``(R, k)`` as ``(R, m*k)``.

    ``None`` stands for the empty product, so the other stack comes back as is.
    """
    if a is None:
        return b
    if b is None:
        return a
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _layout(t: np.ndarray):
    """Each party's offset and slice in a row of party vectors, and ``t`` as ``(D/d_p, d_p)``."""
    offsets = np.cumsum((0,) + t.shape[:-1])
    parts = [slice(a, a + d) for a, d in zip(offsets.tolist(), t.shape)]
    fronts = [np.moveaxis(t, p, -1).reshape(-1, d) for p, d in enumerate(t.shape)]
    return offsets, parts, fronts


def _afters(conj: np.ndarray, parts):
    """``after[p]``: the row-wise product of the parties after p in ``conj`` (ones if none)."""
    n = len(parts)
    after = [None] * (n - 1) + [None if n > 1 else np.ones((len(conj), 1))]
    for p in range(n - 1, 0, -1):
        after[p - 1] = _outer(conj[:, parts[p]], after[p])
    return after


def _starts(dims, restarts, seed):
    """The ``(restarts + 1, sum(d))`` block of starts: |0...0>, then the rows of one
    ``standard_normal((restarts, 2, sum(d)))`` draw, real parts then imaginary parts,
    normalized party by party.
    """
    offsets = np.cumsum((0,) + dims[:-1])
    x = np.random.default_rng([seed, *STARTS_KEY]).standard_normal((restarts, 2, sum(dims)))
    norms = np.sqrt(np.add.reduceat((x * x).sum(axis=1), offsets, axis=1))
    block = np.zeros((restarts + 1, sum(dims)), dtype=complex)
    block[0, offsets] = 1.0
    block[1:] = (x[:, 0] + 1j * x[:, 1]) / np.repeat(norms, dims, axis=1)
    return block


@dataclass(frozen=True)
class RestartRecord:
    """What one start of the alternating search did, before any polish.

    ``stop_reason`` is ``settled`` (a sweep after the first moved no contraction
    off its axis by more than ``SWEEP_RESIDUAL_TOL``: the start found its basin)
    or ``max_sweeps``.  A start whose first contraction vanishes reads
    ``settled`` at sweep 2 with overlap 0.0.
    """

    restart: int
    sweeps: int
    overlap: float
    stop_reason: str


def _alternate(t: np.ndarray, vectors: np.ndarray):
    """Run alternating maximization from R product starts in lockstep.

    ``vectors`` holds every start's party vectors side by side as one ``(R, sum(d))``
    block, party q's entries starting at offset sum(d_p for p < q), and is swept
    in place.  Every row starts at sweep 1, and stops on its basin, once a sweep
    after the first moves no contraction off its current axis by more than
    ``SWEEP_RESIDUAL_TOL``, or at ``MAX_SWEEPS``.  A row whose first contraction
    vanishes stays zero, with drift 0.

    A party step is one matmul of the row-wise outer product of the other
    parties' conjugated vectors against the state held as a ``(D/d_p, d_p)``
    matrix; it writes the normalized contraction into its party's slice of the
    block and the raw one into a block of the same shape.  A copy of the block
    taken at the start of the sweep gives the parties after p and the drift.
    Every row sweeps until the last one stops; a row's vectors and record are
    taken in the sweep where it stops.  Returns ``(final, trace, records)``: the
    ``(R, sum(d))`` block of final vectors and the ``(sweeps, R)`` per-sweep overlaps.
    """
    n = t.ndim
    rows = len(vectors)
    offsets, parts, fronts = _layout(t)
    contracted = np.empty_like(vectors)
    final = np.empty_like(vectors)
    records = [None] * rows
    active = np.ones(rows, dtype=bool)
    trace = []
    sweep = 0
    while active.any():
        replaced = vectors.copy()
        replaced_conj = replaced.conj()
        after = _afters(replaced_conj, parts)  # the last sweep's vectors
        before = None  # the same for this sweep's vectors of the parties before p
        for p, part in enumerate(parts):
            v = _outer(before, after[p]) @ fronts[p]
            x = v.view(float)
            overlap = (x * x).sum(axis=1)  # after the last party, the sweep's overlap
            contracted[:, part] = v
            vectors[:, part] = v / np.maximum(np.sqrt(overlap), DEGENERACY_TOL)[:, None]
            if p < n - 1:
                before = _outer(before, vectors[:, part].conj())
        # Component of each party's contraction orthogonal to the vector the
        # sweep replaced; zero exactly at a fixed point.
        axial = np.add.reduceat(replaced_conj * contracted, offsets, axis=1)
        x = (contracted - np.repeat(axial, t.shape, axis=1) * replaced).view(float)
        drift2 = np.add.reduceat(x * x, 2 * offsets, axis=1).max(axis=1)
        sweep += 1
        trace.append(overlap)
        settled = (sweep > 1) & (np.sqrt(drift2) < SWEEP_RESIDUAL_TOL)
        for r in np.flatnonzero(active & (settled | (sweep >= MAX_SWEEPS))).tolist():
            reason = "settled" if settled[r] else "max_sweeps"
            records[r] = RestartRecord(r, sweep, float(overlap[r]), reason)
            final[r] = vectors[r]
            active[r] = False
    return final, np.array(trace), records


def _overlap_objective(t: np.ndarray):
    """N(x) = |<a|s>|^2 / prod_p |a_p|^2 over the party vectors a_p of ``x``, side by
    side, and its gradient for ``ascend``.  With c = <a|s> and v_p the contraction of
    s with every other party's conjugated vector, party p's block of the gradient is
    (2 conj(c) v_p - 2 |c|^2 a_p / |a_p|^2) / prod_q |a_q|^2.  N does not change when
    one block is scaled, so ``ascend``'s single unit sphere serves.
    """
    offsets, parts, fronts = _layout(t)

    def value_grad(x):
        conj = x.conj()[None]
        after = _afters(conj, parts)
        v = np.empty_like(x)
        before = None
        for p, part in enumerate(parts):
            v[part] = (_outer(before, after[p]) @ fronts[p])[0]
            before = _outer(before, conj[:, part])
        c = np.vdot(x[parts[-1]], v[parts[-1]])
        norms2 = np.add.reduceat(abs(x) ** 2, offsets)
        scale = 1.0 / norms2.prod()
        c2 = abs(c) ** 2
        return c2 * scale, 2.0 * scale * (c.conjugate() * v - c2 * x / np.repeat(norms2, t.shape))

    return value_grad


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalization.

    ``state`` equals the input with ``local_unitaries`` applied party by party;
    its |0...0> coefficient is real nonnegative and equals sqrt(overlap).
    ``zero_residual`` is the largest modulus over the n single-excitation
    coefficients; values >= 1e-8 mean the search did not converge.  ``history``
    holds the chosen start's per-sweep overlaps.  ``restarts`` holds one
    ``RestartRecord`` per start, the computational one first, and ``polish`` the
    ``ascent.RestartRecord`` of the ``ascend`` run that converged the chosen start.
    """

    state: PureState
    local_unitaries: list
    overlap: float
    zero_residual: float
    converged: bool
    sweeps: int
    history: list = field(repr=False)
    restarts: list = field(repr=False)
    polish: object = field(repr=False)


def canonicalize(s: PureState, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CanonicalForm:
    """Find the closest product state and rotate it onto |0...0>.

    Sweeps |0...0> plus ``restarts`` random product starts (the same for every
    state; start r >= 1 depends on (seed, r) alone) in lockstep until each has found
    its basin, and converges the start with the largest overlap with ``ascend`` to a
    gradient norm of ``RESIDUAL_TOL / 10``.  The earliest start wins ties up to
    float noise, so a state already in canonical form comes back with identity
    rotations instead of whatever a random restart landed on.  ``restarts`` must be
    an integer in 1..``MAX_RESTARTS``, since every start's vectors are held at
    once, and ``seed`` a non-negative integer.
    """
    check_count("restarts", restarts, 1)
    if restarts > MAX_RESTARTS:
        raise DomainError(f"restarts must be at most {MAX_RESTARTS}, got {restarts}")
    check_count("seed", seed)
    check_normalized(s.amps)
    t = s.tensor()
    dims = s.dims

    final, trace, records = _alternate(t, _starts(dims, restarts, seed))

    best = 0
    for r in range(1, restarts + 1):
        if records[r].overlap > records[best].overlap + TIE_TOL:
            best = r
    x, polish = ascend(_overlap_objective(t), final[best], grad_tol=RESIDUAL_TOL / 10)
    vectors = [v / np.linalg.norm(v) for v in np.split(x, np.cumsum(dims[:-1]))]
    c = t  # contracted party by party down to <a|s>
    for v in vectors:
        c = v.conj() @ c.reshape(len(v), -1)
    vectors[-1] *= c[0] / abs(c[0])  # makes <a|s> real nonnegative
    unitaries = [unitary_from_first_column(v).conj().T for v in vectors]
    out = t
    for p, u in enumerate(unitaries):
        out = apply_kept_operator(out, u, (p,))
    canon = PureState(dims, out.reshape(-1))
    # Party p's single excitation is at flat index prod(dims[p + 1:]); abs per
    # value, since np.abs over the array may differ in the last bit.
    residual = max(map(abs, canon.amps[[math.prod(dims[p + 1:]) for p in range(len(dims))]]))
    sweeps = records[best].sweeps
    return CanonicalForm(canon, unitaries, float(abs(c[0]) ** 2), float(residual),
                         bool(residual < RESIDUAL_TOL), sweeps, trace[:sweeps, best].tolist(),
                         records, polish)
