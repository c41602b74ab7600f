"""Closest-product-state canonical form via alternating single-party maximization.

The overlap N = |<s|a_1 ... a_n>|^2 is maximized one party at a time; with the
other parties fixed, the exact maximizer is the normalized contraction of the
state against them, so a party step never lowers the overlap (the higher-order
power method of De Lathauwer, De Moor and Vandewalle, 2000).  That method
converges linearly: each sweep's drift, the largest move of a contraction off
its party's vector, shrinks by a nearly constant ratio r.  So from sweep
``EXTRAPOLATE_FROM`` on, a start whose ratio is stable (inside
``EXTRAPOLATE_RATIOS`` and within ``EXTRAPOLATE_STABILITY`` of the last
sweep's) tries the geometric (Aitken) step v + r / (1 - r) (v - v_prev) on
every party vector, normalized, and keeps it unless it lowers the overlap by
more than ``EXTRAPOLATE_TIE`` of itself; the step only shortens the search,
and the drift stopping rule is that of the plain sweep.  The converged product
vectors define per-party unitaries that rotate each maximizer to |0>, after
which every coefficient with a single party excited to level 1 vanishes at a
true fixed point.  A start stops only at the end of a plain sweep, which ends
on the last party's normalized contraction v / |v|, so the |0...0>
coefficient <v / |v|, v> = |v| is real nonnegative as it stands.

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

from .core import (DomainError, PureState, apply_kept_operator, check_count, check_normalized,
                   unitary_from_first_column)

DEFAULT_RESTARTS = 16
SWEEP_RESIDUAL_TOL = 1e-10
MAX_SWEEPS = 500
# The extrapolation step: the first sweep that may take it, the open range of
# drift ratios it trusts, the relative change of the ratio between two sweeps
# below which it counts as stable, and the relative overlap fall it may cause.
# Near a fixed point the overlap is flat at float resolution, so "strictly
# above" would be decided by rounding; the tie stays far below criterion 6's
# overlap backstep of 1e-14.
EXTRAPOLATE_FROM = 20
EXTRAPOLATE_RATIOS = (0.3, 0.999)
EXTRAPOLATE_STABILITY = 0.2
EXTRAPOLATE_TIE = 4e-15
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
    """What one start of the alternating search did.

    ``stop_reason`` is ``settled`` (a sweep after the first moved no contraction
    off its axis by more than ``SWEEP_RESIDUAL_TOL``) or ``max_sweeps`` (stopped
    at ``MAX_SWEEPS`` without settling).  ``extrapolations`` counts the
    geometric steps the start kept.  A start whose first contraction vanishes
    reads ``settled`` at sweep 2 with overlap 0.0 and no steps.
    """

    restart: int
    sweeps: int
    extrapolations: int
    overlap: float
    stop_reason: str


def _alternate(t: np.ndarray, vectors: np.ndarray):
    """Run alternating maximization from R product starts in lockstep.

    ``vectors`` holds every start's party vectors side by side as one ``(R, sum(d))``
    block, party q's entries starting at offset sum(d_p for p < q), and is swept
    in place.  Every row starts at sweep 1, and stops once a sweep after the
    first moves no contraction off its current axis by more than
    ``SWEEP_RESIDUAL_TOL`` or at ``MAX_SWEEPS``.  That drift bounds the
    single-excitation coefficients of the final form, so stopping on it (rather
    than on the overlap increment, which saturates at float resolution long
    before the vectors settle) is what keeps ``zero_residual`` small.  A row
    whose first contraction vanishes stays zero, with drift 0.

    A party step is one matmul of the row-wise outer product of the other
    parties' conjugated vectors against the state held as a ``(D/d_p, d_p)``
    matrix; it writes the normalized contraction into its party's slice of the
    block and the raw one into a block of the same shape.  A copy of the block
    taken at the start of the sweep, and its conjugate, give the parties after
    p, the drift of every party (taken once per sweep) and the extrapolation
    step of the module docstring, which a row that has not stopped tries with
    r = sqrt(drift2_k / drift2_{k-1}); the moved overlap is one last-party
    contraction, the matmul shape of a party step.  Every row sweeps until the
    last one stops; a row's vectors and record are taken in the sweep where it
    stops.
    Returns ``(final, trace, records)``: the ``(R, sum(d))`` block of final
    vectors and the ``(sweeps, R)`` per-sweep overlaps.
    """
    n = t.ndim
    rows = len(vectors)
    offsets = np.cumsum((0,) + t.shape[:-1])
    parts = [slice(a, a + d) for a, d in zip(offsets.tolist(), t.shape)]
    fronts = [np.moveaxis(t, p, -1).reshape(-1, d) for p, d in enumerate(t.shape)]
    contracted = np.empty_like(vectors)
    final = np.empty_like(vectors)
    records = [None] * rows
    active = np.ones(rows, dtype=bool)
    trace = []
    low, high = EXTRAPOLATE_RATIOS
    last_drift2 = last_ratio = np.zeros(rows)
    extrapolations = np.zeros(rows, dtype=int)
    sweep = 0
    while active.any():
        replaced = vectors.copy()
        replaced_conj = replaced.conj()
        # after[p] multiplies out the last sweep's conjugated vectors of the
        # parties after p; a one-party state contracts against a column of ones.
        after = [None] * (n - 1) + [None if n > 1 else np.ones((rows, 1))]
        for p in range(n - 1, 0, -1):
            after[p - 1] = _outer(replaced_conj[:, parts[p]], after[p])
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
            records[r] = RestartRecord(r, sweep, int(extrapolations[r]), float(overlap[r]), reason)
            final[r] = vectors[r]
            active[r] = False
        # The ratio of the first sweep that may extrapolate needs its own
        # predecessor, so ratios start one sweep earlier; last_ratio is 0 until
        # then, which no ratio is stable against.  The floor only touches rows
        # that have stopped, whose drift may reach 0.
        if sweep < EXTRAPOLATE_FROM - 1:
            last_drift2 = drift2
            continue
        ratio = np.sqrt(drift2 / np.maximum(last_drift2, SWEEP_RESIDUAL_TOL**2))
        stable = (active & (low < ratio) & (ratio < high)
                  & (np.abs(ratio - last_ratio) < EXTRAPOLATE_STABILITY * last_ratio))
        last_drift2, last_ratio = drift2, ratio
        if not stable.any():
            continue
        trusted = np.where(stable, ratio, 0.0)  # rows that do not try the step stay put
        moved = vectors + (trusted / (1.0 - trusted))[:, None] * (vectors - replaced)
        x = moved.view(float)
        norms = np.sqrt(np.add.reduceat(x * x, 2 * offsets, axis=1))
        moved /= np.repeat(np.maximum(norms, DEGENERACY_TOL), t.shape, axis=1)
        moved_conj = moved.conj()
        before = None
        for part in parts[:-1]:
            before = _outer(before, moved_conj[:, part])
        c = ((before @ fronts[-1]) * moved_conj[:, parts[-1]]).sum(axis=1)
        x = c.view(float).reshape(rows, 2)
        better = stable & ((x * x).sum(axis=1) > overlap * (1.0 - EXTRAPOLATE_TIE))
        extrapolations += better
        np.copyto(vectors, moved, where=better[:, None])
    return final, np.array(trace), records


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

    Runs |0...0> plus ``restarts`` random product starts in lockstep, the same
    for every state, and keeps the largest overlap.  Start r >= 1 is row r - 1 of
    one draw keyed ``[seed, *STARTS_KEY]``, so it depends on (seed, r) alone, and is
    not drawn from ``default_rng(seed)``, whose stream may have drawn the state.
    The earliest start wins ties up to float noise, so a state already in canonical
    form comes back with identity rotations instead of whatever a random restart
    landed on; a start whose first contraction vanishes settles at overlap 0 and
    loses.  ``restarts`` must be an integer in 1..``MAX_RESTARTS``, since every
    start's vectors are held at once, and ``seed`` a non-negative integer.
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
    overlap, history = records[best].overlap, trace[:records[best].sweeps, best].tolist()
    vectors = np.split(final[best], np.cumsum(dims[:-1]))
    unitaries = [unitary_from_first_column(v).conj().T for v in vectors]
    out = t
    for p, u in enumerate(unitaries):
        out = apply_kept_operator(out, u, (p,))
    canon = PureState(dims, out.reshape(-1))
    # Party p's single excitation is at flat index prod(dims[p + 1:]); abs per
    # value, since np.abs over the array may differ in the last bit.
    residual = max(map(abs, canon.amps[[math.prod(dims[p + 1:]) for p in range(len(dims))]]))

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
