"""Distance of the balanced-cut reductions of a state of n >= 2 parties of one local
dimension d from maximal mixing.

A balanced cut (``core.balanced_cuts``) puts n // 2 parties on its rows and the rest on its
columns: the cut AC|BD makes the tensor t[i,j,k,l] the matrix M[(i,k), (j,l)], and M M^dagger
is the reduction onto AC.  The cut's deviation ||D M M^dagger - I||_F^2, with D = d^(n // 2),
vanishes exactly when that reduction is maximally mixed; three cuts cover all six pairs of a
four-party pure state.  For qubits the descent finds 0 at n = 2, 3, 5 and 6 and the derived 4
at n = 4; its floors 15.572519083969 at n = 7 and 208 at n = 8 are measured, not derived.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ascent import multistart
from .core import (MAX_PARTIES, PARTY_LETTERS, DomainError, PureState, balanced_cuts,
                   check_normalized, cut_indices)


@functools.cache
def _cuts(dims: tuple) -> tuple:
    """Cut labels such as ``AB_CD`` and row parties (``core.balanced_cuts``) of ``dims``:
    2 to ``MAX_PARTIES`` parties of one local dimension >= 2."""
    n = len(dims)
    if not 2 <= n <= MAX_PARTIES or len(set(dims)) != 1 or dims[0] < 2:
        raise DomainError(f"{dims}: need 2 to {MAX_PARTIES} parties of one local dimension >= 2")
    rows = balanced_cuts(n)
    return tuple("_".join("".join(PARTY_LETTERS[p] for p in range(n) if (p in cut) == side)
                          for side in (True, False)) for cut in rows), rows


@functools.cache
def _kernel(dims: tuple) -> tuple:
    """Gather and scatter indices of the cuts of ``dims`` (``core.cut_indices``) and
    the read-only identity of one cut's reduction."""
    gather, scatter = cut_indices(dims, _cuts(dims)[1])
    eye = np.eye(gather.shape[1])
    eye.flags.writeable = False
    return gather, scatter, eye


def _cut_deltas(amps, dims) -> tuple:
    """Cut matrices M, deviations D M M^dagger - I, and the scatter index of every cut.

    This is ``core.pair_cuts`` with its gather and identity looked up once per dims,
    so ``amps`` must be a flat array and ``dims`` a tuple.
    """
    gather, scatter, eye = _kernel(dims)
    m = amps[gather]
    delta = m @ m.conj().swapaxes(-1, -2)
    delta *= eye.shape[0]
    delta -= eye
    return m, delta, scatter


def _per_cut(amps, dims) -> dict:
    _, delta, _ = _cut_deltas(amps, dims)
    return dict(zip(_cuts(dims)[0], map(float, np.sum(np.abs(delta) ** 2, axis=(1, 2)))))


@dataclass(frozen=True)
class AmeDeviation:
    per_cut: dict
    total: float


def ame_deviation(s: PureState) -> AmeDeviation:
    """Per-cut and total distance of a normalized state's cut reductions from maximal mixing."""
    _cuts(s.dims)
    check_normalized(s.amps)
    per_cut = _per_cut(s.amps, s.dims)
    return AmeDeviation(per_cut, math.fsum(per_cut.values()))


def deviation_value_raw(amps, dims) -> float:
    """Total deviation of raw amplitudes (a flat array; ``dims`` a tuple), summed over the cuts."""
    _, delta, _ = _cut_deltas(amps, dims)
    return float(np.vdot(delta, delta).real)


def deviation_value_and_gradient_raw(amps, dims):
    """Total deviation and its Euclidean gradient (Re <ds|g> is the derivative) of raw
    amplitudes, a flat array; ``dims`` is a tuple.

    Per cut the gradient is 4 D (D M M^dagger - I) M, scattered back to amplitudes.
    """
    m, delta, scatter = _cut_deltas(amps, dims)
    g = (delta @ m).reshape(-1)[scatter].sum(0)
    g *= 4.0 * delta.shape[-1]
    return float(np.vdot(delta, delta).real), g


@dataclass(frozen=True)
class DeviationReport:
    """Best deviation found by multi-start descent plus per-restart diagnostics."""

    floor: float
    state: PureState
    per_cut: dict
    grad_norm: float
    iterations: int
    converged: bool
    restarts: list = field(repr=False)


def minimize_deviation(dims, restarts: int = 50, seed: int = 0, max_iters: int = 5000,
                       grad_tol: float = 1e-8, start: PureState = None) -> DeviationReport:
    """Multi-start descent of the total deviation over normalized states.

    Supports 2 to ``MAX_PARTIES`` parties of equal local dimension.  Restart k draws a
    Haar-random start from a (seed, k) sub-seed; an optional explicit ``start``
    is prepended.  Returns the lowest total found (first restart wins ties);
    ``restarts`` holds one ``ascent.RestartRecord`` per start.
    """
    dims = tuple(dims)
    _cuts(dims)
    records, finals, best = multistart(
        deviation_value_and_gradient_raw, dims, restarts=restarts, seed=seed, max_iters=max_iters,
        grad_tol=grad_tol, start=start, minimize=True,
    )
    record = records[best]
    state = PureState(dims, finals[best])
    return DeviationReport(
        floor=record.value,
        state=state,
        per_cut=_per_cut(state.amps, dims),
        grad_norm=record.grad_norm,
        iterations=record.iterations,
        converged=record.converged,
        restarts=records,
    )
