"""Distance of the cut reductions of a state of two or four parties of one local
dimension d from maximal mixing.

For a cut such as AC|BD the state tensor t[i,j,k,l] becomes the matrix
M[(i,k), (j,l)]; M M^dagger equals the reduction onto the row pair, so the
per-cut deviation ||d^2 M M^dagger - I||_F^2 vanishes exactly when that pair is
maximally mixed.  Three cuts cover all six pairs of a four-party pure state, and
the one cut A_B, with d M M^dagger - I, covers a two-party one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ascent import multistart
from .core import FOUR_PARTY_CUT_ROWS, DomainError, PureState, check_normalized, cut_indices

CUTS = ("AB_CD", "AC_BD", "AD_BC")
# Cut labels and row parties, by number of parties.
_CUTS_BY_PARTIES = {2: (("A_B",), ((0,),)), 4: (CUTS, FOUR_PARTY_CUT_ROWS)}


def _cuts(dims) -> tuple:
    """Cut labels and row parties of ``dims``: two or four parties of one local dimension >= 2."""
    if len(dims) not in _CUTS_BY_PARTIES or len(set(dims)) != 1 or dims[0] < 2:
        raise DomainError(f"two or four parties of one local dimension >= 2 required, got {dims}")
    return _CUTS_BY_PARTIES[len(dims)]


@functools.cache
def _kernel(dims: tuple) -> tuple:
    """Gather and scatter indices of the cuts of ``dims`` (``core.cut_indices``) and
    the read-only identity of one cut's reduction."""
    gather, scatter = cut_indices(dims, _cuts(dims)[1])
    eye = np.eye(gather.shape[1])
    eye.flags.writeable = False
    return gather, scatter, eye


def _cut_deltas(amps, dims) -> tuple:
    """Cut matrices M, deviations d * M M^dagger - I, and the scatter index of every cut.

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

    Per cut the gradient is 4 d (d M M^dagger - I) M, scattered back to amplitudes.
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

    Supports two or four parties of equal local dimension.  Restart k draws a
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
