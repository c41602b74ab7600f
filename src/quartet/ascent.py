"""Average pair-entropy objective, its analytic gradient, and seeded multi-start
gradient ascent on the unit sphere of four-qubit states.

The objective extends off the sphere as the mean over the six pairs of
-tr(rho log2 rho) with rho the raw (unrenormalized) pair reduction.  Its
Euclidean gradient is assembled from per-pair terms
-tr[d(rho) (log2 rho + I/ln 2)], three pair cuts at a time through
``core.pair_cuts``; ascent projects onto the sphere's tangent space and
retracts by renormalization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .entropy import FINGERPRINT_TOL, eigenvalue_entropy, fingerprint_residual, profile
from .core import FOUR_PARTY_CUT_ROWS, DomainError, PureState, pair_cuts, scatter_cuts

SPECTRAL_FLOOR = 1e-12  # eigenvalue clamp inside the gradient's logarithm
# Line search: first trial step, backtracking factor, smallest step, Armijo coefficient.
INITIAL_STEP = 1.0
BACKTRACK = 0.5
MIN_STEP = 1e-12
ARMIJO = 1e-4
_INV_LN2 = 1.0 / math.log(2.0)


def _check_four_qubits(dims):
    if tuple(dims) != (2, 2, 2, 2):
        raise DomainError(f"expected four qubits, got dims {tuple(dims)}")


def _mean_pair_entropy(lam: np.ndarray) -> float:
    # Six pairs, three cut spectra (complementary pairs share one), entropies add.
    return float(eigenvalue_entropy(lam.reshape(-1))) / 3.0


def avg_entropy_raw(amps: np.ndarray, dims) -> float:
    """Mean pair entropy of the raw amplitudes, with no normalization check."""
    _, rho = pair_cuts(amps, dims, FOUR_PARTY_CUT_ROWS)
    return _mean_pair_entropy(np.linalg.eigvalsh(rho))


def value_and_gradient_raw(amps: np.ndarray, dims):
    """Objective value and Euclidean gradient from one batched spectral pass.

    The directional derivative along ds is Re <ds|g>.  A pair's entropy term
    contributes -2 L M to its cut, with L = log2(rho) + I/ln 2 on the row pair;
    since f(M M^dagger) M = M f(M^dagger M) for a square M, the column pair
    contributes the same.  Eigenvalues are clamped at ``SPECTRAL_FLOOR`` inside
    the logarithm; for a pure-state reduction the kernel eigenvectors never
    overlap the state, so the clamp only guards round-off.
    """
    m, rho = pair_cuts(amps, dims, FOUR_PARTY_CUT_ROWS)
    lam, vec = np.linalg.eigh(rho)
    weights = np.log2(np.maximum(lam, SPECTRAL_FLOOR)) + _INV_LN2
    log_term = (vec * weights[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    g = scatter_cuts(log_term @ m, dims, FOUR_PARTY_CUT_ROWS)
    return _mean_pair_entropy(lam), (-4.0 / 6.0) * g


def entropy_gradient(s: PureState) -> PureState:
    """Tangent-space gradient of the mean pair entropy at a normalized state.

    The Euclidean gradient is projected via g -> g - Re<s|g> s; the phase
    direction carries no gradient because the objective is phase invariant.
    """
    _check_four_qubits(s.dims)
    if abs(s.norm() ** 2 - 1.0) > 1e-8:
        raise DomainError("entropy_gradient expects a normalized state")
    _, g = value_and_gradient_raw(s.amps, s.dims)
    g = g - np.real(np.vdot(s.amps, g)) * s.amps
    return PureState(s.dims, g)


def stationarity_report(s: PureState) -> dict:
    """Value, tangent gradient norm, and radial coefficient Re<s|g> at ``s``."""
    _check_four_qubits(s.dims)
    if abs(s.norm() ** 2 - 1.0) > 1e-8:
        raise DomainError("stationarity_report expects a normalized state")
    value, g = value_and_gradient_raw(s.amps, s.dims)
    radial = float(np.real(np.vdot(s.amps, g)))
    tangent = g - radial * s.amps
    return {
        "value": value,
        "tangent_grad_norm": float(np.linalg.norm(tangent)),
        "radial_coefficient": radial,
    }


def check_stopping(max_iters: int, grad_tol: float) -> None:
    """Reject stopping rules under which ``ascend`` cannot run or report convergence."""
    if max_iters < 1:
        raise DomainError("max_iters must be >= 1")
    if not grad_tol > 0:
        raise DomainError(f"grad_tol must be positive, got {grad_tol}")


@dataclass(frozen=True)
class OptConfig:
    """Knobs for multi-start sphere ascent; defaults match the shipped suite."""

    seed: int = 0
    restarts: int = 20
    max_iters: int = 10_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        check_stopping(self.max_iters, self.grad_tol)
        if self.restarts < 1:
            raise DomainError("restarts must be >= 1")


@dataclass
class AscentOutcome:
    amps: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def ascend(value_fn, value_grad_fn, amps0, *, grad_tol=1e-8, max_iters=10_000) -> AscentOutcome:
    """Backtracking gradient ascent on the unit sphere.

    Accepts a step when the retracted candidate gains at least
    ARMIJO * step * |g|^2; the objective is therefore non-decreasing across
    accepted steps.  Terminates when the tangent gradient norm drops below
    ``grad_tol``, when no step above ``MIN_STEP`` is acceptable, or at
    ``max_iters``.
    """
    s = np.asarray(amps0, dtype=complex).reshape(-1).copy()
    s /= np.linalg.norm(s)
    value, grad = value_grad_fn(s)
    step = INITIAL_STEP
    stagnant = 0
    for iteration in range(max_iters):
        tangent = grad - np.real(np.vdot(s, grad)) * s
        gnorm = float(np.linalg.norm(tangent))
        if gnorm < grad_tol:
            return AscentOutcome(s, value, gnorm, iteration, True)
        t = min(INITIAL_STEP, 2.0 * step)
        accepted = False
        while t >= MIN_STEP:
            candidate = s + t * tangent
            candidate /= np.linalg.norm(candidate)
            cand_value = value_fn(candidate)
            if cand_value >= value + ARMIJO * t * gnorm * gnorm:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            return AscentOutcome(s, value, gnorm, iteration, False)
        # Near the objective's floating-point resolution the sufficient-increase
        # threshold underflows and tie-valued steps get accepted forever; a long
        # run of them means the search has hit that resolution, not a plateau.
        stagnant = stagnant + 1 if cand_value <= value else 0
        s, step = candidate, t
        value, grad = value_grad_fn(s)
        if stagnant >= 50:
            tangent = grad - np.real(np.vdot(s, grad)) * s
            gnorm = float(np.linalg.norm(tangent))
            return AscentOutcome(s, value, gnorm, iteration + 1, gnorm < grad_tol)
    tangent = grad - np.real(np.vdot(s, grad)) * s
    gnorm = float(np.linalg.norm(tangent))
    return AscentOutcome(s, value, gnorm, max_iters, gnorm < grad_tol)


def haar_starts(n_amps: int, restarts: int, seed: int, start: PureState = None) -> list:
    """An optional explicit start, then restart k's Haar-random start from a (seed, k) sub-seed."""
    starts = [] if start is None else [start.amps]
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        z = rng.standard_normal(n_amps) + 1j * rng.standard_normal(n_amps)
        starts.append(z / np.linalg.norm(z))
    return starts


@dataclass(frozen=True)
class RestartResult:
    restart: int
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    classification: str
    fingerprint_residual: float


@dataclass(frozen=True)
class OptReport:
    """Best state found by multi-start ascent plus per-restart diagnostics."""

    best_value: float
    best_state: PureState
    best_grad_norm: float
    best_restart: int
    restarts: list
    config: OptConfig = field(repr=False)


_M4_FINGERPRINT = None


def _m4_fingerprint():
    global _M4_FINGERPRINT
    if _M4_FINGERPRINT is None:
        _M4_FINGERPRINT = profile(catalog.make("M4")).sorted_entries()
    return _M4_FINGERPRINT


def _run_restart(amps0, config: OptConfig, restart: int) -> tuple:
    dims = (2, 2, 2, 2)
    outcome = ascend(
        lambda a: avg_entropy_raw(a, dims),
        lambda a: value_and_gradient_raw(a, dims),
        amps0,
        grad_tol=config.grad_tol,
        max_iters=config.max_iters,
    )
    state = PureState(dims, outcome.amps)
    residual = fingerprint_residual(profile(state), _m4_fingerprint())
    label = "MATCHES_M4_PROFILE" if residual <= FINGERPRINT_TOL else "OTHER"
    record = RestartResult(
        restart=restart,
        value=outcome.value,
        grad_norm=outcome.grad_norm,
        iterations=outcome.iterations,
        converged=outcome.converged,
        classification=label,
        fingerprint_residual=residual,
    )
    return state, record


def maximize(config: OptConfig = None, start: PureState = None) -> OptReport:
    """Multi-start ascent of the average pair entropy over four-qubit states.

    Restart k draws its Haar-random start from a (seed, k) sub-seed, so runs
    with identical configs reproduce bitwise.  An optional explicit ``start``
    is prepended as restart 0.
    """
    config = config or OptConfig()
    if start is not None:
        _check_four_qubits(start.dims)
    starts = haar_starts(16, config.restarts, config.seed, start)
    states, records = map(list, zip(*(_run_restart(a, config, r) for r, a in enumerate(starts))))
    best = max(range(len(records)), key=lambda i: (records[i].value, -i))
    return OptReport(
        best_value=records[best].value,
        best_state=states[best],
        best_grad_norm=records[best].grad_norm,
        best_restart=best,
        restarts=records,
        config=config,
    )
