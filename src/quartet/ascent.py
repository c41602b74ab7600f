"""Average pair-entropy objective of four qubits, its analytic gradient, and seeded multi-start
Riemannian L-BFGS ascent on the unit sphere, also run by ``ame`` on n parties of one dimension.

The objective extends off the sphere as the mean over the six pairs of
-tr(rho log2 rho) with rho the raw (unrenormalized) pair reduction.  Its
Euclidean gradient is assembled from per-pair terms
-tr[d(rho) (log2 rho + I/ln 2)], three pair cuts at a time through
``core.pair_cuts``; ascent projects gradients onto the sphere's tangent space
and retracts by renormalization.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .entropy import EIG_FLOOR, eigenvalue_entropy, stacked_pair_entropies
from .core import (DomainError, PureState, ShapeError, balanced_cuts, check_count,
                   check_normalized, pair_cuts, random_state, scatter_cuts)

# Line search: largest first trial step, backtracking factor, smallest step, Armijo coefficient.
INITIAL_STEP = 1.0
BACKTRACK = 0.5
MIN_STEP = 1e-12
ARMIJO = 1e-4
MEMORY = 16  # curvature pairs kept by the L-BFGS direction
# A trial within TIE_ULPS of the current value passes if its slope is at least
# -WOLFE_SLOPE times the initial slope.
TIE_ULPS = 16
WOLFE_SLOPE = 0.8
# Every start is a dense amplitude vector, so the state size is bounded.
MAX_AMPLITUDES = 2**20
_INV_LN2 = 1.0 / math.log(2.0)
FOUR_QUBITS = (2, 2, 2, 2)
# Every pair reduction of |M4> has spectrum (1/2, 1/6, 1/6, 1/6) (Higuchi & Sudbery,
# arXiv:quant-ph/0005013); a restart within FINGERPRINT_TOL of it on all six pairs matches.
M4_PAIR_ENTROPY = 1.0 + 0.5 * math.log2(3.0)
FINGERPRINT_TOL = 1e-7


def _check_state(s: PureState):
    if s.dims != FOUR_QUBITS:
        raise DomainError(f"expected four qubits, got dims {s.dims}")
    check_normalized(s.amps)


def _mean_pair_entropy(lam: np.ndarray) -> float:
    # Six pairs, three cut spectra (complementary pairs share one), entropies add.
    return float(eigenvalue_entropy(lam.reshape(-1))) / 3.0


def value_and_gradient_raw(amps: np.ndarray, dims):
    """Objective value and Euclidean gradient from one batched spectral pass.

    The directional derivative along ds is Re <ds|g>.  A pair's entropy term
    contributes -2 L M to its cut, with L = log2(rho) + I/ln 2 on the row pair;
    since f(M M^dagger) M = M f(M^dagger M) for a square M, the column pair
    contributes the same.  Eigenvalues are clamped at ``EIG_FLOOR`` inside
    the logarithm; for a pure-state reduction the kernel eigenvectors never
    overlap the state, so the clamp only guards round-off.
    """
    m, rho = pair_cuts(amps, dims, balanced_cuts(4))
    lam, vec = np.linalg.eigh(rho)
    weights = np.log2(np.maximum(lam, EIG_FLOOR)) + _INV_LN2
    log_term = (vec * weights[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    g = scatter_cuts(log_term @ m, dims, balanced_cuts(4))
    return _mean_pair_entropy(lam), (-4.0 / 6.0) * g


def stationarity_report(s: PureState) -> dict:
    """Value, tangent gradient norm, and radial coefficient Re<s|g> at ``s``."""
    _check_state(s)
    value, g = value_and_gradient_raw(s.amps, s.dims)
    radial = float(np.real(np.vdot(s.amps, g)))
    tangent = g - radial * s.amps
    return {
        "value": value,
        "tangent_grad_norm": float(np.linalg.norm(tangent)),
        "radial_coefficient": radial,
    }


@dataclass(frozen=True)
class RestartRecord:
    """What one start of a multi-start search did.

    ``ascend`` numbers its record 0 and gives ``value`` in the ascent's sign;
    ``multistart`` renumbers it and gives ``value`` the objective's own sign.
    ``stop_reason`` names the exit: ``converged`` (tangent gradient norm below
    ``grad_tol``, at whichever exit), ``line_search_failed`` (no step above
    ``MIN_STEP`` is acceptable) or ``max_iters``.  ``evaluations`` counts the
    objective calls: the start and one per line-search trial, so
    ``evaluations - iterations - 1`` trials were rejected.  ``skipped_pairs``
    counts the curvature pairs left out for Re<s, y> <= 0, and ``memory_resets``
    the directions that did not ascend.
    """

    restart: int
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    evaluations: int
    skipped_pairs: int
    memory_resets: int


def _tangent(x, g):
    return g - x.dot(g) * x


class _CurvaturePairs:
    """The last ``MEMORY`` curvature pairs (s_i, y_i), oldest first, as the window of rows
    ``[end - count, end)`` of ``steps`` and ``falls``, which hold ``2 * MEMORY`` rows.

    A new pair writes itself at row ``end``, so a push moves no stored row until
    the buffer is full; then the window's newest ``MEMORY - 1`` pairs slide to the
    front, once every ``MEMORY + 1`` pushes.  The window's block of ``r_inv``
    holds the inverse of R, the upper triangle of S Y^T (R_ij = s_i.y_j for
    i <= j), whose diagonal holds the curvatures.  A new pair adds a column to R,
    so it adds the column -R^-1 (S y) / s.y above 1 / s.y to the inverse;
    dropping the oldest pair drops the inverse's first row and column, which the
    window leaves behind.  Nothing is written below the diagonal, so the
    window's lower triangle stays zero.  Setting ``count`` to 0 clears the memory.
    """

    def __init__(self, n):
        self.count = self.end = 0
        self.steps = np.zeros((2 * MEMORY, n))
        self.falls = np.zeros((2 * MEMORY, n))
        self.r_inv = np.zeros((2 * MEMORY, 2 * MEMORY))
        self.gamma = 0.0

    def window(self) -> slice:
        return slice(self.end - self.count, self.end)

    def push(self, step, fall, curvature):
        kept = min(self.count, MEMORY - 1)
        steps, falls, r_inv, end = self.steps, self.falls, self.r_inv, self.end
        old = slice(end - kept, end)
        if end == 2 * MEMORY:
            steps[:kept], falls[:kept] = steps[old], falls[old]
            r_inv[:kept, :kept] = r_inv[old, old]
            end, old = kept, slice(0, kept)
        r_inv[old, end] = r_inv[old, old].dot(steps[old].dot(fall)) * (-1.0 / curvature)
        r_inv[end, end] = 1.0 / curvature
        steps[end], falls[end] = step, fall
        # The initial scaling s.y / y.y of the newest pair.
        self.gamma = curvature / fall.dot(fall)
        self.count, self.end = kept + 1, end + 1


def _lbfgs_direction(grad, pairs: _CurvaturePairs):
    """The L-BFGS inverse-Hessian estimate applied to ``grad``, in a fixed number of numpy calls.

    This is the two-loop recursion (Nocedal & Wright, Alg. 7.4) in the compact
    form of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994).  The first loop's
    coefficients solve R alpha = S g, and it leaves q = g - Y^T alpha.  The
    second loop returns gamma q + S^T c, where c solves
    R^T c = D alpha - gamma Y q and D is the diagonal of R.  With R^-1 kept up to
    date by each ``push``, both triangular recurrences are small matrix products,
    so the call count does not depend on the number of pairs.
    """
    window = pairs.window()
    steps, falls, r_inv = pairs.steps[window], pairs.falls[window], pairs.r_inv[window, window]
    alpha = r_inv.dot(steps.dot(grad))
    q = grad - alpha.dot(falls)
    coeffs = (alpha / r_inv.diagonal() - pairs.gamma * falls.dot(q)).dot(r_inv)
    return pairs.gamma * q + coeffs.dot(steps)


def ascend(value_grad_fn, amps0, *, grad_tol=1e-8, max_iters=10_000) -> tuple:
    """Riemannian L-BFGS ascent on the unit sphere with a backtracking line search.

    The direction comes from the last ``MEMORY`` curvature pairs, each a step
    and the fall of the tangent gradient along it, both projected onto the
    tangent space of the point the step reached; a pair with Re<s, y> <= 0 is
    skipped, and a direction that does not ascend clears the memory.
    ``_lbfgs_direction`` makes the same numpy calls for one pair as for
    ``MEMORY = 16``, and so does ``_CurvaturePairs.push``, so a long memory
    costs no extra dispatch per iteration and saves iterations: criterion 5
    takes 1,158 against 1,667 at a memory of 5.  Directions, steps and
    candidates are built and projected in place, vector products are
    ``ndarray.dot`` (half the dispatch of ``@`` at these sizes, same bits), and
    the slope of the plain tangent direction is the squared gradient norm
    already at hand: 37 numpy calls per iteration besides the objective's.
    The first trial step is min(1, 1/|g|) on an empty memory and 1 otherwise.  Each trial
    makes one ``value_grad_fn`` call, and its value and gradient decide it: it
    is accepted when its value gains at least ARMIJO * step * slope.  A trial
    whose value ties the current one within ``TIE_ULPS`` units in the last
    place shows no gain at the objective's resolution, so its slope decides:
    it is accepted while the slope is at least -WOLFE_SLOPE times the initial
    slope (approximate Wolfe test, Hager & Zhang 2005).  Accepted values thus
    never fall by more than that tie.  Vectors are kept as real views of the
    amplitudes, where the real inner product is Re<a, b>; ``value_grad_fn``
    returns its gradient as a flat complex array, read through such a view.

    Returns the final amplitudes and a ``RestartRecord``, which explains the counters.
    """
    x = np.asarray(amps0, dtype=complex).reshape(-1)
    x = (x / np.linalg.norm(x)).view(float)
    value, grad = value_grad_fn(x.view(complex))
    tangent = _tangent(x, grad.view(float))
    gnorm_sq = float(tangent.dot(tangent))
    gnorm = math.sqrt(gnorm_sq)
    evaluations, skipped_pairs, memory_resets = 1, 0, 0
    pairs = _CurvaturePairs(x.size)

    def stopped(iterations, reason):
        converged = gnorm < grad_tol
        return x.view(complex), RestartRecord(0, value, gnorm, iterations, converged,
                                              "converged" if converged else reason, evaluations,
                                              skipped_pairs, memory_resets)

    for iteration in range(max_iters):
        if gnorm < grad_tol:
            return stopped(iteration, "converged")
        if pairs.count:
            direction = _lbfgs_direction(tangent, pairs)
            direction -= x.dot(direction) * x
            slope = float(tangent.dot(direction))
            if not slope > 0:
                pairs.count = 0
                memory_resets += 1
        if not pairs.count:
            direction, slope = tangent, gnorm_sq
        t = INITIAL_STEP if pairs.count else min(INITIAL_STEP, 1.0 / gnorm)
        tie = TIE_ULPS * math.ulp(value)
        while t >= MIN_STEP:
            candidate = t * direction
            candidate += x
            scale = math.sqrt(candidate.dot(candidate))
            candidate /= scale
            cand_value, cand_grad = value_grad_fn(candidate.view(complex))
            evaluations += 1
            new_tangent = _tangent(candidate, cand_grad.view(float))
            # Slope along the retraction at t: Re<P g, d> / |x + t d|.
            if cand_value >= value + ARMIJO * t * slope or (
                    abs(cand_value - value) <= tie
                    and new_tangent.dot(direction) / scale >= -WOLFE_SLOPE * slope):
                break
            t *= BACKTRACK
        else:
            return stopped(iteration, "line_search_failed")
        step = t * direction
        step -= candidate.dot(step) * candidate
        fall = _tangent(candidate, tangent)
        fall -= new_tangent
        curvature = float(step.dot(fall))
        if curvature > 0:
            pairs.push(step, fall, curvature)
        else:
            skipped_pairs += 1
        x, value, tangent = candidate, cand_value, new_tangent
        gnorm_sq = float(tangent.dot(tangent))
        gnorm = math.sqrt(gnorm_sq)
    return stopped(max_iters, "max_iters")


def haar_starts(dims, restarts: int, seed: int, start: PureState = None):
    """An optional explicit start, then Haar starts from sub-seeds (seed, k), drawn lazily."""
    if start is not None:
        yield start.amps
    for r in range(restarts):
        yield random_state(dims, np.random.default_rng([seed, r])).amps


def multistart(value_grad_fn, dims, *, restarts: int, seed: int, max_iters: int,
               grad_tol: float, start: PureState = None, minimize: bool = False) -> tuple:
    """Run ``ascend`` from an optional explicit ``start`` and ``restarts`` Haar starts.

    ``value_grad_fn(amps, dims)`` returns a raw objective and its Euclidean
    gradient as a fresh flat complex array, both negated for the ascent if
    ``minimize``, the gradient in place.  Every local dimension
    must be an integer of at least 2, ``restarts`` may be 0 only with a
    ``start``, which needs a finite nonzero norm, ``grad_tol`` must be positive
    and finite, and a state may have at most ``MAX_AMPLITUDES`` amplitudes; all
    are checked before any start is drawn.  Returns one ``RestartRecord`` and
    one final amplitude vector per start, and the index of the best start (the earliest wins ties).
    """
    dims = tuple(dims)
    check_count("max_iters", max_iters, 1)
    if not 0 < grad_tol < math.inf:
        raise DomainError(f"grad_tol must be positive and finite, got {grad_tol}")
    for d in dims:
        check_count("local dimension", d, 2)
    if math.prod(dims) > MAX_AMPLITUDES:
        raise DomainError(f"states of more than {MAX_AMPLITUDES} amplitudes are not supported")
    check_count("restarts", restarts, 0 if start is not None else 1)
    check_count("seed", seed)
    if start is not None and tuple(start.dims) != dims:
        raise ShapeError(f"start state has dims {start.dims}, expected {dims}")
    if start is not None and not 0 < np.linalg.norm(start.amps) < math.inf:
        raise DomainError("start must have a finite nonzero norm")

    def value_grad(amps):
        v, g = value_grad_fn(amps, dims)
        return (-v, np.negative(g, out=g)) if minimize else (v, g)

    finals, records = zip(*(ascend(value_grad, amps0, grad_tol=grad_tol, max_iters=max_iters)
                            for amps0 in haar_starts(dims, restarts, seed, start)))
    best = max(range(len(records)), key=lambda i: (records[i].value, -i))
    return [replace(rec, restart=r, value=-rec.value if minimize else rec.value)
            for r, rec in enumerate(records)], finals, best


@dataclass(frozen=True)
class OptReport:
    """Best state of a multi-start ascent, each restart's record, and each restart's
    residual: its largest pair-entropy gap from ``M4_PAIR_ENTROPY``."""

    best_value: float
    best_state: PureState
    best_grad_norm: float
    best_restart: int
    restarts: list
    fingerprint_residuals: list = field(repr=False)

    @property
    def classifications(self) -> list:
        return ["MATCHES_M4_PROFILE" if r <= FINGERPRINT_TOL else "OTHER"
                for r in self.fingerprint_residuals]


def maximize(*, restarts: int = 20, seed: int = 0, max_iters: int = 10_000,
             grad_tol: float = 1e-8, start: PureState = None) -> OptReport:
    """Multi-start ascent of the average pair entropy over four-qubit states.

    Restart k draws its Haar-random start from a (seed, k) sub-seed, so runs
    with equal arguments reproduce bitwise.  An optional explicit ``start``
    is prepended as restart 0.
    """
    records, finals, best = multistart(
        value_and_gradient_raw, FOUR_QUBITS, restarts=restarts, seed=seed,
        max_iters=max_iters, grad_tol=grad_tol, start=start,
    )
    gaps = np.abs(stacked_pair_entropies(np.stack(finals), FOUR_QUBITS) - M4_PAIR_ENTROPY)
    return OptReport(records[best].value, PureState(FOUR_QUBITS, finals[best]),
                     records[best].grad_norm, best, records, gaps.max(axis=-1).tolist())
