"""Numbered end-to-end checks for the package's headline quantitative claims.

Each criterion pins down one result the library exists to reproduce: the
reference entropy profiles, the shared pair spectrum of |M4>, gradient
stationarity at |M4>, the multi-start entropy search landing on the |M4>
profile, the strictly positive four-qubit deviation floor, canonical-form
convergence, measurement robustness, and a cross-module invariant sweep.

Every criterion hands its checks, each a label, a list of measurements and a
bound, to ``verdict``, which applies one rule: a check passes only when the
largest of its measurements is strictly below its bound, so a NaN or an empty
list fails it.  The details print that largest measurement next to its bound.

``run_all`` runs the criteria in order and yields one CriterionResult per
criterion as soon as it finishes; the ``verify`` CLI subcommand iterates it,
printing a PASS or FAIL line for each result as it arrives and then one JSON
verdict (each result through ``dataclasses.asdict``).  Every criterion also
carries a wall-clock budget and fails if it runs over.
"""

import collections
import math
import time
from dataclasses import dataclass

import numpy as np

from . import ame as ame_mod
from . import ascent, canonical, catalog
from .measure import (
    computational_basis,
    equivariance_overlap,
    measure,
    plus_minus_basis,
    random_basis,
    residual_pair_entropies,
)
from .entropy import PAIRS, profile
from .core import apply_local_unitary, balanced_cuts, partial_trace, random_state, random_unitary

# Average pair entropy of |M4>, the conjectured four-qubit maximum; every pair has it.
TARGET_AVERAGE = ascent.M4_PAIR_ENTROPY

# Pair entropy of both reference residual states left by measuring one party
# of |M4>; equals log2(3) - 2/3 for every remaining pair.
RESIDUAL_ENTROPY = math.log2(3.0) - 2.0 / 3.0

# Every two-party reduction of |M4> has this spectrum.
M4_PAIR_SPECTRUM = (0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0)

# Per cut ||4 rho - I||_F^2 = 16 tr(rho^2) - 4 for a unit-trace two-qubit
# reduction, and the three cut purities of a four-qubit state sum to at least 1
# (Gour & Wallach, J. Math. Phys. 51, 112201, 2010), so no total deviation goes
# below 16 * 1 - 12.
DEVIATION_FLOOR_2222 = 4.0
DEVIATION_FLOOR_TOL = 1e-9

# Largest squared overlap between |C4> and any product state.  Checked against
# a dense grid over product states (tests/test_canonical.py re-derives it).
C4_PRODUCT_OVERLAP = 0.5


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    duration_seconds: float
    budget_seconds: float


def format_line(r: CriterionResult) -> str:
    flag = "PASS" if r.passed else "FAIL"
    return f"{flag} criterion {r.number} ({r.name}): {r.details} [{r.duration_seconds:.2f}s]"


def verdict(checks, notes=()) -> tuple[bool, str]:
    """A criterion's ``(passed, details)`` from its ``(label, measurements, bound)``
    checks, then its free-text ``notes``, by the rule in the module docstring."""
    passed = True
    parts = []
    for label, measurements, bound in checks:
        # np.max, unlike the builtin max, carries a NaN through to the comparison.
        worst = float(np.max(measurements)) if np.size(measurements) else math.nan
        passed = passed and worst < bound
        parts.append(f"{label} {worst:.2e} (tol {bound:.0e})")
    return passed, "; ".join([*parts, *notes])


def _profile_deviations(tag: str, expected: float) -> list:
    return [abs(v - expected) for v in profile(catalog.make(tag)).entries.values()]


def criterion_entropy_profiles() -> tuple[bool, str]:
    """Reference profiles: |C4> all 1, the example state (1,1,2,2,2,2), |M4> uniform."""
    tol = 1e-10
    psi = profile(catalog.make("PSI_EXAMPLE"))
    return verdict([
        ("C4 profile deviation", _profile_deviations("C4", 1.0), tol),
        ("example sorted profile deviation",
         [abs(a - b) for a, b in zip(psi.sorted_entries(), (1.0, 1.0, 2.0, 2.0, 2.0, 2.0))],
         tol),
        ("example average deviation", [abs(psi.average - 5.0 / 3.0)], tol),
        ("M4 profile deviation", _profile_deviations("M4", TARGET_AVERAGE), tol),
    ])


def criterion_pair_spectrum() -> tuple[bool, str]:
    """All three A-pairs of |M4> share one reduction with spectrum (1/2,1/6,1/6,1/6)."""
    tol = 1e-10
    m4 = catalog.make("M4")
    rho_ab = partial_trace(m4, ("A", "B"))

    # Independent construction: 1/6(|00><00| + |11><11| + |phi+><phi+|)
    # + 1/2 |phi-><phi-| with phi+- = (|10> +- |01>)/sqrt(2).
    def proj(v):
        v = np.asarray(v, dtype=complex)
        return np.outer(v, v.conj())

    r = 1.0 / math.sqrt(2.0)
    phi_plus = [0.0, r, r, 0.0]
    phi_minus = [0.0, -r, r, 0.0]
    e00 = [1.0, 0.0, 0.0, 0.0]
    e11 = [0.0, 0.0, 0.0, 1.0]
    mixture = (proj(e00) + proj(e11) + proj(phi_plus)) / 6.0 + proj(phi_minus) / 2.0

    return verdict([
        ("spectrum dev", np.abs(np.linalg.eigvalsh(rho_ab)[::-1] - M4_PAIR_SPECTRUM), tol),
        ("AB=AC=AD dev", np.abs([rho_ab - partial_trace(m4, ("A", "C")),
                                 rho_ab - partial_trace(m4, ("A", "D"))]), tol),
        ("explicit mixture dev", np.abs(rho_ab - mixture), tol),
    ])


def _finite_difference_gradient(amps: np.ndarray, dims, h: float) -> np.ndarray:
    g = np.zeros(amps.size, dtype=complex)
    for i in range(amps.size):
        for unit in (1.0, 1j):
            plus = amps.copy()
            minus = amps.copy()
            plus[i] += unit * h
            minus[i] -= unit * h
            diff = (ascent.value_and_gradient_raw(plus, dims)[0]
                    - ascent.value_and_gradient_raw(minus, dims)[0]) / (2.0 * h)
            g[i] += unit * diff
    return g


def criterion_stationarity() -> tuple[bool, str]:
    """|M4> is a critical point; the analytic gradient matches finite differences."""
    dims = (2, 2, 2, 2)
    errors = []
    for k in range(20):
        s = random_state(dims, np.random.default_rng([3, k]))
        _, analytic = ascent.value_and_gradient_raw(s.amps, dims)
        fd = _finite_difference_gradient(np.array(s.amps), dims, h=1e-5)
        scale = np.where(np.abs(analytic) >= 1e-8, np.abs(analytic), 1.0)
        errors.append(np.abs(analytic - fd) / scale)

    return verdict([
        ("tangent gradient norm at M4",
         [ascent.stationarity_report(catalog.make("M4"))["tangent_grad_norm"]], 1e-8),
        ("worst gradient-vs-finite-difference error over 20 states", errors, 1e-5),
    ])


def criterion_search() -> tuple[bool, str]:
    """Default 20-restart ascent reaches the target; converged runs match the M4 profile."""
    report = ascent.maximize()
    converged = [r.restart for r in report.restarts if r.converged]
    return verdict([
        ("best value off target by", [abs(report.best_value - TARGET_AVERAGE)], 1e-6),
        ("worst converged profile residual",
         [report.fingerprint_residuals[r] for r in converged], ascent.FINGERPRINT_TOL),
    ], [
        f"best value {report.best_value:.12f}",
        f"{len(converged)}/{len(report.restarts)} converged",
    ])


def criterion_deviation_floor() -> tuple[bool, str]:
    """No four-qubit state gets uniformly mixed pair marginals; the qudit one does."""
    report = ame_mod.minimize_deviation((2, 2, 2, 2), restarts=50, seed=0)
    rows = report.restarts
    reasons = collections.Counter(r.stop_reason for r in rows)
    return verdict([
        ("four-qubit floor off the derived 4 by",
         [abs(report.floor - DEVIATION_FLOOR_2222)], DEVIATION_FLOOR_TOL),
        ("AME44 deviation", [ame_mod.ame_deviation(catalog.make("AME44")).total], 1e-12),
    ], [
        f"four-qubit floor {report.floor:.12f}",
        f"{sum(r.converged for r in rows)}/{len(rows)} converged, stop reasons: "
        f"{', '.join(f'{reason} {n}' for reason, n in sorted(reasons.items()))}",
        f"{sum(r.iterations for r in rows)} iterations, "
        f"{sum(r.skipped_pairs for r in rows)} skipped pairs, "
        f"{sum(r.memory_resets for r in rows)} memory resets",
    ])


def criterion_canonical_form() -> tuple[bool, str]:
    """Canonicalization zeroes the single-excitation slots on 100 random states."""
    states = [random_state((2, 2, 2, 2), np.random.default_rng([6, k])) for k in range(100)]
    forms = [canonical.canonicalize(s, restarts=16, seed=k) for k, s in enumerate(states)]
    c4_form = canonical.canonicalize(catalog.make("C4"), restarts=16, seed=0)
    return verdict([
        ("worst zero_residual", [form.zero_residual for form in forms], 1e-8),
        ("worst overlap backstep",
         [a - b for form in forms for a, b in zip(form.history, form.history[1:])], 1e-14),
        ("C4 overlap off 1/2 by", [abs(c4_form.overlap - C4_PRODUCT_OVERLAP)], 1e-8),
    ])


def _residual_entropies(s, basis) -> list:
    """Pair entropies of every residual left by measuring ``basis`` on ``s``."""
    return [v for outcome in measure(s, basis) if outcome.residual is not None
            for v in residual_pair_entropies(outcome.residual, basis.party, 4).values()]


def criterion_robustness() -> tuple[bool, str]:
    """Single-party measurements never disentangle |M4> but do shatter |C4>."""
    m4 = catalog.make("M4")
    c4 = catalog.make("C4")
    bases = [random_basis(trial % 4, 2, np.random.default_rng([7, trial])) for trial in range(50)]
    return verdict([
        ("M4 residual entropy dev over 50 bases",
         [abs(v - RESIDUAL_ENTROPY) for basis in bases for v in _residual_entropies(m4, basis)],
         1e-8),
        ("M4 equivariance overlap off 1 by",
         [1.0 - equivariance_overlap(m4, basis.party, np.array(basis.vectors).T)
          for basis in bases], 1e-8),
        ("C4 computational residual entropies",
         [abs(v) for v in _residual_entropies(c4, computational_basis(0))], 1e-10),
        ("C4 plus/minus residual entropies off 1 by",
         [abs(v - 1.0) for v in _residual_entropies(c4, plus_minus_basis(0))], 1e-10),
    ])


def criterion_invariants() -> tuple[bool, str]:
    """Spectra, probabilities, profiles and deviations behave under the stated symmetries."""
    spectrum_devs = []
    born_devs = []
    profile_devs = []
    deviation_devs = []
    for k in range(50):
        rng = np.random.default_rng([8, k])
        s = random_state((2, 2, 2, 2), rng)

        for rows in balanced_cuts(4):
            a = np.linalg.eigvalsh(partial_trace(s, rows))
            b = np.linalg.eigvalsh(partial_trace(s, [p for p in range(4) if p not in rows]))
            spectrum_devs.append(np.abs(a - b))

        party = int(rng.integers(4))
        basis = random_basis(party, 2, rng)
        born_devs.append(abs(math.fsum(o.probability for o in measure(s, basis)) - 1.0))

        rotated = s
        for p in range(4):
            rotated = apply_local_unitary(rotated, p, random_unitary(2, rng))
        pa = profile(s)
        pb = profile(rotated)
        profile_devs.extend(abs(pa.entries[q] - pb.entries[q]) for q in PAIRS)
        deviation_devs.append(
            abs(ame_mod.ame_deviation(s).total - ame_mod.ame_deviation(rotated).total))

    return verdict([
        ("complement spectrum dev", spectrum_devs, 1e-10),
        ("Born completeness dev", born_devs, 1e-12),
        ("LU profile dev", profile_devs, 1e-10),
        ("LU deviation dev", deviation_devs, 1e-10),
    ])


# One row per criterion, in run order: (number, name, check, budget in seconds).
CRITERIA = (
    (1, "entropy-profiles", criterion_entropy_profiles, 1.0),
    (2, "pair-spectrum", criterion_pair_spectrum, 1.0),
    (3, "stationarity", criterion_stationarity, 10.0),
    (4, "search", criterion_search, 120.0),
    (5, "deviation-floor", criterion_deviation_floor, 300.0),
    (6, "canonical-form", criterion_canonical_form, 60.0),
    (7, "robustness", criterion_robustness, 30.0),
    (8, "invariants", criterion_invariants, 60.0),
)


def run_one(number: int) -> CriterionResult:
    for num, name, fn, budget in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, details = fn()
            elapsed = time.perf_counter() - start
            if elapsed > budget:
                passed = False
                details += f"; OVER BUDGET {elapsed:.1f}s > {budget:.0f}s"
            return CriterionResult(num, name, passed, details, elapsed, budget)
    raise ValueError(f"no criterion numbered {number}")


def run_all():
    """Run every criterion in order, yielding each CriterionResult as it finishes."""
    for num, _, _, _ in CRITERIA:
        yield run_one(num)
