"""Numbered end-to-end checks for the package's headline quantitative claims.

Each check pins down one result the library exists to reproduce: the
reference entropy profiles, the shared pair spectrum of |M4>, gradient
stationarity at |M4>, the multi-start entropy search landing on the |M4>
profile, the strictly positive four-qubit deviation floor, canonical-form
convergence, measurement robustness, and a cross-module invariant sweep.

``run_all`` executes the checks in order and returns one CriterionResult per
check; the ``verify`` CLI subcommand prints a pass/fail line for each.  Every
check also carries a wall-clock budget and fails if it runs over.
"""

from __future__ import annotations

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
from .entropy import PAIRS, complement, fingerprint_match, pair_parties, profile
from .core import apply_local_unitary, partial_trace, random_state, random_unitary

# Average pair entropy of |M4>, the conjectured four-qubit maximum.
TARGET_AVERAGE = 1.0 + 0.5 * math.log2(3.0)

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

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "duration_seconds": self.duration_seconds,
            "budget_seconds": self.budget_seconds,
        }


def format_line(r: CriterionResult) -> str:
    flag = "PASS" if r.passed else "FAIL"
    return f"{flag} criterion {r.number} ({r.name}): {r.details} [{r.duration_seconds:.2f}s]"


def _profile_deviation(tag: str, expected: float) -> float:
    entries = profile(catalog.make(tag)).entries
    return max(abs(v - expected) for v in entries.values())


def criterion_entropy_profiles() -> tuple[bool, str]:
    """Reference profiles: |C4> all 1, the example state (1,1,2,2,2,2), |M4> uniform."""
    tol = 1e-10
    c4_dev = _profile_deviation("C4", 1.0)

    psi = profile(catalog.make("PSI_EXAMPLE"))
    psi_sorted = psi.sorted_entries()
    psi_dev = max(abs(a - b) for a, b in zip(psi_sorted, (1.0, 1.0, 2.0, 2.0, 2.0, 2.0)))
    psi_avg_dev = abs(psi.average - 5.0 / 3.0)

    m4_dev = _profile_deviation("M4", TARGET_AVERAGE)

    ok = max(c4_dev, psi_dev, psi_avg_dev, m4_dev) < tol
    details = (
        f"profile deviations: C4 {c4_dev:.2e}, example sorted {psi_dev:.2e} "
        f"(average {psi_avg_dev:.2e}), M4 {m4_dev:.2e} (tol {tol:.0e})"
    )
    return ok, details


def criterion_pair_spectrum() -> tuple[bool, str]:
    """All three A-pairs of |M4> share one reduction with spectrum (1/2,1/6,1/6,1/6)."""
    tol = 1e-10
    m4 = catalog.make("M4")
    rho_ab = partial_trace(m4, ("A", "B"))
    spectrum = np.linalg.eigvalsh(rho_ab)[::-1]
    spectrum_dev = float(np.max(np.abs(spectrum - np.array(M4_PAIR_SPECTRUM))))

    rho_ac = partial_trace(m4, ("A", "C"))
    rho_ad = partial_trace(m4, ("A", "D"))
    equal_dev = max(
        float(np.max(np.abs(rho_ab - rho_ac))),
        float(np.max(np.abs(rho_ab - rho_ad))),
    )

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
    mixture_dev = float(np.max(np.abs(rho_ab - mixture)))

    ok = max(spectrum_dev, equal_dev, mixture_dev) < tol
    details = (
        f"spectrum dev {spectrum_dev:.2e}, AB=AC=AD dev {equal_dev:.2e}, "
        f"explicit mixture dev {mixture_dev:.2e} (tol {tol:.0e})"
    )
    return ok, details


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
    report = ascent.stationarity_report(catalog.make("M4"))
    tangent = report["tangent_grad_norm"]

    dims = (2, 2, 2, 2)
    h = 1e-5
    worst = 0.0
    for k in range(20):
        s = random_state(dims, np.random.default_rng([3, k]))
        _, analytic = ascent.value_and_gradient_raw(s.amps, dims)
        fd = _finite_difference_gradient(np.array(s.amps), dims, h)
        scale = np.where(np.abs(analytic) >= 1e-8, np.abs(analytic), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))

    ok = bool(tangent < 1e-8 and worst < 1e-5)
    details = (
        f"tangent gradient norm at M4 {tangent:.2e} (tol 1e-08); "
        f"worst gradient-vs-finite-difference error {worst:.2e} over 20 states (tol 1e-05)"
    )
    return ok, details


def criterion_search() -> tuple[bool, str]:
    """Default 20-restart ascent reaches the target; converged runs match the M4 profile."""
    report = ascent.maximize()
    gap = abs(report.best_value - TARGET_AVERAGE)
    converged = [r for r in report.restarts if r.converged]
    mismatches = [r.restart for r in converged if report.fingerprint_residuals[r.restart] > 1e-6]
    ok = gap < 1e-6 and not mismatches
    details = (
        f"best value {report.best_value:.12f} (off target by {gap:.2e}, tol 1e-06); "
        f"{len(converged)}/{len(report.restarts)} converged, "
        f"profile mismatches among converged: {mismatches or 'none'}"
    )
    return ok, details


def criterion_deviation_floor() -> tuple[bool, str]:
    """No four-qubit state gets uniformly mixed pair marginals; the qudit one does."""
    report = ame_mod.minimize_deviation((2, 2, 2, 2), restarts=50, seed=0)
    gap = abs(report.floor - DEVIATION_FLOOR_2222)
    below = [r.restart for r in report.restarts
             if r.value < DEVIATION_FLOOR_2222 - DEVIATION_FLOOR_TOL]
    converged = sum(r.converged for r in report.restarts)
    reasons = collections.Counter(r.stop_reason for r in report.restarts)
    ame44 = ame_mod.ame_deviation(catalog.make("AME44")).total
    ok = gap <= DEVIATION_FLOOR_TOL and not below and ame44 < 1e-12
    details = (
        f"four-qubit floor {report.floor:.12f}, off the derived 4 by {gap:.2e} "
        f"(tol {DEVIATION_FLOOR_TOL:.0e}); restarts below it: {below or 'none'}; "
        f"{converged}/{len(report.restarts)} converged, stop reasons: "
        f"{', '.join(f'{reason} {n}' for reason, n in sorted(reasons.items()))}; "
        f"AME44 deviation {ame44:.2e} (tol 1e-12)"
    )
    return ok, details


def criterion_canonical_form() -> tuple[bool, str]:
    """Canonicalization zeroes the single-excitation slots on 100 random states."""
    worst_residual = 0.0
    worst_backstep = 0.0
    for k in range(100):
        s = random_state((2, 2, 2, 2), np.random.default_rng([6, k]))
        form = canonical.canonicalize(s, restarts=16, seed=k)
        worst_residual = max(worst_residual, form.zero_residual)
        for a, b in zip(form.history, form.history[1:]):
            worst_backstep = max(worst_backstep, a - b)

    c4_form = canonical.canonicalize(catalog.make("C4"), restarts=16, seed=0)
    c4_gap = abs(c4_form.overlap - C4_PRODUCT_OVERLAP)

    ok = worst_residual < 1e-8 and worst_backstep <= 1e-14 and c4_gap < 1e-8
    details = (
        f"worst zero_residual {worst_residual:.2e} (tol 1e-08), "
        f"worst overlap backstep {worst_backstep:.2e} (tol 1e-14), "
        f"C4 overlap off 1/2 by {c4_gap:.2e} (tol 1e-08)"
    )
    return ok, details


def criterion_robustness() -> tuple[bool, str]:
    """Single-party measurements never disentangle |M4> but do shatter |C4>."""
    m4 = catalog.make("M4")
    worst_entropy_dev = 0.0
    worst_equivariance = 1.0
    for trial in range(50):
        party = trial % 4
        basis = random_basis(party, 2, np.random.default_rng([7, trial]))
        for outcome in measure(m4, basis):
            if outcome.residual is None:
                continue
            ents = residual_pair_entropies(outcome.residual, party, 4)
            for v in ents.values():
                worst_entropy_dev = max(worst_entropy_dev, abs(v - RESIDUAL_ENTROPY))
        u = np.array(basis.vectors).T
        worst_equivariance = min(worst_equivariance, equivariance_overlap(m4, party, u))

    c4 = catalog.make("C4")
    comp_max = 0.0
    for outcome in measure(c4, computational_basis(0)):
        for v in residual_pair_entropies(outcome.residual, 0, 4).values():
            comp_max = max(comp_max, abs(v))
    pm_dev = 0.0
    for outcome in measure(c4, plus_minus_basis(0)):
        for v in residual_pair_entropies(outcome.residual, 0, 4).values():
            pm_dev = max(pm_dev, abs(v - 1.0))

    ok = (
        worst_entropy_dev < 1e-8
        and worst_equivariance > 1.0 - 1e-8
        and comp_max < 1e-10
        and pm_dev < 1e-10
    )
    details = (
        f"M4 residual entropy dev {worst_entropy_dev:.2e} over 50 bases (tol 1e-08), "
        f"equivariance overlap >= {worst_equivariance:.12f}; "
        f"C4 computational residual entropies <= {comp_max:.2e}, "
        f"plus/minus off 1 by {pm_dev:.2e} (tol 1e-10)"
    )
    return ok, details


def criterion_invariants() -> tuple[bool, str]:
    """Spectra, probabilities, profiles and deviations behave under the stated symmetries."""
    dims = (2, 2, 2, 2)
    worst_spectrum = 0.0
    worst_born = 0.0
    worst_profile = 0.0
    worst_deviation = 0.0
    fingerprint_ok = True
    for k in range(50):
        rng = np.random.default_rng([8, k])
        s = random_state(dims, rng)

        for pair in PAIRS:
            a = np.linalg.eigvalsh(partial_trace(s, pair_parties(pair)))
            b = np.linalg.eigvalsh(partial_trace(s, pair_parties(complement(pair))))
            worst_spectrum = max(worst_spectrum, float(np.max(np.abs(a - b))))

        party = int(rng.integers(4))
        basis = random_basis(party, 2, rng)
        total = math.fsum(o.probability for o in measure(s, basis))
        worst_born = max(worst_born, abs(total - 1.0))

        rotated = s
        for p in range(4):
            rotated = apply_local_unitary(rotated, p, random_unitary(2, rng))
        pa = profile(s)
        pb = profile(rotated)
        worst_profile = max(
            worst_profile,
            max(abs(pa.entries[q] - pb.entries[q]) for q in PAIRS),
        )
        worst_deviation = max(
            worst_deviation,
            abs(ame_mod.ame_deviation(s).total - ame_mod.ame_deviation(rotated).total),
        )

        other = random_state(dims, np.random.default_rng([8, k, 1]))
        pc = profile(other)
        if not fingerprint_match(pa, pa):
            fingerprint_ok = False
        if fingerprint_match(pa, pc) != fingerprint_match(pc, pa):
            fingerprint_ok = False

    ok = (
        worst_spectrum < 1e-10
        and worst_born < 1e-12
        and worst_profile < 1e-10
        and worst_deviation < 1e-10
        and fingerprint_ok
    )
    details = (
        f"complement spectrum dev {worst_spectrum:.2e} (tol 1e-10), "
        f"Born completeness dev {worst_born:.2e} (tol 1e-12), "
        f"LU profile dev {worst_profile:.2e}, LU deviation dev {worst_deviation:.2e} "
        f"(tol 1e-10), fingerprint reflexive/symmetric: {fingerprint_ok}"
    )
    return ok, details


_CRITERIA = (
    (1, "entropy-profiles", criterion_entropy_profiles, 1.0),
    (2, "pair-spectrum", criterion_pair_spectrum, 1.0),
    (3, "stationarity", criterion_stationarity, 10.0),
    (4, "search", criterion_search, 120.0),
    (5, "deviation-floor", criterion_deviation_floor, 300.0),
    (6, "canonical-form", criterion_canonical_form, 60.0),
    (7, "robustness", criterion_robustness, 30.0),
    (8, "invariants", criterion_invariants, 60.0),
)


def criteria_names() -> tuple:
    return tuple(name for _, name, _, _ in _CRITERIA)


def run_one(number: int) -> CriterionResult:
    for num, name, fn, budget in _CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, details = fn()
            elapsed = time.perf_counter() - start
            if elapsed > budget:
                passed = False
                details += f"; OVER BUDGET {elapsed:.1f}s > {budget:.0f}s"
            return CriterionResult(num, name, passed, details, elapsed, budget)
    raise ValueError(f"no criterion numbered {number}")


def run_all() -> list:
    return [run_one(num) for num, _, _, _ in _CRITERIA]
