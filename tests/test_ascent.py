"""Entropy objective, analytic gradient, and the sphere-ascent search."""

import math

import numpy as np
import pytest

from quartet.ascent import (
    ascend,
    avg_entropy_raw,
    maximize,
    stationarity_report,
    value_and_gradient_raw,
)
from quartet.catalog import make
from quartet.core import DomainError, PureState, random_state
from quartet.entropy import profile

TARGET = 1.0 + 0.5 * math.log2(3.0)
DIMS = (2, 2, 2, 2)


def test_objective_matches_profile_average():
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = random_state(DIMS, rng)
        assert avg_entropy_raw(s.amps, DIMS) == pytest.approx(profile(s).average, abs=1e-12)


def test_objective_requires_four_qubits():
    with pytest.raises(DomainError):
        profile(make("C3"))
    with pytest.raises(DomainError):
        stationarity_report(make("C3"))


def _fd_gradient(amps, h=1e-5):
    g = np.zeros(amps.size, dtype=complex)
    for i in range(amps.size):
        for unit in (1.0, 1j):
            plus = amps.copy()
            minus = amps.copy()
            plus[i] += unit * h
            minus[i] -= unit * h
            diff = (avg_entropy_raw(plus, DIMS) - avg_entropy_raw(minus, DIMS)) / (2 * h)
            g[i] += unit * diff
    return g


def test_gradient_matches_finite_differences():
    for k in range(5):
        s = random_state(DIMS, np.random.default_rng([60, k]))
        _, analytic = value_and_gradient_raw(s.amps, DIMS)
        fd = _fd_gradient(np.array(s.amps))
        for ga, gf in zip(analytic, fd):
            err = abs(ga - gf)
            if abs(ga) >= 1e-8:
                err /= abs(ga)
            assert err < 1e-5


def test_value_and_gradient_share_one_pass():
    s = random_state(DIMS, np.random.default_rng(61))
    value, grad = value_and_gradient_raw(s.amps, DIMS)
    assert value == pytest.approx(avg_entropy_raw(s.amps, DIMS), abs=1e-14)
    tangent = grad - np.real(np.vdot(s.amps, grad)) * s.amps
    report = stationarity_report(s)
    assert report["value"] == value
    assert report["tangent_grad_norm"] == pytest.approx(np.linalg.norm(tangent), abs=1e-12)


def test_tangent_gradient_is_orthogonal():
    rng = np.random.default_rng(62)
    for _ in range(10):
        s = random_state(DIMS, rng)
        _, g = value_and_gradient_raw(s.amps, DIMS)
        tangent = g - np.real(np.vdot(s.amps, g)) * s.amps
        assert abs(np.real(np.vdot(s.amps, tangent))) < 1e-12


def test_m4_is_stationary():
    report = stationarity_report(make("M4"))
    assert report["value"] == pytest.approx(TARGET, abs=1e-12)
    assert report["tangent_grad_norm"] < 1e-8
    # radial part of the raw gradient at a normalized state: 2*value - 2/ln 2
    expected_radial = 2.0 * TARGET - 2.0 / math.log(2.0)
    assert report["radial_coefficient"] == pytest.approx(expected_radial, abs=1e-10)


def test_cat_state_is_also_stationary():
    # the clamped objective has zero tangent gradient at |C4| as well; ascent
    # cannot leave it, which is why the search relies on random starts
    report = stationarity_report(make("C4"))
    assert report["tangent_grad_norm"] < 1e-8
    outcome = ascend(
        lambda a: avg_entropy_raw(a, DIMS),
        lambda a: value_and_gradient_raw(a, DIMS),
        make("C4").amps,
        max_iters=50,
    )
    assert outcome.value == pytest.approx(1.0, abs=1e-10)
    assert outcome.converged


def test_stationarity_requires_normalized_four_qubits():
    with pytest.raises(DomainError):
        stationarity_report(PureState(DIMS, np.ones(16)))
    with pytest.raises(DomainError):
        stationarity_report(make("C3"))


def test_ascent_accepted_values_monotone():
    seen = []

    def instrumented(a):
        value, grad = value_and_gradient_raw(a, DIMS)
        seen.append(value)
        return value, grad

    s = random_state(DIMS, np.random.default_rng(63))
    outcome = ascend(
        lambda a: avg_entropy_raw(a, DIMS), instrumented, s.amps, max_iters=400
    )
    assert len(seen) >= 2
    for a, b in zip(seen, seen[1:]):
        assert b - a >= -1e-12
    assert outcome.value == pytest.approx(seen[-1], abs=1e-14)


def test_ascend_from_near_optimum_converges():
    rng = np.random.default_rng(64)
    noise = 1e-3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    start = make("M4").amps + noise
    outcome = ascend(
        lambda a: avg_entropy_raw(a, DIMS),
        lambda a: value_and_gradient_raw(a, DIMS),
        start,
    )
    assert outcome.value == pytest.approx(TARGET, abs=1e-9)


def test_maximize_default_run_reaches_target():
    report = maximize(seed=0, restarts=6, max_iters=4000)
    assert abs(report.best_value - TARGET) < 1e-6
    best = report.restarts[report.best_restart]
    assert best.value == report.best_value
    assert report.classifications[report.best_restart] == "MATCHES_M4_PROFILE"
    assert profile(report.best_state).average == pytest.approx(report.best_value, abs=1e-12)


def test_maximize_is_reproducible():
    a = maximize(seed=5, restarts=3, max_iters=500)
    b = maximize(seed=5, restarts=3, max_iters=500)
    assert a.best_value == b.best_value
    assert a.best_restart == b.best_restart
    for ra, rb in zip(a.restarts, b.restarts):
        assert ra.value == rb.value
        assert ra.grad_norm == rb.grad_norm
        assert ra.iterations == rb.iterations
    assert np.array_equal(a.best_state.amps, b.best_state.amps)


def test_maximize_explicit_start_prepended():
    report = maximize(seed=0, restarts=1, max_iters=200, start=make("M4"))
    assert len(report.restarts) == 2
    assert report.restarts[0].iterations == 0
    assert report.restarts[0].converged
    assert report.best_value >= TARGET - 1e-9


def test_maximize_validation():
    for kwargs in ({"restarts": 0}, {"max_iters": 0}, {"grad_tol": 0.0},
                   {"grad_tol": float("nan")}, {"restarts": 2.5}, {"restarts": True}):
        with pytest.raises(DomainError):
            maximize(**kwargs)


def test_classification_separates_other_profiles():
    # a run stopped immediately at a product state keeps the OTHER label
    report = maximize(seed=0, restarts=1, max_iters=1, start=PureState(DIMS, np.eye(16)[0]))
    assert report.classifications[0] == "OTHER"
