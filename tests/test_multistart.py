"""The one multi-start driver behind ``maximize`` and ``minimize_deviation``."""

import collections
import functools
import math
import types

import numpy as np
import pytest

from quartet import ascent
from quartet.ame import deviation_value_and_gradient_raw, deviation_value_raw, minimize_deviation
from quartet.ascent import (
    AscentOutcome,
    RestartRecord,
    ascend,
    avg_entropy_raw,
    haar_starts,
    maximize,
    multistart,
    value_and_gradient_raw,
)
from quartet.catalog import make
from quartet.core import DomainError, PureState
from quartet.entropy import fingerprint_residual, profile

DIMS = (2, 2, 2, 2)
STOP_REASONS = {"converged", "line_search_failed", "stalled_at_resolution", "max_iters"}


# A test-only copy of the two restart loops the driver replaced, each calling
# ``ascend`` through its own wrappers.  It is the oracle for the driver.


def _sequential_starts(n_amps, restarts, seed):
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        z = rng.standard_normal(n_amps) + 1j * rng.standard_normal(n_amps)
        starts.append(z / np.linalg.norm(z))
    return starts


def _sequential_maximize(seed, restarts, max_iters):
    fingerprint = profile(make("M4")).sorted_entries()
    records, states = [], []
    for r, amps0 in enumerate(_sequential_starts(16, restarts, seed)):
        outcome = ascend(
            lambda a: avg_entropy_raw(a, DIMS),
            lambda a: value_and_gradient_raw(a, DIMS),
            amps0,
            max_iters=max_iters,
        )
        state = PureState(DIMS, outcome.amps)
        residual = fingerprint_residual(profile(state), fingerprint)
        records.append((r, outcome.value, outcome.grad_norm, outcome.iterations,
                        outcome.converged, residual))
        states.append(state)
    best = max(range(len(records)), key=lambda i: (records[i][1], -i))
    return records, states[best], best


def _sequential_minimize(dims, restarts, seed, max_iters):
    def value_fn(a):
        return -deviation_value_raw(a, dims)

    def value_grad_fn(a):
        v, g = deviation_value_and_gradient_raw(a, dims)
        return -v, -g

    records, best = [], None
    for r, amps0 in enumerate(_sequential_starts(math.prod(dims), restarts, seed)):
        outcome = ascend(value_fn, value_grad_fn, amps0, max_iters=max_iters)
        value = -outcome.value
        records.append((r, value, outcome.grad_norm, outcome.iterations, outcome.converged))
        if best is None or value < best[0]:
            best = (value, outcome)
    return records, best[1]


def _fields(record):
    return (record.restart, record.value, record.grad_norm, record.iterations, record.converged)


@pytest.mark.parametrize("seed", [0, 1])
def test_maximize_matches_the_sequential_loop_bitwise(seed):
    report = maximize(seed=seed, restarts=3, max_iters=500)
    records, best_state, best = _sequential_maximize(seed, 3, 500)
    found = [(*_fields(r), residual)
             for r, residual in zip(report.restarts, report.fingerprint_residuals)]
    # repr tells floats apart by their bits, signed zeros included.
    assert repr(found) == repr(records)
    assert report.best_restart == best
    assert report.best_value == records[best][1]
    assert report.best_grad_norm == records[best][2]
    assert report.best_state.amps.tobytes() == best_state.amps.tobytes()


@pytest.mark.parametrize("dims, restarts, seed, max_iters", [
    ((2, 2), 3, 4, 500),
    (DIMS, 3, 4, 500),
    (DIMS, 5, 0, 5000),
], ids=["qubit-pair", "four-qubits-capped", "four-qubits"])
def test_minimize_deviation_matches_the_sequential_loop_bitwise(dims, restarts, seed, max_iters):
    report = minimize_deviation(dims, restarts=restarts, seed=seed, max_iters=max_iters)
    records, best = _sequential_minimize(dims, restarts, seed, max_iters)
    assert repr([_fields(r) for r in report.restarts]) == repr(records)
    assert report.floor == -best.value
    assert (report.grad_norm, report.iterations, report.converged) == (
        best.grad_norm, best.iterations, best.converged)
    assert report.state.amps.tobytes() == best.amps.tobytes()


def test_both_searches_share_one_record_type():
    high = maximize(restarts=1, max_iters=5)
    low = minimize_deviation((2, 2), restarts=1, max_iters=5)
    for record in high.restarts + low.restarts:
        assert type(record) is RestartRecord
        assert record.stop_reason in STOP_REASONS
        assert record.converged == (record.stop_reason == "converged")


def _phase_gradient(size):
    """A gradient of norm ``size`` along the phase direction i*a at every normalized a.

    Moving along it changes no value, so a search on a constant objective keeps
    taking tied steps.
    """
    def value_grad(amps, dims=None):
        return 1.0, 1j * size * amps
    return value_grad


def _hand_built(value, restarts):
    """Records of a multi-start run on a constant objective with a phase gradient of 1e-6."""
    records, _, _ = multistart(lambda amps, dims: value, _phase_gradient(1e-6), DIMS,
                               restarts=restarts, seed=0, max_iters=500, grad_tol=1e-8)
    return types.SimpleNamespace(restarts=records)


@pytest.mark.parametrize("reason, run, restart", [
    ("converged", lambda: maximize(restarts=0, start=make("C4")), 0),
    ("max_iters", lambda: maximize(restarts=1, seed=0, max_iters=1), 0),
    # Every trial value lies below the value the gradient call reported.
    ("line_search_failed", lambda: _hand_built(0.0, restarts=2), 1),
    # Every trial ties the current value exactly.
    ("stalled_at_resolution", lambda: _hand_built(1.0, restarts=1), 0),
])
def test_each_stop_reason_is_reported(reason, run, restart):
    record = run().restarts[restart]
    assert record.stop_reason == reason
    assert record.converged == (reason == "converged")
    if reason == "converged":
        assert record.grad_norm < 1e-8 and record.iterations == 0
    else:
        assert record.grad_norm >= 1e-8
    if reason == "max_iters":
        assert record.iterations == 1


def test_stop_reason_follows_the_final_gradient_at_every_exit():
    # A flat objective whose gradient is tiny but above tolerance: every trial
    # step ties, and the run stalls after 50 tied steps unless the tolerance
    # already counts it converged.
    flat = _phase_gradient(1e-9)
    start = make("C4").amps
    stalled = ascend(lambda a: 1.0, flat, start, grad_tol=1e-12)
    assert (stalled.stop_reason, stalled.converged, stalled.iterations) == (
        "stalled_at_resolution", False, 50)
    settled = ascend(lambda a: 1.0, flat, start, grad_tol=1e-6)
    assert (settled.stop_reason, settled.converged, settled.iterations) == ("converged", True, 0)
    refused = ascend(lambda a: 0.0, flat, start, grad_tol=1e-12)
    assert (refused.stop_reason, refused.converged) == ("line_search_failed", False)


def test_starts_are_drawn_when_their_restart_runs(monkeypatch):
    draws, drawn_before_each_descent = [], []
    real_rng = np.random.default_rng

    def counting_rng(seed):
        draws.append(seed)
        return real_rng(seed)

    def recording_ascend(value_fn, value_grad_fn, amps0, **kwargs):
        drawn_before_each_descent.append(len(draws))
        return AscentOutcome(np.asarray(amps0), 0.0, 0.0, 0, True, "converged", 0, 1)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    first = next(haar_starts(DIMS, 10**12, 7))
    assert draws == [[7, 0]]
    assert first.tobytes() == _sequential_starts(16, 1, 7)[0].tobytes()

    draws.clear()
    monkeypatch.setattr(ascent, "ascend", recording_ascend)
    multistart(avg_entropy_raw, value_and_gradient_raw, DIMS, restarts=3, seed=7,
               max_iters=10, grad_tol=1e-8)
    assert drawn_before_each_descent == [1, 2, 3]


@pytest.mark.parametrize("search, dims", [
    (maximize, DIMS),
    (functools.partial(minimize_deviation, (2, 2)), (2, 2)),
], ids=["maximize", "minimize_deviation"])
def test_one_restart_rule_for_both_searches(monkeypatch, search, dims):
    start = PureState(dims, np.eye(math.prod(dims))[0])
    assert len(search(restarts=0, start=start, max_iters=1).restarts) == 1

    def forbidden(*args, **kwargs):
        raise AssertionError("a start was drawn or a descent ran")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(ascent, "ascend", forbidden)
    for kwargs in ({"restarts": 0}, {"restarts": -1, "start": start}, {"restarts": 2.5},
                   {"restarts": True}, {"restarts": "3"}, {"seed": -1}, {"seed": 1.5},
                   {"max_iters": 0}, {"grad_tol": float("nan")}, {"grad_tol": float("inf")}):
        with pytest.raises(DomainError):
            search(**kwargs)


def test_amplitude_bound_fires_before_any_start_is_allocated(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a start was allocated")

    monkeypatch.setattr(ascent, "random_state", forbidden)
    monkeypatch.setattr(ascent, "ascend", forbidden)
    side = round(ascent.MAX_AMPLITUDES ** 0.25)
    assert side**4 == ascent.MAX_AMPLITUDES
    for dims in ((side + 1,) * 4, (1000,) * 4, (2**20, 2**20)):
        with pytest.raises(DomainError, match="amplitudes"):
            minimize_deviation(dims, restarts=1)
    with pytest.raises(AssertionError, match="allocated"):
        minimize_deviation((side,) * 4, restarts=1)


def test_every_criterion_5_restart_converges_on_the_floor():
    records, finals, _ = multistart(
        deviation_value_raw, deviation_value_and_gradient_raw, DIMS, restarts=50, seed=0,
        max_iters=5000, grad_tol=1e-8, minimize=True,
    )
    for record, amps in zip(records, finals):
        assert (record.stop_reason, record.converged) == ("converged", True)
        assert abs(record.value - 4.0) <= 1e-9
        _, g = deviation_value_and_gradient_raw(amps, DIMS)
        assert np.linalg.norm(g - np.real(np.vdot(amps, g)) * amps) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_maximize_restart_converges_on_the_m4_profile(seed):
    report = maximize(seed=seed)
    assert [r.stop_reason for r in report.restarts] == ["converged"] * 20
    assert report.classifications == ["MATCHES_M4_PROFILE"] * 20


@pytest.mark.parametrize("search, state", [
    (lambda: maximize(restarts=4, seed=3), "best_state"),
    (lambda: minimize_deviation(DIMS, restarts=4, seed=3), "state"),
], ids=["maximize", "minimize_deviation"])
def test_seeded_reruns_are_bitwise_identical(search, state):
    first, again = search(), search()
    # repr tells floats apart by their bits and includes the evaluation counts.
    assert repr(first.restarts) == repr(again.restarts)
    assert getattr(first, state).amps.tobytes() == getattr(again, state).amps.tobytes()


def test_restart_records_count_every_evaluation():
    calls = collections.Counter()

    def value(amps, dims):
        calls["value"] += 1
        return deviation_value_raw(amps, dims)

    def value_grad(amps, dims):
        calls["gradient"] += 1
        return deviation_value_and_gradient_raw(amps, dims)

    records, _, _ = multistart(value, value_grad, DIMS, restarts=3, seed=0, max_iters=5000,
                               grad_tol=1e-8, minimize=True)
    assert calls == {"value": sum(r.value_evals for r in records),
                     "gradient": sum(r.gradient_evals for r in records)}


def test_deviation_descent_never_rises_by_more_than_the_tie():
    # More value-and-gradient calls than accepted points means a trial tied.
    starts = list(haar_starts(DIMS, 10, 0))
    tied = [r for r in minimize_deviation(DIMS, restarts=10, seed=0).restarts
            if r.gradient_evals > r.iterations + 1]
    assert tied
    for record in tied[:2]:
        start = PureState(DIMS, starts[record.restart])
        # Capping a descent at k iterations returns its k-th accepted point.
        floors = [deviation_value_raw(start.amps, DIMS)] + [
            minimize_deviation(DIMS, restarts=0, start=start, max_iters=k).floor
            for k in range(1, record.iterations + 1)
        ]
        assert floors[-1] == record.value
        for before, after in zip(floors, floors[1:]):
            assert after - before <= ascent.TIE_ULPS * math.ulp(before)


@pytest.mark.parametrize("fall_ulps, reversal, reason, evals", [
    (16, 1.0, "max_iters", (1, 2)),
    (17, 1.0, "line_search_failed", (40, 1)),
    (16, -0.75, "max_iters", (1, 2)),
    (16, -0.85, "line_search_failed", (40, 41)),
], ids=["tie-kept-slope", "fall-past-the-tie", "tie-mild-reversal", "tie-steep-reversal"])
def test_a_tied_trial_is_judged_by_its_slope(fall_ulps, reversal, reason, evals):
    # Every trial falls fall_ulps below the start's value 1.  The gradient lies
    # along the phase direction; after the start it is scaled by ``reversal``,
    # so the slope at a trial is about reversal times the initial slope.
    calls = []

    def value_grad(amps):
        calls.append(None)
        return 1.0, (1.0 if len(calls) == 1 else reversal) * 1e-6j * amps

    outcome = ascend(lambda amps: 1.0 - fall_ulps * math.ulp(1.0), value_grad,
                     make("C4").amps, max_iters=1)
    assert outcome.stop_reason == reason
    assert (outcome.value_evals, outcome.gradient_evals) == evals
