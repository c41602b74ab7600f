"""The one multi-start driver behind ``maximize`` and ``minimize_deviation``."""

import functools
import itertools
import math
import types

import numpy as np
import pytest

from quartet import ascent
from quartet.ame import deviation_value_and_gradient_raw, deviation_value_raw, minimize_deviation
from quartet.ascent import (
    RestartRecord,
    ascend,
    haar_starts,
    maximize,
    multistart,
    value_and_gradient_raw,
)
from quartet.catalog import make
from quartet.core import DomainError, PureState
from quartet.entropy import pair_entropies

# Every pair entropy of |M4>: each pair reduction has spectrum (1/2, 1/6, 1/6, 1/6).
M4_PAIR_ENTROPY = 1.0 + 0.5 * math.log2(3.0)

DIMS = (2, 2, 2, 2)
STOP_REASONS = {"converged", "line_search_failed", "max_iters"}


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
    records, states = [], []
    for r, amps0 in enumerate(_sequential_starts(16, restarts, seed)):
        amps, outcome = ascend(lambda a: value_and_gradient_raw(a, DIMS), amps0,
                               max_iters=max_iters)
        state = PureState(DIMS, amps)
        residual = max(abs(v - M4_PAIR_ENTROPY) for v in pair_entropies(state).values())
        records.append((r, outcome.value, outcome.grad_norm, outcome.iterations,
                        outcome.converged, residual))
        states.append(state)
    best = max(range(len(records)), key=lambda i: (records[i][1], -i))
    return records, states[best], best


def _sequential_minimize(dims, restarts, seed, max_iters):
    def value_grad_fn(a):
        v, g = deviation_value_and_gradient_raw(a, dims)
        return -v, -g

    records, best = [], None
    for r, amps0 in enumerate(_sequential_starts(math.prod(dims), restarts, seed)):
        amps, outcome = ascend(value_grad_fn, amps0, max_iters=max_iters)
        value = -outcome.value
        records.append((r, value, outcome.grad_norm, outcome.iterations, outcome.converged))
        if best is None or value < best[0]:
            best = (value, amps, outcome)
    return records, best[1], best[2]


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
    records, best_amps, best = _sequential_minimize(dims, restarts, seed, max_iters)
    assert repr([_fields(r) for r in report.restarts]) == repr(records)
    assert report.floor == -best.value
    assert (report.grad_norm, report.iterations, report.converged) == (
        best.grad_norm, best.iterations, best.converged)
    assert report.state.amps.tobytes() == best_amps.tobytes()


def test_both_searches_share_one_record_type():
    high = maximize(restarts=1, max_iters=5)
    low = minimize_deviation((2, 2), restarts=1, max_iters=5)
    for record in high.restarts + low.restarts:
        assert type(record) is RestartRecord
        assert record.stop_reason in STOP_REASONS
        assert record.converged == (record.stop_reason == "converged")


def _phase_gradient(size, values):
    """An objective whose gradient has norm ``size`` along the phase direction i*a.

    Moving along it changes no state, so only ``values``, one per call,
    decide each trial.
    """
    def value_grad(amps, dims=None):
        return next(values), 1j * size * amps
    return value_grad


def _flat(size):
    """A constant value: every trial ties and keeps its slope."""
    return _phase_gradient(size, itertools.repeat(1.0))


def _falling(size):
    """A value that falls by 1 at every call: every trial is refused."""
    return _phase_gradient(size, itertools.count(0.0, -1.0))


@pytest.mark.parametrize("reason, run, restart", [
    ("converged", lambda: maximize(restarts=0, start=make("C4")), 0),
    ("max_iters", lambda: maximize(restarts=1, seed=0, max_iters=1), 0),
    ("line_search_failed", lambda: types.SimpleNamespace(restarts=multistart(
        _falling(1e-6), DIMS, restarts=2, seed=0, max_iters=500, grad_tol=1e-8)[0]), 1),
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
    # ties and keeps its slope, so the run takes steps until max_iters unless
    # the tolerance already counts it converged.
    start = make("C4").amps
    _, flat = ascend(_flat(1e-9), start, grad_tol=1e-12, max_iters=20)
    assert (flat.stop_reason, flat.converged, flat.iterations, flat.evaluations) == (
        "max_iters", False, 20, 21)
    _, settled = ascend(_flat(1e-9), start, grad_tol=1e-6, max_iters=20)
    assert (settled.stop_reason, settled.converged, settled.iterations) == ("converged", True, 0)
    _, refused = ascend(_falling(1e-9), start, grad_tol=1e-12)
    assert (refused.stop_reason, refused.converged) == ("line_search_failed", False)


def test_starts_are_drawn_when_their_restart_runs(monkeypatch):
    draws, drawn_before_each_descent = [], []
    real_rng = np.random.default_rng

    def counting_rng(seed):
        draws.append(seed)
        return real_rng(seed)

    def recording_ascend(value_grad_fn, amps0, **kwargs):
        drawn_before_each_descent.append(len(draws))
        return np.asarray(amps0), RestartRecord(0, 0.0, 0.0, 0, True, "converged", 1, 0, 0)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    first = next(haar_starts(DIMS, 10**12, 7))
    assert draws == [[7, 0]]
    assert first.tobytes() == _sequential_starts(16, 1, 7)[0].tobytes()

    draws.clear()
    monkeypatch.setattr(ascent, "ascend", recording_ascend)
    multistart(value_and_gradient_raw, DIMS, restarts=3, seed=7, max_iters=10, grad_tol=1e-8)
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


@pytest.mark.parametrize("search, dims", [
    (maximize, DIMS),
    (functools.partial(minimize_deviation, (2, 2)), (2, 2)),
], ids=["maximize", "minimize_deviation"])
@pytest.mark.filterwarnings("error")
def test_a_zero_start_is_rejected_before_any_start_runs(monkeypatch, search, dims):
    def forbidden(*args, **kwargs):
        raise AssertionError("a start was drawn or a search ran")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(ascent, "ascend", forbidden)
    for restarts in (0, 2):
        with pytest.raises(DomainError, match="start"):
            search(restarts=restarts, start=PureState(dims, np.zeros(math.prod(dims))))


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
    for dims in ((2.5, 2.5), (2.0,) * 4):
        with pytest.raises(DomainError, match="local dimension"):
            minimize_deviation(dims, restarts=1)
    with pytest.raises(AssertionError, match="allocated"):
        minimize_deviation((side,) * 4, restarts=1)


def test_every_criterion_5_restart_converges_on_the_floor():
    records, finals, _ = multistart(deviation_value_and_gradient_raw, DIMS, restarts=50, seed=0,
                                    max_iters=5000, grad_tol=1e-8, minimize=True)
    for record, amps in zip(records, finals):
        assert (record.stop_reason, record.converged) == ("converged", True)
        assert abs(record.value - 4.0) <= 1e-9
        assert (record.skipped_pairs, record.memory_resets) == (0, 0)
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
    calls = []

    def value_grad(amps, dims):
        calls.append(None)
        return deviation_value_and_gradient_raw(amps, dims)

    # Each of seed 2's first three descents rejects at least one trial.
    records, _, _ = multistart(value_grad, DIMS, restarts=3, seed=2, max_iters=5000,
                               grad_tol=1e-8, minimize=True)
    assert len(calls) == sum(r.evaluations for r in records)
    # The start, one accepted trial per iteration, and the rejected trials.
    assert all(r.evaluations > r.iterations + 1 for r in records)


def test_every_iteration_stores_or_skips_one_curvature_pair(monkeypatch):
    pushed = []
    real_push = ascent._CurvaturePairs.push

    def recording_push(self, step, fall, curvature):
        pushed.append(curvature)
        real_push(self, step, fall, curvature)

    monkeypatch.setattr(ascent._CurvaturePairs, "push", recording_push)
    records = maximize(seed=0).restarts
    skipped = sum(r.skipped_pairs for r in records)
    assert len(pushed) + skipped == sum(r.iterations for r in records)
    assert all(curvature > 0 for curvature in pushed)
    # Seed 0's ascents meet pairs with Re<s, y> <= 0, and every direction ascends.
    assert skipped > 0
    assert [r.memory_resets for r in records] == [0] * 20


def test_a_direction_that_does_not_ascend_clears_the_memory(monkeypatch):
    monkeypatch.setattr(ascent, "_lbfgs_direction", lambda grad, pairs: -grad)
    start = next(haar_starts(DIMS, 1, 0))
    _, outcome = ascend(lambda a: value_and_gradient_raw(a, DIMS), start, max_iters=10)
    # Every iteration after the first finds the pair of the one before and clears it.
    assert (outcome.iterations, outcome.skipped_pairs, outcome.memory_resets) == (10, 0, 9)


def test_maximize_makes_one_eigh_per_evaluation_and_no_eigvalsh_in_its_search(monkeypatch):
    shapes = {"eigh": [], "eigvalsh": []}
    for name, found in shapes.items():
        def counted(a, *args, _found=found, _original=getattr(np.linalg, name), **kwargs):
            _found.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report = maximize(restarts=3, seed=0)
    assert shapes["eigh"] == [(3, 4, 4)] * sum(r.evaluations for r in report.restarts)
    # Only the residuals read spectra with eigvalsh: every final state's six pairs at once.
    assert shapes["eigvalsh"] == [(3, 6, 4, 4)]


def test_deviation_descent_never_rises_by_more_than_the_tie():
    # Both of seed 7's first two descents accept a rise.
    starts = list(haar_starts(DIMS, 2, 7))
    rises = 0
    for record in minimize_deviation(DIMS, restarts=2, seed=7).restarts:
        start = PureState(DIMS, starts[record.restart])
        # Capping a descent at k iterations returns its k-th accepted point.
        floors = [deviation_value_raw(start.amps, DIMS)] + [
            minimize_deviation(DIMS, restarts=0, start=start, max_iters=k).floor
            for k in range(1, record.iterations + 1)
        ]
        assert floors[-1] == record.value
        for before, after in zip(floors, floors[1:]):
            assert after - before <= ascent.TIE_ULPS * math.ulp(before)
            rises += after > before
    # A step that rises fails the Armijo test, so only the tie test accepted it.
    assert rises


@pytest.mark.parametrize("fall_ulps, reversal, reason, evaluations", [
    (16, 1.0, "max_iters", 2),
    (17, 1.0, "line_search_failed", 41),
    (16, -0.75, "max_iters", 2),
    (16, -0.85, "line_search_failed", 41),
], ids=["tie-kept-slope", "fall-past-the-tie", "tie-mild-reversal", "tie-steep-reversal"])
def test_a_tied_trial_is_judged_by_its_slope(fall_ulps, reversal, reason, evaluations):
    # Every trial falls fall_ulps below the start's value 1.  The gradient lies
    # along the phase direction; after the start it is scaled by ``reversal``,
    # so the slope at a trial is about reversal times the initial slope.
    calls = []

    def value_grad(amps):
        calls.append(None)
        if len(calls) == 1:
            return 1.0, 1e-6j * amps
        return 1.0 - fall_ulps * math.ulp(1.0), reversal * 1e-6j * amps

    _, outcome = ascend(value_grad, make("C4").amps, max_iters=1)
    assert outcome.stop_reason == reason
    assert outcome.evaluations == len(calls) == evaluations
    # A refused search rejects each of its 40 trials, from step 1 down to MIN_STEP.
    assert outcome.evaluations - outcome.iterations - 1 == (0 if reason == "max_iters" else 40)
