"""Entropy objective, analytic gradient, and the sphere-ascent search."""

import math

import numpy as np
import pytest

from quartet.ascent import (
    MEMORY,
    _CurvaturePairs,
    _lbfgs_direction,
    ascend,
    maximize,
    stationarity_report,
    value_and_gradient_raw,
)
from quartet.catalog import make
from quartet.core import DomainError, PureState, random_state
from quartet.entropy import profile

TARGET = 1.0 + 0.5 * math.log2(3.0)
DIMS = (2, 2, 2, 2)


def value_grad(amps):
    return value_and_gradient_raw(amps, DIMS)


def value(amps):
    return value_grad(amps)[0]


def test_objective_matches_profile_average():
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = random_state(DIMS, rng)
        assert value(s.amps) == pytest.approx(profile(s).average, abs=1e-12)


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
            diff = (value(plus) - value(minus)) / (2 * h)
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
    found, grad = value_grad(s.amps)
    assert found == pytest.approx(profile(s).average, abs=1e-12)
    tangent = grad - np.real(np.vdot(s.amps, grad)) * s.amps
    report = stationarity_report(s)
    assert report["value"] == found
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
    _, outcome = ascend(value_grad, make("C4").amps, max_iters=50)
    assert outcome.value == pytest.approx(1.0, abs=1e-10)
    assert outcome.converged


def test_stationarity_requires_normalized_four_qubits():
    with pytest.raises(DomainError):
        stationarity_report(PureState(DIMS, np.ones(16)))
    with pytest.raises(DomainError):
        stationarity_report(make("C3"))


def test_ascent_accepted_values_monotone():
    s = random_state(DIMS, np.random.default_rng(63))
    _, outcome = ascend(value_grad, s.amps, max_iters=400)
    # Capping an ascent at k iterations returns its k-th accepted point.
    seen = [ascend(value_grad, s.amps, max_iters=k)[1].value
            for k in range(outcome.iterations + 1)]
    assert len(seen) >= 2
    for a, b in zip(seen, seen[1:]):
        assert b - a >= -1e-12
    assert outcome.value == seen[-1]


def test_ascend_from_near_optimum_converges():
    rng = np.random.default_rng(64)
    noise = 1e-3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    start = make("M4").amps + noise
    _, outcome = ascend(value_grad, start)
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


# The L-BFGS direction and its memory of curvature pairs.


def _two_loop(grad, pairs):
    """Reference: the two-loop recursion over (s, y, 1 / s.y) tuples, oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    _, y, rho = pairs[-1]
    r = q / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * (y @ r)) * s
    return r


def _quadratic_pairs(count, n=32):
    """``count`` pairs (s, A s) of one positive-definite A, so that s.y > 0, and a gradient."""
    rng = np.random.default_rng([count, n])
    b = rng.standard_normal((n, n))
    a = b @ b.T + np.eye(n)
    return [(s, a @ s) for s in rng.standard_normal((count, n))], rng.standard_normal(n)


def _remembered(pairs, n=32):
    memory = _CurvaturePairs(n)
    for s, y in pairs:
        memory.push(s, y, s @ y)
    return memory


def _relative_error(found, expected):
    return np.linalg.norm(found - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("pushes", [1, 2, MEMORY, MEMORY + 3])
def test_direction_matches_the_two_loop_recursion(pushes):
    pairs, grad = _quadratic_pairs(pushes)
    expected = _two_loop(grad, [(s, y, 1.0 / (s @ y)) for s, y in pairs[-MEMORY:]])
    assert _relative_error(_lbfgs_direction(grad, _remembered(pairs)), expected) <= 1e-12


@pytest.mark.parametrize("pushes", [1, 2, MEMORY, MEMORY + 3])
def test_direction_maps_the_newest_fall_to_the_newest_step(pushes):
    # The secant condition H y = s holds exactly for the newest pair of an L-BFGS estimate.
    pairs, _ = _quadratic_pairs(pushes)
    s, y = pairs[-1]
    assert _relative_error(_lbfgs_direction(y, _remembered(pairs)), s) <= 1e-12


def _assert_window_holds(memory, kept):
    """The memory's window holds the pairs ``kept``, oldest first, with their gamma and R^-1."""
    window = memory.window()
    steps, falls = memory.steps[window], memory.falls[window]
    assert memory.count == len(kept)
    assert np.array_equal(steps, [s for s, _ in kept])
    assert np.array_equal(falls, [y for _, y in kept])
    assert memory.gamma == kept[-1][0] @ kept[-1][1] / (kept[-1][1] @ kept[-1][1])
    r = np.triu(steps @ falls.T)
    assert _relative_error(memory.r_inv[window, window], np.linalg.inv(r)) <= 1e-12


def test_memory_keeps_the_last_pairs_oldest_first():
    pairs, _ = _quadratic_pairs(MEMORY + 3)
    _assert_window_holds(_remembered(pairs), pairs[3:])


def test_memory_window_slides_to_the_front_of_its_buffer():
    # The buffer holds 2 MEMORY rows.  Push 2 MEMORY + 1 finds it full and slides
    # the newest MEMORY - 1 pairs to the front; push 3 MEMORY + 2 slides again.
    pairs, _ = _quadratic_pairs(3 * MEMORY + 2)
    memory = _CurvaturePairs(len(pairs[0][0]))
    slides = 0
    for k, (s, y) in enumerate(pairs, 1):
        end = memory.end
        memory.push(s, y, s @ y)
        slides += memory.end < end
        _assert_window_holds(memory, pairs[max(0, k - MEMORY):k])
    assert slides == 2


def test_a_cleared_memory_starts_over():
    pairs, grad = _quadratic_pairs(MEMORY + 3)
    memory = _remembered(pairs[:5])
    memory.count = 0
    for s, y in pairs[5:]:
        memory.push(s, y, s @ y)
    fresh = _remembered(pairs[5:])
    assert memory.count == fresh.count == MEMORY - 2
    assert _lbfgs_direction(grad, memory).tobytes() == _lbfgs_direction(grad, fresh).tobytes()


class _Counted(np.ndarray):
    """An array that counts the numpy calls made on it and on the arrays computed from it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.calls += 1
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0]
        return result.view(_Counted) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        _Counted.calls += 1
        return super().__array_function__(func, types, args, kwargs)

    def dot(self, other):
        # ndarray.dot is a method: neither hook above sees it.
        _Counted.calls += 1
        result = self.view(np.ndarray).dot(np.asarray(other).view(np.ndarray))
        return result.view(_Counted) if isinstance(result, np.ndarray) else result


def _counted(memory):
    for name in ("steps", "falls", "r_inv"):
        setattr(memory, name, getattr(memory, name).view(_Counted))
    _Counted.calls = 0
    return memory


def _numpy_calls(direction, pushes):
    pairs, grad = _quadratic_pairs(pushes)
    memory = _counted(_remembered(pairs))
    direction(grad.view(_Counted), memory)
    return _Counted.calls


def test_direction_makes_as_many_numpy_calls_for_one_pair_as_for_a_full_memory():
    assert _numpy_calls(_lbfgs_direction, 1) == _numpy_calls(_lbfgs_direction, MEMORY)

    def two_loop(grad, memory):
        window = memory.window()
        return _two_loop(grad, list(zip(memory.steps[window], memory.falls[window],
                                        memory.r_inv[window, window].diagonal())))

    # The counter sees calls made per pair: the two-loop makes more with more pairs.
    assert _numpy_calls(two_loop, MEMORY) > _numpy_calls(two_loop, 1)


def _push_calls(pushes):
    """numpy calls of the push that follows ``pushes`` earlier pushes, and whether it slid."""
    pairs, _ = _quadratic_pairs(pushes + 1)
    memory = _counted(_remembered(pairs[:-1]))
    s, y = pairs[-1]
    end = memory.end
    memory.push(s.view(_Counted), y.view(_Counted), s @ y)
    return _Counted.calls, memory.end < end


def test_push_makes_as_many_numpy_calls_for_one_pair_as_for_a_full_memory():
    calls = {pushes: _push_calls(pushes) for pushes in (0, 1, MEMORY, 2 * MEMORY)}
    # The push after 2 MEMORY pushes slides the window to the front of the buffer.  Its
    # three block copies are item assignments, which the counter does not see.
    assert [slid for _, slid in calls.values()] == [False, False, False, True]
    assert {count for count, _ in calls.values()} == {4}
