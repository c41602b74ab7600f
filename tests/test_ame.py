"""Tests for pair-cut reshapes and the deviation-from-maximal-mixing floor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartet import ame, catalog
from quartet.core import (
    DomainError,
    PureState,
    ShapeError,
    apply_local_unitary,
    balanced_cuts,
    from_terms,
    pair_cuts,
    partial_trace,
    random_state,
    random_unitary,
)
from quartet.entropy import profile

DIMS = (2, 2, 2, 2)

# Row pair of each cut label, as party axes into the state tensor.
ROW_PAIRS = {"AB_CD": (0, 1), "AC_BD": (0, 2), "AD_BC": (0, 3)}


def test_cut_labels():
    assert list(ame.ame_deviation(catalog.make("M4")).per_cut) == list(ROW_PAIRS)
    assert list(ame.ame_deviation(catalog.make("C3")).per_cut) == ["A_BC", "B_AC", "C_AB"]


def test_reshape_preserves_norm():
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = random_state(DIMS, rng)
        m, _ = pair_cuts(s.amps, DIMS, balanced_cuts(4))
        assert m.shape == (3, 4, 4)
        for matrix in m:
            assert np.linalg.norm(matrix) == pytest.approx(1.0, abs=1e-12)


def test_reshape_index_convention():
    # M[(i,k), (j,l)] for the AC|BD cut, row-major within each pair.
    rng = np.random.default_rng(12)
    s = random_state(DIMS, rng)
    t = s.tensor()
    m = pair_cuts(s.amps, DIMS, (ROW_PAIRS["AC_BD"],))[0][0]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert m[2 * i + k, 2 * j + l] == t[i, j, k, l]


def test_reshape_rows_give_pair_reduction():
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = random_state(DIMS, rng)
        m, _ = pair_cuts(s.amps, DIMS, tuple(ROW_PAIRS.values()))
        for matrix, keep in zip(m, ROW_PAIRS.values()):
            assert np.allclose(matrix @ matrix.conj().T, partial_trace(s, keep), atol=1e-12)


def test_reshape_rejects_bad_input():
    # The deviation reshapes two or more parties of equal dimension, every cut to one shape.
    with pytest.raises(DomainError):
        ame.ame_deviation(random_state((2,), np.random.default_rng(0)))
    unequal = random_state((2, 2, 2, 3), np.random.default_rng(0))
    with pytest.raises(DomainError):
        ame.ame_deviation(unequal)
    with pytest.raises(ShapeError):
        pair_cuts(unequal.amps, unequal.dims, ((0, 1), (0, 3)))


def test_ame44_reshapes_are_unitary_up_to_scale():
    s = catalog.make("AME44")
    m, _ = pair_cuts(s.amps, s.dims, balanced_cuts(4))
    for matrix in m:
        assert np.allclose(16 * matrix @ matrix.conj().T, np.eye(16), atol=1e-12)


def test_deviation_zero_state():
    dev = ame.ame_deviation(from_terms(DIMS, {(0, 0, 0, 0): 1.0}))
    # delta = 4|00><00| - I per cut: 3^2 + 3 * 1 = 12.
    for cut in ROW_PAIRS:
        assert dev.per_cut[cut] == pytest.approx(12.0, abs=1e-12)
    assert dev.total == pytest.approx(36.0, abs=1e-12)


def test_deviation_named_states():
    psi = ame.ame_deviation(catalog.make("PSI_EXAMPLE"))
    assert psi.per_cut["AB_CD"] == pytest.approx(0.0, abs=1e-12)
    assert psi.per_cut["AC_BD"] == pytest.approx(0.0, abs=1e-12)
    assert psi.per_cut["AD_BC"] == pytest.approx(4.0, abs=1e-12)

    m4 = ame.ame_deviation(catalog.make("M4"))
    for cut in ROW_PAIRS:
        assert m4.per_cut[cut] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert m4.total == pytest.approx(4.0, abs=1e-12)

    assert ame.ame_deviation(catalog.make("AME44")).total == pytest.approx(0.0, abs=1e-12)


def test_deviation_matches_direct_reduction_route():
    rng = np.random.default_rng(14)
    for _ in range(10):
        s = random_state(DIMS, rng)
        dev = ame.ame_deviation(s)
        for cut, keep in ROW_PAIRS.items():
            rho = partial_trace(s, keep)
            direct = float(np.sum(np.abs(4 * rho - np.eye(4)) ** 2))
            assert dev.per_cut[cut] == pytest.approx(direct, abs=1e-10)
        assert dev.total == pytest.approx(math.fsum(dev.per_cut.values()), abs=1e-12)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_profile_and_deviation_are_local_unitary_invariant(d, seed):
    rng = np.random.default_rng(seed)
    s = random_state((d,) * 4, rng)
    rotated = s
    for p in range(4):
        rotated = apply_local_unitary(rotated, p, random_unitary(d, rng))
    before, after = profile(s).entries, profile(rotated).entries
    assert max(abs(before[pair] - after[pair]) for pair in before) <= 1e-10
    assert abs(ame.ame_deviation(s).total - ame.ame_deviation(rotated).total) <= 1e-10


@pytest.mark.parametrize("scale", [2.0, 0.0])
def test_deviation_rejects_unnormalized_states(scale):
    s = PureState(DIMS, scale * catalog.make("M4").amps)
    with pytest.raises(DomainError, match="squared norm"):
        ame.ame_deviation(s)


def test_deviation_rejects_unequal_dims():
    with pytest.raises(DomainError):
        ame.ame_deviation(random_state((2, 2, 2, 3), np.random.default_rng(0)))


def test_two_party_deviation_matches_derived_values():
    # The one cut A_B has M the d x d amplitude matrix and deviation ||d M M^dagger - I||_F^2.
    bell = ame.ame_deviation(catalog.make("PHI_PLUS"))
    assert list(bell.per_cut) == ["A_B"]
    assert bell.total < 1e-24
    # |00>: d M M^dagger - I = diag(1, -1).
    assert ame.ame_deviation(from_terms((2, 2), {(0, 0): 1.0})).total == 2.0
    for theta in np.linspace(0.0, math.pi / 2, 13):
        # d M M^dagger - I = diag(cos 2 theta, -cos 2 theta).
        s = from_terms((2, 2), {(0, 0): math.cos(theta), (1, 1): math.sin(theta)})
        assert abs(ame.ame_deviation(s).total - 2 * math.cos(2 * theta) ** 2) <= 1e-14
    qutrits = from_terms((3, 3), {(i, i): 1 / math.sqrt(3) for i in range(3)})
    assert ame.ame_deviation(qutrits).total < 1e-24
    for dims in ((2,), (2, 3)):
        with pytest.raises(DomainError):
            ame.ame_deviation(random_state(dims, np.random.default_rng(0)))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    h = 1e-6
    for dims in (DIMS, (2, 2)):
        n = math.prod(dims)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amps = z / np.linalg.norm(z)
        _, g = ame.deviation_value_and_gradient_raw(amps, dims)
        for i in range(n):
            for direction in (1.0, 1.0j):
                e = np.zeros(n, dtype=complex)
                e[i] = direction
                fd = (
                    ame.deviation_value_raw(amps + h * e, dims)
                    - ame.deviation_value_raw(amps - h * e, dims)
                ) / (2 * h)
                expected = float(np.real(np.conj(direction) * g[i]))
                assert fd == pytest.approx(expected, abs=1e-5)


def test_minimize_two_qubits_reaches_zero():
    rep = ame.minimize_deviation((2, 2), restarts=2, seed=0, max_iters=5000)
    assert rep.floor < 1e-12
    assert rep.converged
    assert set(rep.per_cut) == {"A_B"}
    assert rep.per_cut["A_B"] == pytest.approx(rep.floor, abs=1e-12)
    assert len(rep.restarts) == 2
    # Bell-like minimizer: single-party reduction maximally mixed.
    rho = partial_trace(rep.state, (0,))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-8)


def test_minimize_four_qubits_stays_above_alarm():
    rep = ame.minimize_deviation(DIMS, restarts=3, seed=0, max_iters=3000)
    assert rep.floor > 4.0 - 1e-9
    assert rep.floor == pytest.approx(4.0, abs=1e-9)
    for record in rep.restarts:
        assert record.value >= rep.floor - 1e-12


def test_minimize_is_reproducible():
    a = ame.minimize_deviation(DIMS, restarts=3, seed=4, max_iters=500)
    b = ame.minimize_deviation(DIMS, restarts=3, seed=4, max_iters=500)
    assert a.floor == b.floor
    assert a.per_cut == b.per_cut
    assert a.restarts == b.restarts
    assert np.array_equal(a.state.amps, b.state.amps)


def test_minimize_explicit_start():
    start = catalog.make("M4")
    rep = ame.minimize_deviation(DIMS, restarts=0, seed=0, max_iters=2000, start=start)
    assert len(rep.restarts) == 1
    assert rep.floor <= 4.0 + 1e-9


def test_minimize_validation():
    with pytest.raises(DomainError):
        ame.minimize_deviation((2, 3))
    # Nine parties fail on the cut rule's own bound, before any cut is listed or state drawn.
    for dims in ((2,), (2, 2, 2, 3), (2,) * 9):
        with pytest.raises(DomainError, match="need 2 to 8 parties of one local dimension"):
            ame.minimize_deviation(dims)
    with pytest.raises(DomainError):
        ame.minimize_deviation((2, 2), restarts=0)
    with pytest.raises(ShapeError):
        ame.minimize_deviation(DIMS, restarts=1, start=catalog.make("C3"))
    for dims in ((0, 0, 0, 0), (-2, -2), (1, 1)):
        with pytest.raises(DomainError):
            ame.minimize_deviation(dims)
    for kwargs in ({"max_iters": 0}, {"grad_tol": 0.0}, {"grad_tol": float("nan")},
                   {"restarts": 2.5}, {"restarts": True}, {"seed": -1}):
        with pytest.raises(DomainError):
            ame.minimize_deviation((2, 2), **kwargs)


def _ring_graph_state(n):
    # Amplitudes (-1)^(sum_i x_i x_{i+1 mod n}) / sqrt(2^n): the graph state of an n-ring.
    x = np.array(list(np.ndindex((2,) * n)))
    return PureState((2,) * n, (-1.0) ** (x * np.roll(x, -1, axis=1)).sum(1) / math.sqrt(2**n))


def test_ghz_and_five_qubit_ring_are_exactly_ame():
    # GHZ has both one-party reductions of each cut maximally mixed; the five-qubit ring
    # graph state is AME(5, 2), every two-party reduction maximally mixed.
    assert ame.ame_deviation(catalog.make("C3")).total < 1e-28
    ring = ame.ame_deviation(_ring_graph_state(5))
    assert len(ring.per_cut) == 10 and list(ring.per_cut)[0] == "AB_CDE"
    assert ring.total < 1e-28


@pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (2,) * 6, (3, 3, 3)], ids=str)
def test_minimize_reaches_zero_where_an_ame_state_exists(dims):
    rep = ame.minimize_deviation(dims, restarts=5, seed=0)
    assert rep.floor < 1e-12
    assert rep.floor == pytest.approx(math.fsum(rep.per_cut.values()), abs=1e-12)
