"""The batched pair-cut kernel and both optimizer objectives built on it,
checked against a per-pair route through ``reduced_matrix`` and
``apply_kept_operator`` that exists only here."""

import itertools
import math

import numpy as np
import pytest

from quartet import ame, ascent
from quartet.entropy import EIG_FLOOR
from quartet.core import (
    ShapeError,
    apply_kept_operator,
    balanced_cuts,
    pair_cuts,
    partial_trace,
    random_state,
    reduced_matrix,
    scatter_cuts,
)

ALL_DIMS = ((2, 2), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4))
FOUR_PARTY_DIMS = ALL_DIMS[1:]
# Odd and larger party counts, whose cuts come from the same balanced-cut rule.
MORE_PARTY_DIMS = ((2, 2, 2), (3, 3, 3), (2,) * 5, (2,) * 6)
INV_LN2 = 1.0 / math.log(2.0)


def reference_deviation(amps, dims):
    # Every set of n // 2 parties; for even n each cut then appears once from each side,
    # and both sides give the same term, so the sum counts it twice.
    n = len(dims)
    t = amps.reshape(dims)
    value, g = 0.0, np.zeros(amps.size, dtype=complex)
    for keep in itertools.combinations(range(n), n // 2):
        d = math.prod(dims[a] for a in keep)
        delta = d * reduced_matrix(amps, dims, keep) - np.eye(d)
        value += float(np.sum(np.abs(delta) ** 2))
        g += 4.0 * d * apply_kept_operator(t, delta, keep).reshape(-1)
    sides = 1 if n % 2 else 2
    return value / sides, g / sides


def reference_entropy(amps, dims, floor=EIG_FLOOR):
    pairs = list(itertools.combinations(range(4), 2))
    t = amps.reshape(dims)
    value, g = 0.0, np.zeros(amps.size, dtype=complex)
    for keep in pairs:
        lam, vec = np.linalg.eigh(reduced_matrix(amps, dims, keep))
        positive = lam[lam > 0.0]
        value -= float(np.sum(positive * np.log2(positive)))
        log_term = (vec * (np.log2(np.maximum(lam, floor)) + INV_LN2)) @ vec.conj().T
        g -= 2.0 * apply_kept_operator(t, log_term, keep).reshape(-1)
    return value / len(pairs), g / len(pairs)


def sample_amps(dims, k):
    """A normalized state for even k, an unnormalized one (norm 1.3) for odd k."""
    s = random_state(dims, np.random.default_rng([40, len(dims), dims[0], k]))
    return s.amps * (1.3 if k % 2 else 1.0)


def assert_close(actual, expected, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(np.asarray(actual) - expected))) <= tol * scale


@pytest.mark.parametrize("dims", ALL_DIMS + MORE_PARTY_DIMS, ids=str)
def test_deviation_matches_reference(dims):
    for k in range(4):
        amps = sample_amps(dims, k)
        value, g = ame.deviation_value_and_gradient_raw(amps, dims)
        ref_value, ref_g = reference_deviation(amps, dims)
        assert_close(value, ref_value)
        assert_close(ame.deviation_value_raw(amps, dims), ref_value)
        assert_close(g, ref_g)


@pytest.mark.parametrize("dims", ALL_DIMS[:3] + MORE_PARTY_DIMS, ids=str)
def test_deviation_is_bitwise_the_public_cut_kernels(dims):
    # The deviation caches its gather, scatter and identity per dims; it must stay
    # bitwise the composition of pair_cuts and scatter_cuts over the balanced cuts.
    rows = balanced_cuts(len(dims))
    for k in range(4):
        amps = sample_amps(dims, k)
        m, rho = pair_cuts(amps, dims, rows)
        d = rho.shape[-1]
        delta = d * rho - np.eye(d)
        value = float(np.vdot(delta, delta).real)
        g = 4.0 * d * scatter_cuts(delta @ m, dims, rows)
        found_value, found_g = ame.deviation_value_and_gradient_raw(amps, dims)
        assert repr(found_value) == repr(value)
        assert repr(ame.deviation_value_raw(amps, dims)) == repr(value)
        assert found_g.tobytes() == g.tobytes()


@pytest.mark.parametrize("dims", FOUR_PARTY_DIMS, ids=str)
def test_entropy_objective_matches_reference(dims):
    for k in range(4):
        amps = sample_amps(dims, k)
        value, g = ascent.value_and_gradient_raw(amps, dims)
        ref_value, ref_g = reference_entropy(amps, dims)
        assert_close(value, ref_value)
        assert_close(g, ref_g)


def test_deviation_is_purity_sum_identity():
    # ||4 rho - I||_F^2 = 16 tr(rho^2) - 4 per unit-trace cut: total 16 sum(P) - 12.
    for k in range(10):
        t = random_state((2, 2, 2, 2), np.random.default_rng([41, k])).tensor()
        rhos = (
            np.einsum("abkl,cdkl->abcd", t, t.conj()),
            np.einsum("akbl,ckdl->abcd", t, t.conj()),
            np.einsum("aklb,ckld->abcd", t, t.conj()),
        )
        purity_sum = sum(float(np.sum(np.abs(r.reshape(4, 4)) ** 2)) for r in rhos)
        value = ame.deviation_value_raw(t.reshape(-1), (2, 2, 2, 2))
        assert value == pytest.approx(16.0 * purity_sum - 12.0, abs=1e-12)


@pytest.mark.parametrize("dims", FOUR_PARTY_DIMS, ids=str)
def test_cut_spectra_equal_both_complementary_pair_spectra(dims):
    s = random_state(dims, np.random.default_rng([42, dims[0]]))
    _, rho = pair_cuts(s.amps, dims, balanced_cuts(4))
    spectra = np.linalg.eigvalsh(rho)
    for keep, lam in zip(balanced_cuts(4), spectra):
        other = tuple(a for a in range(4) if a not in keep)
        for pair in (keep, other):
            expected = np.linalg.eigvalsh(partial_trace(s, pair))
            assert np.max(np.abs(lam - expected)) < 1e-12


@pytest.mark.parametrize("dims, rows", [((2, 2, 2, 2), balanced_cuts(4)),
                                         ((4, 4, 4, 4), balanced_cuts(4)),
                                         ((2, 3, 4), ((2,),)),
                                         ((2, 2, 2), ((2,), (1,), (0,)))], ids=str)
def test_a_stack_of_states_gives_each_single_call_bitwise(dims, rows):
    stack = np.stack([sample_amps(dims, k) for k in range(4)])
    m, rho = pair_cuts(stack, dims, rows)
    for amps, m_k, rho_k in zip(stack, m, rho):
        single_m, single_rho = pair_cuts(amps, dims, rows)
        assert np.array_equal(m_k, single_m) and np.array_equal(rho_k, single_rho)
    m2, rho2 = pair_cuts(stack.reshape(2, 2, -1), dims, rows)
    assert np.array_equal(m2.reshape(m.shape), m) and np.array_equal(rho2.reshape(rho.shape), rho)


def test_scatter_is_the_adjoint_of_the_gather():
    rng = np.random.default_rng(43)
    dims = (3, 3, 3, 3)
    x = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    y = rng.standard_normal((3, 9, 9)) + 1j * rng.standard_normal((3, 9, 9))
    m, _ = pair_cuts(x, dims, balanced_cuts(4))
    assert np.vdot(m, y) == pytest.approx(np.vdot(x, scatter_cuts(y, dims, balanced_cuts(4))),
                                          abs=1e-12)


def test_cuts_of_different_shapes_are_rejected():
    with pytest.raises(ShapeError):
        pair_cuts(np.ones(24), (2, 3, 2, 2), balanced_cuts(4))


def test_entropy_evaluation_makes_one_batched_eigendecomposition(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    amps = sample_amps((2, 2, 2, 2), 0)
    ascent.value_and_gradient_raw(amps, (2, 2, 2, 2))
    assert calls == {"eigh": 1, "eigvalsh": 0}
