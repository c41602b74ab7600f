"""Pair entropies read from the pair-cut kernel, checked against the
independent ``partial_trace`` + ``entropy`` route."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartet import catalog
from quartet.core import PARTY_LETTERS, DomainError, PureState, partial_trace, random_state
from quartet.entropy import entropy, pair_entropies, profile
from quartet.measure import (
    computational_basis,
    measure,
    random_basis,
    residual_pair_entropies,
    robustness_report,
)

MAX_AMPS = 256


@st.composite
def states(draw):
    n = draw(st.integers(3, 5))
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)
                      .filter(lambda ds: math.prod(ds) <= MAX_AMPS)))
    return random_state(dims, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(states(), st.sampled_from([0.5, 1.0 + 1e-6, 1.3]))
def test_pair_entropies_match_partial_trace_route(s, scale):
    pairs = list(itertools.combinations(range(s.n_parties), 2))
    ents = pair_entropies(s)
    assert list(ents) == [PARTY_LETTERS[a] + PARTY_LETTERS[b] for a, b in pairs]
    for key, (a, b) in zip(ents, pairs):
        assert abs(ents[key] - entropy(partial_trace(s, (a, b)))) <= 1e-12
    with pytest.raises(DomainError):
        pair_entropies(PureState(s.dims, scale * s.amps))


def test_pair_entropies_need_three_parties():
    with pytest.raises(DomainError, match="at least three parties"):
        pair_entropies(catalog.make("PHI_PLUS"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(4, 5).flatmap(lambda n: st.lists(st.integers(2, 4), min_size=n, max_size=n)
                                 .filter(lambda ds: math.prod(ds) <= MAX_AMPS)),
       st.integers(0, 2**32 - 1))
def test_pair_entropy_equals_its_complement_entropy(dims, seed):
    s = random_state(tuple(dims), np.random.default_rng(seed))
    for key, value in pair_entropies(s).items():
        rest = [q for q in range(s.n_parties) if PARTY_LETTERS[q] not in key]
        assert abs(value - entropy(partial_trace(s, rest))) <= 1e-12


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_profile_makes_one_eigvalsh_call(eigvalsh_calls):
    profile(random_state((2, 2, 2, 2), np.random.default_rng(70)))
    assert eigvalsh_calls == [(6, 4, 4)]


def test_residual_pair_entropies_make_one_eigvalsh_call_per_residual(eigvalsh_calls):
    # A three-party residual reads each pair from its single-party complement: one
    # stacked call for qutrits, none for qubits, whose 2x2 spectra come in closed form.
    for dim, calls in ((3, [(3, 3, 3)]), (2, [])):
        eigvalsh_calls.clear()
        s = random_state((dim,) * 4, np.random.default_rng(71))
        outcomes = measure(s, random_basis(2, dim, np.random.default_rng(72)))
        for outcome in outcomes:
            residual_pair_entropies(outcome.residual, 2, 4)
        assert eigvalsh_calls == calls * len(outcomes)


@pytest.mark.parametrize("dims, calls", [((2, 2, 2, 2), []),
                                         ((4, 4, 4, 4), [(4, 36, 3, 4, 4)])],
                         ids=["2222", "4444"])
def test_robustness_report_makes_one_eigvalsh_call(eigvalsh_calls, dims, calls):
    # Every residual pair is read from a single-party reduction.  Four parties of 9
    # ququart bases with 4 outcomes, each leaving three: all in one stacked call.
    # Qubit reductions are 2x2, with closed-form spectra: no call at all.
    robustness_report(random_state(dims, np.random.default_rng(73)), trials=8)
    assert eigvalsh_calls == calls


def test_residual_without_a_proper_pair_reports_no_entropies():
    for tag in ("C3", "PHI_PLUS"):
        s = catalog.make(tag)
        for outcome in measure(s, computational_basis(0)):
            assert residual_pair_entropies(outcome.residual, 0, s.n_parties) == {}


def test_residual_must_match_the_measured_system():
    residual = measure(catalog.make("M4"), computational_basis(1))[0].residual
    for party, n_parties in ((1, 5), (1, 3), (4, 4)):
        with pytest.raises(DomainError):
            residual_pair_entropies(residual, party, n_parties)
