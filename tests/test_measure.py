"""Tests for projective single-party measurements and robustness reports."""

import math

import numpy as np
import pytest

from quartet import catalog
from quartet.core import (
    DomainError,
    PureState,
    ShapeError,
    apply_local_unitary,
    from_terms,
    partial_trace,
    party_index,
    random_state,
    random_unitary,
)
from quartet.entropy import pair_entropies
from quartet.measure import (
    MAX_TRIALS,
    MeasurementBasis,
    _party_bases,
    computational_basis,
    equivariance_overlap,
    measure,
    plus_minus_basis,
    random_basis,
    residual_pair_entropies,
    robustness_report,
)

RESIDUAL_ENTROPY = math.log2(3.0) - 2.0 / 3.0

_M4 = catalog.make("M4")
_RESIDUAL = measure(_M4, computational_basis(0))[0].residual
# Public functions that take a party, each called on one party of a four-party state.
PARTY_CALLS = {
    "party_index": lambda p: party_index(p, 4),
    "partial_trace": lambda p: partial_trace(_M4, (p,)),
    "apply_local_unitary": lambda p: apply_local_unitary(_M4, p, plus_minus_basis(0).vectors),
    "residual_pair_entropies": lambda p: residual_pair_entropies(_RESIDUAL, p, 4),
    "MeasurementBasis": lambda p: MeasurementBasis(p, np.eye(2)),
    "equivariance_overlap": lambda p: equivariance_overlap(_M4, p, np.eye(2)),
}
# A basis carries no state, so it takes only an index, and checks its range when measured.
INDEX_ONLY = {"MeasurementBasis"}


def test_basis_validation():
    MeasurementBasis(0, np.eye(3))
    with pytest.raises(DomainError):
        MeasurementBasis(0, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DomainError):
        MeasurementBasis(0, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        MeasurementBasis(0, np.zeros((2, 3)))
    b = computational_basis(1)
    with pytest.raises(ValueError):
        b.vectors[0, 0] = 2.0


def test_named_bases():
    b = computational_basis(0, 3)
    assert b.party == 0 and b.dim == 3
    assert np.array_equal(b.vectors, np.eye(3))

    pm = plus_minus_basis(2)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(pm.vectors, [[r, r], [r, -r]], atol=1e-15)


def test_random_basis_is_orthonormal_and_seeded():
    for dim in (2, 3):
        a = random_basis(1, dim, np.random.default_rng(5))
        b = random_basis(1, dim, np.random.default_rng(5))
        assert np.array_equal(a.vectors, b.vectors)
        gram = a.vectors @ a.vectors.conj().T
        assert np.allclose(gram, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("dim", [0, 1])
def test_random_basis_rejects_a_dimension_below_two(dim):
    with pytest.raises(DomainError, match="dim must be >= 2"):
        random_basis(0, dim, np.random.default_rng(5))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_unitary_and_random_basis_share_one_sampler(d):
    # random_unitary gives the basis's last column a uniform phase from one more draw.
    for seed in range(5):
        u = random_unitary(d, np.random.default_rng(seed))
        basis = random_basis(0, d, np.random.default_rng(seed)).vectors.T
        assert np.array_equal(u[:, :-1], basis[:, :-1])
        phase = np.vdot(basis[:, -1], u[:, -1])
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(u[:, -1], phase * basis[:, -1], rtol=0, atol=1e-12)


# Every entry point that takes a unitary gives the verdict of the one check, core.check_unitary.
UNITARY_CALLS = {
    "apply_local_unitary": lambda u: apply_local_unitary(_M4, 1, u),
    "MeasurementBasis": lambda u: MeasurementBasis(1, u),
    "equivariance_overlap": lambda u: equivariance_overlap(_M4, 1, u),
}


@pytest.mark.parametrize("call", UNITARY_CALLS)
@pytest.mark.parametrize("matrix, unitary", [
    (np.eye(2), True),
    # Frobenius error 1.13e-10, at or above the 1e-10 tolerance; largest entry error 8e-11.
    ((1.0 + 4e-11) * np.eye(2), False),
    (np.full((2, 2), np.nan), False),
    (np.full((2, 2), np.inf), False),
], ids=["exact", "1+4e-11", "nan", "inf"])
def test_every_entry_point_gives_one_unitarity_verdict(call, matrix, unitary):
    if unitary:
        UNITARY_CALLS[call](matrix)
    else:
        with pytest.raises(DomainError, match="not unitary"):
            UNITARY_CALLS[call](matrix)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_bases_have_haar_moments(d):
    # For a Haar basis each |<e_j|b_k>|^2 is Beta(1, d - 1) distributed, with mean 1/d
    # and second moment 2/(d(d + 1)), for the first basis vector and every other alike.
    trials = 4000
    weights = np.abs(_party_bases((0,), d, trials, seed=11)[0, -trials:]) ** 2
    for samples, expected in ((weights, 1.0 / d), (weights**2, 2.0 / (d * (d + 1)))):
        standard_error = samples.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(samples.mean(axis=0) - expected) < 5.0 * standard_error)


def test_born_probabilities_complete():
    rng = np.random.default_rng(21)
    for dims in ((2, 2, 2), (2, 2, 2, 2), (3, 2, 2)):
        s = random_state(dims, rng)
        for party in range(len(dims)):
            outcomes = measure(s, random_basis(party, dims[party], rng))
            total = math.fsum(o.probability for o in outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert [o.index for o in outcomes] == list(range(dims[party]))


def test_measure_residual_matches_direct_slice():
    # Computational outcome k of party p is the k-th slice of the tensor.
    rng = np.random.default_rng(22)
    s = random_state((2, 3, 2), rng)
    t = s.tensor()
    for k, outcome in enumerate(measure(s, computational_basis(1, 3))):
        w = t[:, k, :].reshape(-1)
        assert outcome.probability == pytest.approx(float(np.linalg.norm(w) ** 2), abs=1e-12)
        if outcome.residual is not None:
            expected = w / np.linalg.norm(w)
            assert np.allclose(outcome.residual.amps, expected, atol=1e-12)
            assert outcome.residual.dims == (2, 2)


def test_measure_validation():
    s = random_state((2, 2, 2), np.random.default_rng(0))
    with pytest.raises(DomainError):
        measure(s, computational_basis(3))
    with pytest.raises(ShapeError):
        measure(s, computational_basis(0, 3))
    with pytest.raises(DomainError):
        measure(random_state((4,), np.random.default_rng(0)), computational_basis(0, 4))


def test_zero_probability_outcome_has_no_residual():
    outcomes = measure(from_terms((2, 2, 2), {(0, 0, 0): 1.0}), computational_basis(0))
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-15)
    assert outcomes[1].probability == pytest.approx(0.0, abs=1e-15)
    assert outcomes[1].residual is None


def test_cat_state_computational_residuals_are_product():
    s = catalog.make("C4")
    for party in range(4):
        for outcome in measure(s, computational_basis(party)):
            assert outcome.probability == pytest.approx(0.5, abs=1e-12)
            ents = residual_pair_entropies(outcome.residual, party, 4)
            assert all(v == pytest.approx(0.0, abs=1e-12) for v in ents.values())


def test_cat_state_plus_minus_residuals_are_entangled():
    s = catalog.make("C4")
    for party in range(4):
        for outcome in measure(s, plus_minus_basis(party)):
            ents = residual_pair_entropies(outcome.residual, party, 4)
            assert all(v == pytest.approx(1.0, abs=1e-10) for v in ents.values())


def test_residual_entropy_keys_skip_measured_party():
    s = random_state((2, 2, 2, 2), np.random.default_rng(23))
    outcome = measure(s, computational_basis(1))[0]
    ents = residual_pair_entropies(outcome.residual, 1, 4)
    assert set(ents) == {"AC", "AD", "CD"}


def test_m4_computational_residuals_match_catalog():
    s = catalog.make("M4")
    expected = (catalog.make("RESIDUAL_0"), catalog.make("RESIDUAL_1"))
    for k, outcome in enumerate(measure(s, computational_basis(0))):
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        overlap = np.vdot(outcome.residual.amps, expected[k].amps)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_m4_residual_entropies_basis_independent():
    s = catalog.make("M4")
    rng = np.random.default_rng(24)
    for party in range(4):
        for basis in (
            computational_basis(party),
            plus_minus_basis(party),
            random_basis(party, 2, rng),
        ):
            for outcome in measure(s, basis):
                ents = residual_pair_entropies(outcome.residual, party, 4)
                for value in ents.values():
                    assert value == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)


def test_m4_residual_fingerprints_agree():
    a = pair_entropies(catalog.make("RESIDUAL_0"))
    b = pair_entropies(catalog.make("RESIDUAL_1"))
    assert sorted(a.values()) == pytest.approx(sorted(b.values()), abs=1e-12)
    assert all(v == pytest.approx(RESIDUAL_ENTROPY, abs=1e-12) for v in a.values())


def test_equivariance_overlap_m4():
    s = catalog.make("M4")
    rng = np.random.default_rng(25)
    for party in range(4):
        u = random_unitary(2, rng)
        assert equivariance_overlap(s, party, u) == pytest.approx(1.0, abs=1e-10)


def test_equivariance_overlap_generic_state_is_below_one():
    s = random_state((2, 2, 2, 2), np.random.default_rng(26))
    u = random_unitary(2, np.random.default_rng(27))
    assert equivariance_overlap(s, 0, u) < 1.0 - 1e-3


def test_equivariance_overlap_needs_an_outcome_defined_in_both_bases():
    # X swaps the outcomes of |0000>: each basis has one outcome of probability 1,
    # and the other basis gives that outcome probability 0.
    s = from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1.0})
    with pytest.raises(DomainError, match="no outcome has probability above the floor"):
        equivariance_overlap(s, 0, [[0.0, 1.0], [1.0, 0.0]])


def test_robustness_report_m4():
    report = robustness_report(catalog.make("M4"), trials=3, seed=9)
    assert report["trials"] == 3 and report["seed"] == 9
    assert set(report["per_party"]) == {"A", "B", "C", "D"}
    entry = report["per_party"]["B"]
    assert set(entry["random"]["pairs"]) == {"AC", "AD", "CD"}
    for stats in entry["random"]["pairs"].values():
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["min"] == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)
    assert entry["random"]["fragile_trials"] == []
    assert not entry["computational"]["fragile"]
    overall = report["overall"]
    assert overall["min"] == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)
    assert overall["max"] == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)


def test_robustness_report_c4_flags_fragile_bases():
    report = robustness_report(catalog.make("C4"), trials=2, seed=0)
    for letter in "ABCD":
        entry = report["per_party"][letter]
        assert entry["computational"]["fragile"]
        for outcome in entry["computational"]["outcomes"]:
            assert outcome["probability"] == pytest.approx(0.5, abs=1e-15)
            assert all(v == 0.0 for v in outcome["entropies"].values())
        assert not entry["plusminus"]["fragile"]
    # Overall statistics pool only the random-basis trials.
    overall = report["overall"]
    assert overall["min"] <= overall["mean"] <= overall["max"] <= 1.0 + 1e-12


def test_robustness_report_reproducible():
    a = robustness_report(catalog.make("M4"), trials=2, seed=3)
    b = robustness_report(catalog.make("M4"), trials=2, seed=3)
    assert a == b


def test_robustness_report_validation():
    with pytest.raises(DomainError):
        robustness_report(catalog.make("C3"), trials=1)
    with pytest.raises(DomainError):
        robustness_report(catalog.make("M4"), trials=0)
    with pytest.raises(DomainError):
        robustness_report(catalog.make("M4"), trials=MAX_TRIALS + 1)
    with pytest.raises(DomainError):
        robustness_report(catalog.make("M4"), trials=1, seed=-1)


def _same(a, b) -> bool:
    if isinstance(a, PureState):
        return a.dims == b.dims and np.array_equal(a.amps, b.amps)
    if isinstance(a, MeasurementBasis):
        return a.party == b.party and np.array_equal(a.vectors, b.vectors)
    return a == b if isinstance(a, (dict, int, float)) else np.array_equal(a, b)


NOT_PARTIES = [True, False, 1.0, 1.5, np.float64(1.0), "1.0", "", "E", -1]
PARTY_ONE = [1, np.int64(1), "b", " B ", "1"]


@pytest.mark.parametrize("party", NOT_PARTIES + PARTY_ONE + [7], ids=repr)
@pytest.mark.parametrize("call", PARTY_CALLS)
def test_one_rule_for_party_arguments(call, party):
    """A party is an integer index or a letter; never a bool or a non-integral number."""
    fn = PARTY_CALLS[call]
    names_party_one = any(party is p for p in PARTY_ONE)
    if call == "MeasurementBasis" and party == 7:
        assert fn(party).party == 7
    elif names_party_one and not (call in INDEX_ONLY and isinstance(party, str)):
        assert _same(fn(party), fn(1))
    else:
        with pytest.raises(DomainError):
            fn(party)
