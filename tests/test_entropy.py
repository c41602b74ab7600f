"""Pair entropies, the six-entry profile, and entropy fingerprints."""

import math

import numpy as np
import pytest

from quartet.catalog import make
from quartet.core import (
    DomainError,
    PureState,
    apply_local_unitary,
    partial_trace,
    random_state,
    random_unitary,
)
from quartet.entropy import (
    PAIRS,
    EntropyProfile,
    complement,
    eigenvalue_entropy,
    entropy,
    fingerprint_match,
    fingerprint_residual,
    pair_entropies,
    pair_parties,
    profile,
)

TARGET = 1.0 + 0.5 * math.log2(3.0)


def test_pair_labels_cover_all_pairs():
    assert PAIRS == ("AB", "AC", "AD", "BC", "BD", "CD")
    assert pair_parties("AD") == (0, 3)
    assert pair_parties("ca") == (0, 2)
    with pytest.raises(DomainError):
        pair_parties("AA")
    with pytest.raises(DomainError):
        pair_parties("ABC")


def test_complement_pairs():
    assert complement("AB") == "CD"
    assert complement("BD") == "AC"
    with pytest.raises(DomainError):
        complement("AE")


def test_eigenvalue_entropy_known_values():
    assert eigenvalue_entropy([1.0]) == 0.0
    assert eigenvalue_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert eigenvalue_entropy([0.25] * 4) == pytest.approx(2.0)
    spectrum = [0.5, 1 / 6, 1 / 6, 1 / 6]
    assert eigenvalue_entropy(spectrum) == pytest.approx(TARGET, abs=1e-12)


def test_eigenvalue_entropy_edge_cases():
    # tiny negatives from round-off pass; genuine negatives are rejected
    assert eigenvalue_entropy([1.0, -1e-12]) == 0.0
    assert eigenvalue_entropy([1.0, 0.0, 1e-16]) == 0.0
    with pytest.raises(DomainError):
        eigenvalue_entropy([1.1, -0.1])


def test_entropy_requires_unit_trace():
    s = random_state((2, 2), np.random.default_rng(0))
    rho = partial_trace(s, (0,))
    assert entropy(rho) >= 0.0
    with pytest.raises(DomainError):
        entropy(np.eye(2))


def test_pair_entropies_three_parties():
    ents = pair_entropies(make("C3"))
    assert sorted(ents) == ["AB", "AC", "BC"]
    for v in ents.values():
        # a pair of a three-qubit cat equals its one-qubit complement
        assert v == pytest.approx(1.0, abs=1e-12)


def test_profile_rejects_wrong_party_count():
    with pytest.raises(DomainError):
        profile(make("C3"))


def test_profile_cat_psi_m4():
    c4 = profile(make("C4"))
    assert all(abs(v - 1.0) < 1e-10 for v in c4.entries.values())
    assert c4.average == pytest.approx(1.0, abs=1e-10)

    psi = profile(make("PSI_EXAMPLE"))
    assert psi.sorted_entries() == pytest.approx((1, 1, 2, 2, 2, 2), abs=1e-10)
    assert psi.average == pytest.approx(5.0 / 3.0, abs=1e-10)

    m4 = profile(make("M4"))
    assert all(abs(v - TARGET) < 1e-10 for v in m4.entries.values())
    spread = max(m4.entries.values()) - min(m4.entries.values())
    assert spread < 1e-12


def test_profile_average_is_exact_mean():
    s = random_state((2, 2, 2, 2), np.random.default_rng(2))
    p = profile(s)
    assert p.average == math.fsum(p.entries.values()) / 6.0


def test_entries_bounded_and_complement_equal():
    rng = np.random.default_rng(21)
    for _ in range(25):
        s = random_state((2, 2, 2, 2), rng)
        p = profile(s)
        for pair, v in p.entries.items():
            assert -1e-12 <= v <= 2.0 + 1e-12
            assert abs(v - p.entries[complement(pair)]) < 1e-10


def test_profile_invariances():
    rng = np.random.default_rng(22)
    for _ in range(10):
        s = random_state((2, 2, 2, 2), rng)
        p = profile(s)
        assert fingerprint_residual(p, profile(PureState(s.dims, s.amps.conj()))) < 1e-10
        rotated = s
        for q in range(4):
            rotated = apply_local_unitary(rotated, q, random_unitary(2, rng))
        worst = max(
            abs(p.entries[k] - profile(rotated).entries[k]) for k in PAIRS
        )
        assert worst < 1e-10


def test_profile_to_json_shape():
    doc = profile(make("C4")).to_json()
    assert set(doc) == {"pairs", "average"}
    assert set(doc["pairs"]) == set(PAIRS)


def test_fingerprint_match_and_residual():
    a = profile(make("M4"))
    b = profile(make("M4_BAR"))
    assert fingerprint_match(a, a)
    assert fingerprint_match(a, b)
    assert fingerprint_match(a, b) == fingerprint_match(b, a)
    assert fingerprint_residual(a, b) < 1e-12

    c = profile(make("C4"))
    assert not fingerprint_match(a, c)
    assert fingerprint_residual(a, c) == pytest.approx(TARGET - 1.0, abs=1e-10)


def test_fingerprint_accepts_dicts_sequences_and_tolerance():
    base = (1.0, 1.0, 2.0)
    assert fingerprint_match(base, {"x": 1.0, "y": 2.0, "z": 1.0})
    assert fingerprint_match(base, (1.0, 1.0 + 5e-8, 2.0))
    assert not fingerprint_match(base, (1.0, 1.0 + 5e-7, 2.0))
    assert fingerprint_match(base, (1.0, 1.5, 2.0), tol=0.5 + 1e-12)
    with pytest.raises(DomainError):
        fingerprint_residual(base, (1.0, 2.0))


def test_entropy_profile_is_plain_dataclass():
    p = EntropyProfile({"AB": 1.0}, 1.0)
    assert p.sorted_entries() == (1.0,)
