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
    spectra,
)
from quartet.measure import PROB_FLOOR

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


def test_a_pure_spectrum_has_entropy_plus_zero():
    assert math.copysign(1.0, eigenvalue_entropy([1.0, 0.0])) == 1.0
    assert math.copysign(1.0, eigenvalue_entropy([[0.0, 1.0], [0.5, 0.5]])[0]) == 1.0
    report = profile(PureState((2, 2, 2, 2), np.eye(16)[0]))
    values = list(report.entries.values()) + [report.average]
    assert values == [0.0] * 7
    assert all(math.copysign(1.0, v) == 1.0 for v in values)


def _qubit_cases_with_exact_spectra():
    """Unit-trace 2x2 density matrices whose spectra are known exactly, and those spectra."""
    rng = np.random.default_rng(5)
    # Pure states v v^dagger: spectrum (0, trace), whatever the phases of the coherence.
    v = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    pure = v[:, :, None] * v[:, None, :].conj()
    cases = [(pure, np.stack([np.zeros(500), np.trace(pure, axis1=1, axis2=2).real], axis=-1))]
    # Diagonal matrices: spectrum the sorted diagonal.
    x = np.concatenate([rng.random(500), [0.0, 1.0, 1e-16, 1e-8, 0.3, 0.5]])
    cases.append((np.stack([np.diag([p, 1.0 - p]) for p in x]),
                  np.sort(np.stack([x, 1.0 - x], axis=-1), axis=-1)))
    # Equal diagonals with a purely off-diagonal coherence b, real, imaginary or
    # complex: spectrum 1/2 -+ |b|, and a pure |+>-type state at |b| = 1/2.
    b = np.array([0.5, -0.5, 0.5j, 0.25, 0.5 * np.exp(1j), 1e-9j, 0.0])
    cases.append((np.array([[[0.5, c], [np.conj(c), 0.5]] for c in b]),
                  np.stack([0.5 - np.abs(b), 0.5 + np.abs(b)], axis=-1)))
    return np.concatenate([m for m, _ in cases]), np.concatenate([lam for _, lam in cases])


# Traces from 1 down to the smallest Born probability a report reads.
QUBIT_TRACES = (1.0, 0.37, 1e-3, 1e-9, PROB_FLOOR)


def test_qubit_spectra_in_closed_form_match_exact_spectra():
    unit, exact = _qubit_cases_with_exact_spectra()
    for trace in QUBIT_TRACES:
        lam = spectra(trace * unit)
        assert lam.shape == exact.shape and np.all(lam >= 0.0)
        # A few ulps: the exact spectra are those of the matrices as stored.
        assert np.max(np.abs(lam / trace - exact)) <= 1e-15
        assert np.max(np.abs(eigenvalue_entropy(lam / trace) - eigenvalue_entropy(exact))) <= 1e-13


def test_qubit_spectra_in_closed_form_match_eigvalsh():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
    mixed = a @ a.conj().swapaxes(-1, -2)
    unit = np.concatenate([_qubit_cases_with_exact_spectra()[0],
                           mixed / np.trace(mixed, axis1=-2, axis2=-1)[:, None, None].real])
    for trace in QUBIT_TRACES:
        rho = trace * unit
        lam, expected = spectra(rho), np.linalg.eigvalsh(rho)
        assert lam.shape == expected.shape and np.all(lam >= 0.0)
        # eigvalsh itself is off the exact spectrum by up to about 1e-15, so the bound
        # covers its error and the closed form's.
        assert np.max(np.abs(lam / trace - expected / trace)) <= 4e-15
        assert np.max(np.abs(eigenvalue_entropy(lam / trace)
                             - eigenvalue_entropy(expected / trace))) <= 1e-13


def test_spectra_of_larger_matrices_are_eigvalsh():
    a = np.random.default_rng(7).standard_normal((3, 4, 4)) + 0j
    rho = a @ a.conj().swapaxes(-1, -2)
    assert np.array_equal(spectra(rho), np.linalg.eigvalsh(rho))


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
