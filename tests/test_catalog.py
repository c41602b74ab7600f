"""Reference states: construction, normalization, and their defining symmetries."""

import itertools
import math

import numpy as np
import pytest

from quartet.catalog import OMEGA, OMEGA2, cat_state, even_permutation, make, tags
from quartet.core import (
    DomainError,
    apply_local_unitary,
    partial_trace,
    random_unitary,
)

SIXTH = 1.0 / math.sqrt(6.0)


def test_every_tag_is_normalized():
    for tag in tags():
        s = make(tag)
        assert abs(np.linalg.norm(s.amps) ** 2 - 1.0) < 1e-12, tag


def test_make_is_case_insensitive_and_rejects_unknown():
    assert np.array_equal(make("m4").amps, make("M4").amps)
    with pytest.raises(DomainError):
        make("M5")


def test_cat_state_amplitudes_and_bounds():
    c3 = cat_state(3)
    assert c3.dims == (2, 2, 2)
    assert c3.amps[0] == pytest.approx(1 / math.sqrt(2))
    assert c3.amps[-1] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(c3.amps) == 2
    for bad in (1, 9):
        with pytest.raises(DomainError):
            cat_state(bad)


def test_catalog_cat_tags_match_cat_state():
    for n in range(2, 9):
        assert np.array_equal(make(f"C{n}").amps, cat_state(n).amps)


def test_m4_amplitudes():
    m4 = make("M4")
    t = m4.tensor()
    assert t[0, 0, 1, 1] == pytest.approx(SIXTH)
    assert t[1, 1, 0, 0] == pytest.approx(SIXTH)
    assert t[1, 0, 1, 0] == pytest.approx(SIXTH * OMEGA)
    assert t[0, 1, 0, 1] == pytest.approx(SIXTH * OMEGA)
    assert t[1, 0, 0, 1] == pytest.approx(SIXTH * OMEGA2)
    assert t[0, 1, 1, 0] == pytest.approx(SIXTH * OMEGA2)
    assert np.count_nonzero(m4.amps) == 6


def test_m4_bar_is_exact_conjugate():
    assert np.array_equal(make("M4_BAR").amps, make("M4").amps.conj())


def test_omega_is_a_cube_root_of_unity():
    assert OMEGA**3 == pytest.approx(1.0)
    assert 1.0 + OMEGA + OMEGA2 == pytest.approx(0.0, abs=1e-15)


def test_even_permutation_matches_inversion_count():
    for p in itertools.permutations((1, 2, 3, 4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]
        )
        assert even_permutation(p) == (inversions % 2 == 0)
    assert not even_permutation((1, 1, 2, 3))
    assert not even_permutation((0, 1, 2, 3))


def test_ame44_pair_reductions_are_maximally_mixed():
    s = make("AME44")
    assert s.dims == (4, 4, 4, 4)
    eye = np.eye(16) / 16.0
    for keep in itertools.combinations(range(4), 2):
        rho = partial_trace(s, keep)
        assert np.linalg.norm(rho - eye) < 1e-12


@pytest.mark.parametrize("tag", ["C2", "C4", "C6", "PSI_EXAMPLE", "M4", "AME44"])
def test_single_party_reductions_maximally_mixed(tag):
    s = make(tag)
    for p in range(s.n_parties):
        d = s.dims[p]
        rho = partial_trace(s, (p,))
        assert np.linalg.norm(rho - np.eye(d) / d) < 1e-12


def test_m4_is_su2_singlet():
    m4 = make("M4")
    rng = np.random.default_rng(44)
    for _ in range(20):
        u = random_unitary(2, rng)
        u = u / np.sqrt(np.linalg.det(u))  # unit determinant
        rotated = m4
        for p in range(4):
            rotated = apply_local_unitary(rotated, p, u)
        assert abs(abs(np.vdot(m4.amps, rotated.amps)) - 1.0) < 1e-10


def test_pair_states_and_single_party_states():
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(make("PHI_PLUS").amps, [0.0, r, r, 0.0])
    assert np.allclose(make("PHI_MINUS").amps, [0.0, -r, r, 0.0])
    assert np.allclose(make("PLUS").amps, [r, r])
    assert np.allclose(make("MINUS").amps, [r, -r])


def test_residual_states_amplitudes():
    # (|011> + w|110> + w^2|101>)/sqrt(3) and its partner with inverted bits
    r0 = make("RESIDUAL_0").tensor()
    third = 1.0 / math.sqrt(3.0)
    assert r0[0, 1, 1] == pytest.approx(third)
    assert r0[1, 0, 1] == pytest.approx(third * OMEGA)
    assert r0[1, 1, 0] == pytest.approx(third * OMEGA2)
    r1 = make("RESIDUAL_1").tensor()
    assert r1[1, 0, 0] == pytest.approx(third)
    assert r1[0, 1, 0] == pytest.approx(third * OMEGA)
    assert r1[0, 0, 1] == pytest.approx(third * OMEGA2)


def test_psi_example_amplitudes():
    t = make("PSI_EXAMPLE").tensor()
    for occ in ((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)):
        assert t[occ] == pytest.approx(0.5)
    assert np.count_nonzero(t) == 4
