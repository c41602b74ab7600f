"""Closest-product search and the zero-pattern canonical form."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from quartet import canonical
from quartet.acceptance import _near
from quartet.ascent import maximize
from quartet.canonical import (
    DEGENERACY_TOL,
    MAX_RESTARTS,
    MAX_SWEEPS,
    RESIDUAL_TOL,
    SWEEP_RESIDUAL_TOL,
    CanonicalForm,
    canonicalize,
)
from quartet.catalog import make
from quartet.core import (
    DomainError,
    PureState,
    apply_local_unitary,
    from_terms,
    random_state,
    random_unitary,
    unitary_from_first_column,
)


def test_unitary_from_first_column_properties():
    rng = np.random.default_rng(1)
    for d in range(2, 9):
        eye = np.eye(d, dtype=complex)
        cases = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(10)]
        off = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        off[0] = 0.0
        tiny = off.copy()
        tiny[0] = 1e-300 * np.exp(0.7j)
        cases += [off, tiny, eye[0], -eye[0], eye[d - 1]]
        for v in cases:
            u = unitary_from_first_column(v)
            assert np.array_equal(u[:, 0], v / np.linalg.norm(v, axis=-1, keepdims=True))
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-14
        # the computational start of a canonical state must come back unrotated
        assert np.array_equal(unitary_from_first_column(eye[0]), eye)


@pytest.mark.parametrize("v", [[0, 0], [np.inf, 0], [np.nan, 1], [[1, 0], [0, 0]]],
                         ids=["zero", "infinite", "nan", "stack-with-a-zero-row"])
def test_unitary_from_first_column_rejects_a_column_without_a_finite_nonzero_norm(v):
    with pytest.raises(DomainError, match="finite nonzero norm"):
        unitary_from_first_column(v)


def test_unitary_completion_of_a_stack_is_bitwise_row_by_row():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        z = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
        z[0] = np.eye(d)[d - 1]
        stacked = unitary_from_first_column(z)
        assert stacked.shape == (6, d, d)
        for v, u in zip(z, stacked):
            assert np.array_equal(u, unitary_from_first_column(v))


def test_unitary_completion_is_deterministic():
    v = np.array([0.6, 0.8j])
    assert np.array_equal(
        unitary_from_first_column(v), unitary_from_first_column(v)
    )


def _grid_best_product_overlap(s: PureState, steps: int = 13) -> float:
    """Dense-grid oracle for the maximal squared product overlap of four qubits.

    Scans Bloch angles for the first three parties; the optimal fourth vector
    is the normalized contraction, so its contribution is exact.  With M the
    2x2 contraction of the state with a first and a second grid vector, a
    third vector v scores |v^dagger M|^2 = v^dagger H v, H = M M^dagger, which
    is a dot product of four real features of H with four of v v^dagger.  The
    scores are contracted in blocks of first vectors, one real matmul each.
    """
    thetas = np.linspace(0.0, math.pi, steps)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * steps, endpoint=False)
    grid = np.array(
        [
            [math.cos(th / 2), math.sin(th / 2) * np.exp(1j * ph)]
            for th in thetas
            for ph in phis
        ]
    )
    conj = grid.conj()
    cross = conj[:, 0] * grid[:, 1]
    third = np.stack([np.abs(grid[:, 0]) ** 2, np.abs(grid[:, 1]) ** 2, cross.real, cross.imag])
    m = np.einsum("ia,jb,abcd->ijcd", conj, conj, s.tensor())
    h = m @ m.conj().swapaxes(-1, -2)
    pairs = np.stack([h[..., 0, 0].real, h[..., 1, 1].real, 2.0 * h[..., 0, 1].real,
                      -2.0 * h[..., 0, 1].imag], axis=-1).reshape(-1, 4)
    # Thirteen first vectors per block: a (13 * 338, 338) score matrix of 12 MB.
    block = steps * len(grid)
    return max(float((pairs[i:i + block] @ third).max()) for i in range(0, len(pairs), block))


def test_cat_overlap_matches_grid_oracle():
    c4 = make("C4")
    oracle = _grid_best_product_overlap(c4)
    assert oracle == pytest.approx(0.5, abs=1e-6)
    form = canonicalize(c4, restarts=16, seed=0)
    assert form.overlap == pytest.approx(0.5, abs=1e-8)
    assert abs(form.overlap - oracle) < 1e-6


def test_cat_canonical_form_keeps_computational_frame():
    form = canonicalize(make("C4"), restarts=16, seed=0)
    for u in form.local_unitaries:
        assert np.max(np.abs(u - np.eye(2))) < 1e-12
    assert form.zero_residual < 1e-12
    assert form.converged


def test_product_state_canonicalizes_to_all_zero():
    rng = np.random.default_rng(9)
    s = PureState((2,) * 4, functools.reduce(np.kron, [_rand_qubit(rng) for _ in range(4)]))
    form = canonicalize(s, restarts=4, seed=1)
    assert form.overlap == pytest.approx(1.0, abs=1e-10)
    assert abs(form.state.amps[0] - 1.0) < 1e-8
    assert form.zero_residual < 1e-8


def _rand_qubit(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


def test_canonical_transform_consistency():
    # applying the returned unitaries to the input reproduces the canonical state
    s = random_state((2, 2, 2, 2), np.random.default_rng(33))
    form = canonicalize(s, restarts=8, seed=3)
    out = s
    for p, u in enumerate(form.local_unitaries):
        out = apply_local_unitary(out, p, u)
    assert np.max(np.abs(out.amps - form.state.amps)) < 1e-12
    # leading coefficient is the real nonnegative square root of the overlap
    lead = form.state.amps[0]
    assert abs(lead.imag) <= 1e-13
    assert lead.real == pytest.approx(math.sqrt(form.overlap), abs=1e-13)


def test_canonical_transform_consistency_for_unequal_dims():
    s = random_state((2, 3, 2, 2), np.random.default_rng(34))
    form = canonicalize(s, restarts=8, seed=4)
    assert [u.shape for u in form.local_unitaries] == [(2, 2), (3, 3), (2, 2), (2, 2)]
    out = s
    for p, u in enumerate(form.local_unitaries):
        out = apply_local_unitary(out, p, u)
    assert np.max(np.abs(out.amps - form.state.amps)) < 1e-12
    assert form.converged


def test_single_excitation_coefficients_vanish():
    rng = np.random.default_rng(40)
    for k in range(20):
        s = random_state((2, 2, 2, 2), np.random.default_rng([40, k]))
        form = canonicalize(s, restarts=16, seed=k)
        assert form.converged
        assert form.zero_residual < 1e-8
        t = form.state.tensor()
        for p in range(4):
            idx = tuple(1 if q == p else 0 for q in range(4))
            assert abs(t[idx]) < 1e-8


def test_overlap_history_monotone_and_bounded():
    for k in range(10):
        s = random_state((2, 2, 2, 2), np.random.default_rng([41, k]))
        form = canonicalize(s, restarts=8, seed=k)
        assert form.history
        assert form.history[-1] <= 1.0 + 1e-12
        for a, b in zip(form.history, form.history[1:]):
            assert b - a >= -1e-14
        assert form.sweeps == len(form.history)


def test_overlap_invariant_under_local_rotations():
    rng = np.random.default_rng(50)
    s = random_state((2, 2, 2, 2), rng)
    base = canonicalize(s, restarts=16, seed=2).overlap
    rotated = s
    for p in range(4):
        rotated = apply_local_unitary(rotated, p, random_unitary(2, rng))
    again = canonicalize(rotated, restarts=16, seed=2).overlap
    assert abs(base - again) < 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_canonical_overlaps_match_derived_values(seed):
    # C4 and PSI_EXAMPLE meet the largest squared singular value of a cut's unfolding,
    # which bounds every product overlap.  RESIDUAL_0 and RESIDUAL_1 are W states up to
    # local unitaries, whose overlap is 4/9 (Wei & Goldbart, PRA 68, 042307 (2003)).
    for name, value in (("C4", 1 / 2), ("PSI_EXAMPLE", 1 / 4), ("RESIDUAL_0", 4 / 9),
                        ("RESIDUAL_1", 4 / 9)):
        assert abs(canonicalize(make(name), seed=seed).overlap - value) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4), (3, 5), (5, 2)])
def test_two_party_overlap_is_the_largest_squared_singular_value(dims):
    # A two-party state is its d1 x d2 amplitude matrix M, and |a^H M b|^2 over unit
    # vectors a, b peaks at sigma_max(M)^2 (Eckart-Young).
    for k in range(20):
        s = random_state(dims, np.random.default_rng([68, k]))
        form = canonicalize(s, seed=k)
        sigma = np.linalg.svd(s.tensor(), compute_uv=False)[0]
        assert abs(form.overlap - sigma**2) <= 1e-12
        assert {r.stop_reason for r in form.restarts} == {"settled"}


def test_one_party_state_rotates_onto_zero():
    # A one-party state is a product state: the form is |0> with overlap 1.
    states = [random_state((d,), np.random.default_rng([69, d])) for d in (2, 3, 5)]
    for s in states + [make("PLUS"), make("MINUS")]:
        form = canonicalize(s, seed=0)
        assert abs(form.overlap - 1.0) <= 1e-12
        assert form.zero_residual < 1e-12
        assert abs(form.state.amps[0] - 1.0) <= 1e-12


def test_restart_records_hold_sweeps_overlap_and_stop_reason():
    # Every start of both settles within 20 sweeps.
    for name in ("M4", "C4"):
        form = canonicalize(make(name), seed=0)
        for r in form.restarts:
            assert [f.name for f in dataclasses.fields(r)] == [
                "restart", "sweeps", "overlap", "stop_reason"]
        assert max(r.sweeps for r in form.restarts) < 20


# Each has a continuum of best product states (|M4> is invariant under every U^(x4), a Bell
# pair under U (x) conj(U)), so near them the sweep converges only linearly, at a ratio near 1.
_FLAT_TAGS = ("C2", "PHI_PLUS", "PHI_MINUS", "PSI_EXAMPLE", "M4", "M4_BAR", "RESIDUAL_0",
              "RESIDUAL_1")


@pytest.mark.parametrize("tag", _FLAT_TAGS)
def test_states_near_a_continuum_of_best_product_states_converge(tag):
    for k, eps in enumerate((1e-6, 1e-4, 1e-2)):
        form = canonicalize(_near(make(tag), eps, np.random.default_rng([72, k])), seed=k)
        assert form.zero_residual < RESIDUAL_TOL
        assert form.converged and form.polish.converged


def test_two_party_overlap_near_phi_plus_is_the_largest_squared_singular_value():
    # The two singular values nearly tie, so the sweep is a power iteration at a ratio
    # near 1; the polished overlap still meets sigma_max^2.
    for k, eps in enumerate((1e-6, 1e-4, 1e-2)):
        s = _near(make("PHI_PLUS"), eps, np.random.default_rng([73, k]))
        sigma = np.linalg.svd(s.tensor(), compute_uv=False)[0]
        assert abs(canonicalize(s, seed=k).overlap - sigma**2) <= 1e-12


def test_a_maximize_result_canonicalizes():
    # Every maximize restart lands in the local-unitary orbit of |M4> or M4_BAR, near
    # which a sweep that had to converge on its own ran starts to MAX_SWEEPS.
    form = canonicalize(maximize(restarts=20, seed=0).best_state)
    assert form.converged and form.polish.converged
    assert {r.stop_reason for r in form.restarts} == {"settled"}


def test_canonicalize_validates_input():
    for bad in (0, -1, MAX_RESTARTS + 1, 2.5, True, "4", None):
        with pytest.raises(DomainError):
            canonicalize(make("C4"), restarts=bad)
    unnormalized = PureState((2, 2, 2, 2), np.ones(16))
    with pytest.raises(DomainError):
        canonicalize(unnormalized)
    with pytest.raises(DomainError, match="seed"):
        canonicalize(make("C4"), seed=-1)
    assert canonicalize(make("C4"), restarts=np.int64(1)).overlap == pytest.approx(0.5)


def test_restart_bound_fires_before_any_start_is_allocated(monkeypatch):
    c4 = make("C4")

    def forbidden(*args, **kwargs):
        raise AssertionError("a batch of starts was allocated")

    monkeypatch.setattr(canonical.np.random, "default_rng", forbidden)
    monkeypatch.setattr(canonical, "_alternate", forbidden)
    for bad in (MAX_RESTARTS + 1, 10**12):
        with pytest.raises(DomainError, match="restarts"):
            canonicalize(c4, restarts=bad)


def test_m4_canonical_residual():
    form = canonicalize(make("M4"), restarts=16, seed=0)
    assert form.converged
    assert form.zero_residual < 1e-8
    assert isinstance(form, CanonicalForm)


def _sequential_contract(t, vectors, skip):
    out = t
    for q in sorted(range(t.ndim), reverse=True):
        if q == skip:
            continue
        out = np.tensordot(out, vectors[q].conj(), axes=([q], [0]))
    return out


def _sequential_alternate(t, dims, vectors):
    """Reference: one start at a time, the loop the lockstep alternation replaced.

    Every normalization floors the norm at ``DEGENERACY_TOL``, so a start whose
    first contraction vanishes becomes the zero vector.  Returns ``(overlap,
    history, norms, stop_reason)``, ``norms`` holding every party step's
    contraction norm in order.
    """
    vectors = [np.asarray(v, dtype=complex).copy() for v in vectors]
    history = []
    norms = []
    for sweep in range(1, MAX_SWEEPS + 1):
        drift = 0.0
        for p in range(len(dims)):
            v = _sequential_contract(t, vectors, p)
            nv = np.linalg.norm(v)
            norms.append(float(nv))
            axial = (vectors[p].conj() @ v) * vectors[p]
            drift = max(drift, float(np.linalg.norm(v - axial)))
            vectors[p] = v / max(nv, DEGENERACY_TOL)
        history.append(float(nv * nv))
        if sweep > 1 and drift < SWEEP_RESIDUAL_TOL:
            return history[-1], history, norms, "settled"
    return history[-1], history, norms, "max_sweeps"


def _party_slices(dims, row):
    return np.split(row, np.cumsum(dims[:-1]))


def _sequential_restarts(s, restarts, seed):
    """Every start's reference run, one row of the block of starts at a time."""
    return [_sequential_alternate(s.tensor(), s.dims, _party_slices(s.dims, row))
            for row in canonical._starts(s.dims, restarts, seed)]


def _chosen_start(records):
    best = 0
    for r in range(1, len(records)):
        if records[r].overlap > records[best].overlap + canonical.TIE_TOL:
            best = r
    return best


def _assert_matches_sequential(form, reference):
    assert [r.restart for r in form.restarts] == list(range(len(reference)))
    for record, (overlap, history, _, reason) in zip(form.restarts, reference):
        assert record.sweeps == len(history)
        assert abs(record.overlap - overlap) <= 1e-12
        assert record.stop_reason == reason
    history = reference[_chosen_start(form.restarts)][1]
    assert len(form.history) == len(history)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(form.history, history))


def _with_vanishing_first_slice(dims, seed):
    t = random_state(dims, np.random.default_rng(seed)).tensor().copy()
    t.reshape(dims[0], -1)[:, 0] = 0.0
    return PureState(dims, t.reshape(-1) / np.linalg.norm(t))


_LOCKSTEP_CASES = [
    (dims, random_state(dims, np.random.default_rng([60, k])), k)
    for dims in ((2, 2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4, 4), (2, 3, 2, 2))
    for k in range(2)
] + [
    ("M4", make("M4"), 0),
    ("1111", from_terms((2,) * 4, {(1, 1, 1, 1): 1.0}), 0),
    # the W state with every qubit flipped: one |0> among three |1>
    ("flipped-W4", from_terms((2,) * 4, {tuple(int(q != k) for q in range(4)): 0.5
                                          for k in range(4)}), 1),
    ("(3, 3, 3)-vanishing", _with_vanishing_first_slice((3, 3, 3), 65), 2),
]


@pytest.mark.parametrize("label,s,seed", _LOCKSTEP_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in _LOCKSTEP_CASES])
def test_lockstep_matches_sequential_restarts(label, s, seed):
    form = canonicalize(s, restarts=8, seed=seed)
    reference = _sequential_restarts(s, 8, seed)
    _assert_matches_sequential(form, reference)
    assert {r.stop_reason for r in form.restarts} == {"settled"}
    vanishes = np.linalg.norm(s.tensor().reshape(s.dims[0], -1)[:, 0]) < DEGENERACY_TOL
    assert vanishes == (label in {"M4", "1111", "flipped-W4", "(3, 3, 3)-vanishing"})
    # Exactly a computational start whose first contraction vanishes settles
    # at once on the zero vector, and loses the tie.
    zero_rows = [r.restart for r in form.restarts
                 if (r.overlap, r.stop_reason, r.sweeps) == (0.0, "settled", 2)]
    assert zero_rows == ([0] if vanishes else [])
    assert _chosen_start(form.restarts) not in zero_rows
    assert form.sweeps in {r.sweeps for r in form.restarts}
    # The last party's phase is turned so that the |0...0> coefficient is real
    # and equal to sqrt(overlap).
    lead = form.state.amps[0]
    assert abs(lead.imag) <= 1e-13
    assert abs(lead - math.sqrt(form.overlap)) <= 1e-13
    # Each party step takes the exact maximizer with the others fixed, so the
    # overlap, and with it every later contraction norm, can only rise.
    for r, (_, _, norms, _) in enumerate(reference):
        assert (norms[0] >= DEGENERACY_TOL) == (r not in zero_rows)
        assert all(b >= a * (1.0 - 1e-14) for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("label,s", [("M4", make("M4")),
                                     ("(2, 3, 2, 2)", random_state((2, 3, 2, 2),
                                                                   np.random.default_rng(70)))])
def test_every_state_gets_the_same_starts(monkeypatch, label, s):
    # s hands _alternate bitwise the block that a random state of its dims gets,
    # for |M4> a random (2,2,2,2) state.
    blocks = []
    alternate = canonical._alternate

    def recording(t, vectors):
        blocks.append(vectors.copy())
        return alternate(t, vectors)

    monkeypatch.setattr(canonical, "_alternate", recording)
    seed, restarts = 3, 5
    for state in (s, random_state(s.dims, np.random.default_rng(71))):
        canonicalize(state, restarts=restarts, seed=seed)
    block, random_block = blocks
    assert np.array_equal(block, random_block)
    assert np.array_equal(block, canonical._starts(s.dims, restarts, seed))


@pytest.mark.filterwarnings("error")
def test_a_vanishing_start_settles_at_zero_and_loses():
    # The zero row keeps sweeping with the rest, normalized with the floor, not 0 / 0.
    s = _with_vanishing_first_slice((4, 4, 4, 4), 71)
    form = canonicalize(s, seed=0)
    assert (form.restarts[0].overlap, form.restarts[0].sweeps) == (0.0, 2)
    assert form.restarts[0].stop_reason == "settled"
    assert _chosen_start(form.restarts) != 0
    assert form.converged


def test_restart_records_do_not_depend_on_batch_size():
    for k in range(3):
        s = random_state((2, 2, 2, 2), np.random.default_rng([61, k]))
        small = canonicalize(s, restarts=4, seed=k).restarts
        large = canonicalize(s, restarts=16, seed=k).restarts
        assert small == large[:5]
    m4 = make("M4")
    assert canonicalize(m4, restarts=4).restarts == canonicalize(m4, restarts=16).restarts[:5]


def test_chosen_form_does_not_depend_on_batch_size():
    # Stopped starts keep sweeping with the rest, so a start's vectors must be
    # taken in the sweep where it stops for the form to match across batch sizes.
    states = [(random_state(dims, np.random.default_rng([64, k])), k)
              for dims in ((2, 2, 2, 2), (3, 3, 3), (2, 3, 2, 2)) for k in range(8)]
    compared = 0
    for s, seed in states + [(make("M4"), 0), (make("C4"), 0)]:
        small = canonicalize(s, restarts=4, seed=seed)
        large = canonicalize(s, restarts=16, seed=seed)
        if _chosen_start(large.restarts) >= 5:
            continue
        compared += 1
        assert np.array_equal(small.state.amps, large.state.amps)
        assert len(small.local_unitaries) == len(large.local_unitaries)
        for a, b in zip(small.local_unitaries, large.local_unitaries):
            assert np.array_equal(a, b)
        assert small.history == large.history
        assert small.polish == large.polish
    assert compared >= 4


def test_seeded_canonicalize_reruns_are_bitwise_identical():
    for s in (random_state((3, 3, 3), np.random.default_rng(62)), make("M4")):
        first = canonicalize(s, restarts=6, seed=5)
        second = canonicalize(s, restarts=6, seed=5)
        assert np.array_equal(first.state.amps, second.state.amps)
        for a, b in zip(first.local_unitaries, second.local_unitaries):
            assert np.array_equal(a, b)
        assert first.history == second.history
        assert first.restarts == second.restarts


def test_stop_reasons_tell_settled_and_sweep_cap_apart(monkeypatch):
    s = random_state((2, 2, 2, 2), np.random.default_rng(63))
    settled = canonicalize(s, restarts=3, seed=0).restarts
    assert {r.stop_reason for r in settled} == {"settled"}
    monkeypatch.setattr(canonical, "MAX_SWEEPS", 2)
    capped = canonicalize(s, restarts=3, seed=0)
    assert [(r.stop_reason, r.sweeps) for r in capped.restarts] == [("max_sweeps", 2)] * 4


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 4), (5,)])
def test_random_starts_are_pinned(dims):
    # Start r >= 1 is row r - 1 of one draw keyed [seed, 0, 1]: real parts, then
    # imaginary parts, each party's slice divided by its norm.
    offsets = np.cumsum((0,) + dims[:-1])
    for seed in range(3):
        block = canonical._starts(dims, 5, seed)
        assert block.shape == (6, sum(dims))
        assert np.array_equal(block[0], np.concatenate([np.eye(d)[0] for d in dims]))
        x = np.random.default_rng([seed, 0, 1]).standard_normal((5, 2, sum(dims)))
        for r in range(1, 6):
            re, im = x[r - 1]
            norms = np.sqrt(np.add.reduceat(re * re + im * im, offsets))
            assert np.array_equal(block[r], (re + 1j * im) / np.repeat(norms, dims))
            for vec in _party_slices(dims, block[r]):
                assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15


def test_a_start_does_not_depend_on_the_restart_count():
    for dims, seed in (((2, 2, 2, 2), 0), ((2, 3, 2, 2), 5), ((5, 5, 5), 1)):
        assert np.array_equal(canonical._starts(dims, 4, seed),
                              canonical._starts(dims, 16, seed)[:5])


def test_random_starts_have_haar_moments():
    # A Haar unit vector in dimension d has each |v_j|^2 Beta(1, d - 1): mean 1/d and
    # second moment 2/(d(d + 1)).
    draws = canonical._starts((2, 3, 4), 4000, 107)[1:]
    for p, d in enumerate((2, 3, 4)):
        weights = np.abs(np.array([_party_slices((2, 3, 4), row)[p] for row in draws])) ** 2
        for samples, expected in ((weights, 1.0 / d), (weights**2, 2.0 / (d * (d + 1)))):
            standard_error = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
            assert np.all(np.abs(samples.mean(axis=0) - expected) < 5.0 * standard_error)
