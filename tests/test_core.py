"""States, reductions, local operators, and the JSON state format."""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quartet
from quartet.ascent import haar_starts
from quartet.core import (
    UNIT_NORM_TOL,
    DomainError,
    PureState,
    ShapeError,
    apply_kept_operator,
    apply_local_unitary,
    balanced_cuts,
    check_normalized,
    check_unitary,
    from_terms,
    partial_trace,
    party_index,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
)


def test_pure_state_layout_row_major():
    # party 0 most significant: |0110> sits at flat index ((0*2+1)*2+1)*2+0 = 6
    s = from_terms((2, 2, 2, 2), {(0, 1, 1, 0): 1.0})
    assert s.amps[6] == 1.0
    assert s.tensor()[0, 1, 1, 0] == 1.0
    assert np.count_nonzero(s.amps) == 1


def test_pure_state_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        PureState((2, 2), np.zeros(5, dtype=complex))
    with pytest.raises(DomainError):
        PureState((2, 1), np.zeros(2, dtype=complex))
    with pytest.raises(DomainError):
        PureState((), np.zeros(1, dtype=complex))
    with pytest.raises(DomainError):
        PureState((2,) * 9, np.zeros(2**9, dtype=complex))
    with pytest.raises(DomainError):
        PureState((2,), np.array([np.nan, 0.0]))


def test_pure_state_dims_must_be_integers():
    s = PureState((np.int64(2), np.int32(2)), np.ones(4) / 2)
    assert s.dims == (2, 2) and all(type(d) is int for d in s.dims)
    for dims in ((2.9, 2), (2.0, 2), (True, 2), (2, "2")):
        with pytest.raises(DomainError):
            PureState(dims, np.ones(4) / 2)


def test_amps_are_immutable():
    s = from_terms((2, 2), {(0, 1): 1.0})
    with pytest.raises(ValueError):
        s.amps[0] = 1.0


def test_from_terms_builds_expected_amplitudes():
    s = from_terms((2, 2), {(0, 1): 1.0, (1, 0): 1.0j})
    assert s.amps[1] == 1.0
    assert s.amps[2] == 1.0j
    assert s.amps[0] == 0.0 and s.amps[3] == 0.0


def test_conjugate_round_trip():
    rng = np.random.default_rng(3)
    s = random_state((2, 3), rng)
    conjugate = PureState(s.dims, s.amps.conj())
    assert np.array_equal(PureState(s.dims, conjugate.amps.conj()).amps, s.amps)


def _einsum_pair_reduction(t, keep):
    """Independent reduction route: uppercase einsum labels on the conjugate copy."""
    labels = "ijkl"
    kept = "".join(labels[p] for p in keep)
    upper = {c: c.upper() for c in kept}
    second = "".join(upper.get(c, c) for c in labels)
    target = kept + "".join(upper[c] for c in kept)
    d = int(np.prod([t.shape[p] for p in keep]))
    return np.einsum(f"{labels},{second}->{target}", t, t.conj()).reshape(d, d)


def test_partial_trace_matches_einsum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_state((2, 2, 2, 2), rng)
        keep = tuple(sorted(rng.choice(4, size=2, replace=False).tolist()))
        rho = partial_trace(s, keep)
        oracle = _einsum_pair_reduction(s.tensor(), keep)
        assert np.max(np.abs(rho - oracle)) < 1e-13


def test_partial_trace_accepts_letters():
    s = random_state((2, 2, 2, 2), np.random.default_rng(5))
    a = partial_trace(s, ("A", "C"))
    b = partial_trace(s, (0, 2))
    assert np.array_equal(a, b)


def test_partial_trace_trace_one_and_psd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = random_state((2, 2, 2), rng)
        rho = partial_trace(s, (0, 2))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_partial_trace_rejects_improper_subsets():
    s = random_state((2, 2), np.random.default_rng(0))
    with pytest.raises(DomainError):
        partial_trace(s, ())
    with pytest.raises(DomainError):
        partial_trace(s, (0, 1))
    with pytest.raises(DomainError):
        partial_trace(s, (3,))


def test_complementary_reductions_share_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(25):
        s = random_state((2, 2, 2, 2), rng)
        a = np.linalg.eigvalsh(partial_trace(s, (0, 1)))
        b = np.linalg.eigvalsh(partial_trace(s, (2, 3)))
        assert np.max(np.abs(a - b)) < 1e-10


def test_balanced_cuts_list_each_cut_once_from_party_0_when_even():
    assert [len(balanced_cuts(n)) for n in range(2, 9)] == [1, 3, 3, 10, 10, 35, 35]
    assert balanced_cuts(2) == ((0,),)
    assert balanced_cuts(4) == ((0, 1), (0, 2), (0, 3))
    for n in range(2, 9):
        cuts = balanced_cuts(n)
        assert all(len(rows) == n // 2 for rows in cuts)
        assert n % 2 or all(0 in rows for rows in cuts)
        # A cut is the unordered pair of its sides; none appears twice.
        sides = {frozenset((rows, tuple(q for q in range(n) if q not in rows))) for rows in cuts}
        assert len(sides) == len(cuts)


def test_eigh_order_reconstruction_orthonormality():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = random_state((2, 2, 2), rng)
        rho = partial_trace(s, (0, 1))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        lam, vec = np.linalg.eigh(rho)
        assert np.all(np.diff(lam) >= -1e-14)
        recon = (vec * lam) @ vec.conj().T
        assert np.max(np.abs(recon - rho)) < 1e-12
        assert np.max(np.abs(vec.conj().T @ vec - np.eye(4))) < 1e-12


def test_apply_local_unitary_preserves_norm():
    rng = np.random.default_rng(23)
    s = random_state((2, 3, 2), rng)
    u = random_unitary(3, rng)
    t = apply_local_unitary(s, 1, u)
    assert abs(np.linalg.norm(t.amps) - np.linalg.norm(s.amps)) < 1e-12
    back = apply_local_unitary(t, 1, u.conj().T)
    assert np.max(np.abs(back.amps - s.amps)) < 1e-12


def test_apply_local_unitary_rejects_nonunitary():
    s = random_state((2, 2), np.random.default_rng(1))
    with pytest.raises(DomainError):
        apply_local_unitary(s, 0, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ShapeError):
        apply_local_unitary(s, 0, np.eye(3))


def test_apply_kept_operator_matches_matrix_route():
    rng = np.random.default_rng(29)
    s = random_state((2, 2, 2), rng)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = apply_kept_operator(s.tensor(), op, (0, 2)).reshape(-1)
    # dense route: permute kept axes to the front, apply, permute back
    t = np.moveaxis(s.tensor(), (0, 2), (0, 1))
    dense = (op @ t.reshape(4, 2))
    dense = np.moveaxis(dense.reshape(2, 2, 2), (0, 1), (0, 2)).reshape(-1)
    assert np.max(np.abs(out - dense)) < 1e-13


def test_random_state_seeded_and_normalized():
    a = random_state((2, 2, 2, 2), np.random.default_rng(101))
    b = random_state((2, 2, 2, 2), np.random.default_rng(101))
    assert np.array_equal(a.amps, b.amps)
    assert abs(np.linalg.norm(a.amps) - 1.0) < 1e-12


def test_check_unitary_rejects_any_matrix_of_a_stack():
    stack = np.stack([random_unitary(3, np.random.default_rng(k)) for k in range(4)])
    check_unitary(stack)
    check_unitary(stack[0])
    for bad in ((1.0 + 4e-11) * np.eye(3), np.full((3, 3), np.nan), np.full((3, 3), np.inf),
                np.full((3, 3), 1e200)):
        damaged = stack.copy()
        damaged[2] = bad
        with pytest.raises(DomainError, match="not unitary"):
            check_unitary(damaged)


@pytest.mark.parametrize("d", [0, 1])
def test_random_unitary_rejects_a_dimension_below_two(d):
    with pytest.raises(DomainError, match="dim must be >= 2"):
        random_unitary(d, np.random.default_rng(5))


def test_random_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4):
        u = random_unitary(d, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12
    x = random_unitary(2, np.random.default_rng(42))
    y = random_unitary(2, np.random.default_rng(42))
    assert np.array_equal(x, y)


def assert_mean_within_five_standard_errors(samples, expected):
    """Each column of ``samples`` (N, ...) has its mean within 5 standard errors of ``expected``."""
    standard_error = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - expected) < 5.0 * standard_error)


# A Haar state of four qubits has mean AB|CD purity 8/17 (Lubkin, J. Math. Phys. 19, 1028
# (1978)) and mean AB entropy sum_{k=5}^{16} 1/k - 3/8 nats (Page, PRL 71, 1291 (1993)).
LUBKIN_PURITY = 8 / 17
PAGE_ENTROPY_BITS = (math.fsum(1 / k for k in range(5, 17)) - 3 / 8) / math.log(2)


@pytest.mark.parametrize("sampler", ["random_state", "haar_starts"])
def test_haar_states_have_lubkin_purity_and_page_entropy(sampler):
    n = 4000
    if sampler == "random_state":
        rng = np.random.default_rng(104)
        amps = np.array([random_state((2, 2, 2, 2), rng).amps for _ in range(n)])
    else:
        amps = np.array(list(haar_starts((2, 2, 2, 2), n, 105)))
    m = amps.reshape(n, 4, 4)
    lam = np.clip(np.linalg.eigvalsh(m @ m.conj().swapaxes(1, 2)), 1e-300, None)
    assert_mean_within_five_standard_errors(np.sum(lam**2, axis=1), LUBKIN_PURITY)
    assert_mean_within_five_standard_errors(-np.sum(lam * np.log2(lam), axis=1), PAGE_ENTROPY_BITS)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_unitary_has_haar_moments(d):
    # Each |u_jk|^2 of a Haar unitary is Beta(1, d - 1): mean 1/d, second moment 2/(d(d + 1)).
    rng = np.random.default_rng([106, d])
    weights = np.abs(np.array([random_unitary(d, rng) for _ in range(2000)])) ** 2
    assert_mean_within_five_standard_errors(weights, 1.0 / d)
    assert_mean_within_five_standard_errors(weights**2, 2.0 / (d * (d + 1)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_unitary_has_haar_phases(d):
    # Haar on U(d), not only Haar columns up to phase: every entry u_jk and tr U^2 have mean 0
    # (E|tr U^2|^2 = 2). A sampler that fixes the last column's phase reads E[tr U^2] = 1/2 at d = 2.
    rng = np.random.default_rng([107, d])
    u = np.array([random_unitary(d, rng) for _ in range(2000)])
    for samples in (u.reshape(len(u), -1), np.trace(u @ u, axis1=1, axis2=2)):
        assert_mean_within_five_standard_errors(samples.real, 0.0)
        assert_mean_within_five_standard_errors(samples.imag, 0.0)


def test_party_index_letters_and_bounds():
    assert party_index("A", 4) == 0
    assert party_index("d", 4) == 3
    assert party_index(2, 4) == 2
    assert party_index("1", 4) == 1
    with pytest.raises(DomainError):
        party_index("E", 4)
    with pytest.raises(DomainError):
        party_index(4, 4)
    with pytest.raises(DomainError):
        party_index("xy", 4)


def test_state_json_round_trip_bitwise():
    rng = np.random.default_rng(37)
    s = random_state((2, 3, 2), rng)
    text = json.dumps(state_to_json(s))
    back = state_from_json(json.loads(text))
    assert back.dims == s.dims
    assert np.array_equal(back.amps, s.amps)
    # Ints, floats, -0.0 and ints past 2**53 read bit for bit as float() reads each part.
    amps = [[1, -0.0], [0.1, 2**70], [-(2**70) - 1, 3], [-0.0, 2**1023]]
    back = state_from_json({"dims": [2, 2], "amps": amps})
    reference = np.array([complex(float(re), float(im)) for re, im in amps])
    assert np.array_equal(back.amps.view(np.int64), reference.view(np.int64))


def test_state_json_ignores_unknown_keys():
    s = from_terms((2, 2), {(1, 0): 1.0})
    doc = state_to_json(s)
    doc["manifest"] = {"command": "catalog"}
    back = state_from_json(doc)
    assert np.array_equal(back.amps, s.amps)


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        {"dims": [2, 2]},
        {"dims": "22", "amps": []},
        {"dims": [2, 2], "amps": [[0, 0]] * 3},
        {"dims": [2, 2], "amps": [[0, 0], [0, 0], [0, 0], [0]]},
        {"dims": [2, 2], "amps": [[0, 0], [0, 0], [0, 0], ["x", 0]]},
        # float() takes a numeric string or a bool, but neither is a JSON number.
        {"dims": [2], "amps": [["1", "0"], [0, 0]]},
        {"dims": [2], "amps": [[True, False], [0, 0]]},
        {"dims": [2], "amps": [[1, 0], [0, False]]},
        {"dims": [True, 2], "amps": [[1, 0], [0, 0]]},
    ],
)
def test_state_json_rejects_malformed(payload):
    with pytest.raises(DomainError):
        state_from_json(payload)


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"dims": [2], "amps": [["1", "0"], [0, 0]]}, r'"amps"\[0\] is not numeric'),
        ({"dims": [2], "amps": [[1, 0], [0, False]]}, r'"amps"\[1\] is not numeric'),
        ({"dims": [True, 2], "amps": [[1, 0], [0, 0]]}, '"dims" must be a list of integers'),
        ({"dims": [], "amps": []}, "a state has 1 to 8 parties, got 0"),
        ({"dims": [2] * 9, "amps": []}, "a state has 1 to 8 parties, got 9"),
        ({"dims": [1, 2], "amps": [[1, 0], [0, 0]]}, '"dims" entries must all be >= 2'),
        ({"dims": [-2, -2], "amps": [[1, 0]] + [[0, 0]] * 3}, '"dims" entries must all be >= 2'),
        # Past Python's integer-to-text limit a dim cannot be printed, and is not.
        ({"dims": [-(10**5000), 0], "amps": []}, '"dims" entries must all be >= 2'),
    ],
    ids=["string", "bool", "bool-dim", "no-parties", "nine-parties", "dim-1", "negative-dims",
         "unprintable-dim"],
)
def test_state_json_names_what_is_malformed(payload, message):
    with pytest.raises(DomainError, match=message):
        state_from_json(payload)


def test_state_json_rejects_amps_that_are_not_a_list():
    with pytest.raises(DomainError, match='"amps" must be a list'):
        state_from_json({"dims": [2, 2], "amps": {"0": [1.0, 0.0]}})


# Any JSON value a malformed state file could hold, oversized integers included.
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.floats(allow_nan=True, allow_infinity=True),
                         st.integers(), st.sampled_from([10**400, -(10**400)]))
_HUGE = st.integers(10**309, 10**400) | st.integers(-(10**400), -(10**309))


@st.composite
def state_payloads(draw):
    """A well-formed payload of 2-4 parties of dims 2-4, then one kind of damage."""
    damage = draw(st.sampled_from(["none", "entries", "overflow", "length", "dims", "payload"]))
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    n = math.prod(dims)
    pair = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
    # One drawn seed gives every amplitude: drawing n pairs through Hypothesis costs seconds.
    amps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, (n, 2)).tolist()
    if damage == "entries":
        for _ in range(draw(st.integers(1, 3))):
            amps[draw(st.integers(0, n - 1))] = draw(st.one_of(
                st.lists(_JSON_VALUES, min_size=2, max_size=2), st.lists(_JSON_VALUES), _JSON_VALUES))
    elif damage == "overflow":
        amps[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(_HUGE)
    elif damage == "length":
        amps = draw(st.lists(pair, max_size=n + 1).filter(lambda a: len(a) != n))
    elif damage == "dims":
        dims = draw(st.one_of(st.lists(st.integers(-1, 5), max_size=4),
                              st.lists(_JSON_VALUES, max_size=4), _JSON_VALUES))
    elif damage == "payload":
        return draw(st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES),
                              st.just({"amps": amps}), st.just({"dims": dims})))
    return {"dims": dims, "amps": amps}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(state_payloads())
def test_state_from_json_returns_a_state_or_a_domain_error(payload):
    try:
        s = state_from_json(payload)
    except (DomainError, ShapeError):
        return
    assert isinstance(s, PureState) and list(s.dims) == payload["dims"]


@pytest.mark.parametrize("amp", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_state_json_rejects_an_amplitude_too_large_for_a_float(amp):
    with pytest.raises(DomainError, match=r'"amps"\[0\] is not numeric'):
        state_from_json({"dims": [2, 2], "amps": [[amp, 0], [0, 0], [0, 0], [0, 0]]})
    # The first pair beyond float range is named, whichever part holds it; an
    # infinite float is in range.
    with pytest.raises(DomainError, match=r'"amps"\[2\] is not numeric'):
        state_from_json({"dims": [2, 2], "amps": [[2**1023, 0], [math.inf, 0], [0, amp], [amp, 0]]})


def test_check_normalized_rejects_any_state_of_a_stack():
    stack = np.stack([random_state((2, 3), np.random.default_rng(k)).amps for k in range(3)])
    check_normalized(stack)
    check_normalized(stack[0] * np.sqrt(1.0 + 0.5 * UNIT_NORM_TOL))
    # 1e200 overflows the norm, which fails the check without a warning.
    for bad in (2.0, 0.0, np.sqrt(1.0 + 2.0 * UNIT_NORM_TOL), np.nan, 1e200):
        scaled = stack.copy()
        scaled[1] *= bad
        with pytest.raises(DomainError, match="squared norm deviates from 1 by more than 1e-08"):
            check_normalized(scaled)


def test_package_names_of_submodules_are_the_submodules():
    # ``quartet.entropy`` and ``quartet.measure`` also name functions inside those modules.
    assert isinstance(quartet.entropy, types.ModuleType)
    assert isinstance(quartet.measure, types.ModuleType)
    assert quartet.entropy.entropy.__module__ == "quartet.entropy"
    assert quartet.measure.measure.__module__ == "quartet.measure"
