"""The batched robustness report, checked against a per-basis loop that exists
only here, plus its norm check and Hypothesis properties."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartet import catalog, cli, core
from quartet import measure as measure_mod
from quartet.core import (
    PARTY_LETTERS,
    DomainError,
    PureState,
    ShapeError,
    apply_local_unitary,
    from_terms,
    random_state,
    random_unitary,
    reduced_matrix,
    state_to_json,
)
from quartet.entropy import eigenvalue_entropy, stacked_pair_entropies
from quartet.measure import (
    FRAGILE_TOL,
    PROB_FLOOR,
    SIGMA_PROB,
    MeasurementBasis,
    _branches,
    _party_bases,
    computational_basis,
    equivariance_overlap,
    measure,
    plus_minus_basis,
    random_basis,
    residual_pair_entropies,
    robustness_report,
)

FLOAT_TOL = 1e-12


# A test-only copy of the per-basis loop the report replaced: one ``measure``
# and one ``residual_pair_entropies`` per outcome.  It is the oracle for the report.


def _sequential_row(state, basis, party):
    entries, values = [], []
    for outcome in measure(state, basis):
        row = {"outcome": outcome.index, "probability": outcome.probability}
        if outcome.residual is None:
            row["undefined"] = True
        else:
            ent = residual_pair_entropies(outcome.residual, party, state.n_parties)
            row["entropies"] = ent
            values.extend(ent.values())
        entries.append(row)
    fragile = bool(values) and all(e < FRAGILE_TOL for e in values)
    return {"fragile": fragile, "outcomes": entries}, values


def _stats(values):
    return {"min": float(np.min(values)), "max": float(np.max(values)),
            "mean": float(np.mean(values))}


def _sequential_report(s, trials, seed):
    per_party, pooled = {}, []
    for p in range(4):
        d = s.dims[p]
        entry = {"computational": _sequential_row(s, computational_basis(p, d), p)[0]}
        if d == 2:
            entry["plusminus"] = _sequential_row(s, plus_minus_basis(p), p)[0]
        samples, fragile_trials = {}, []
        rng = np.random.default_rng([seed, p])
        for trial in range(trials):
            basis = random_basis(p, d, rng)
            row, values = _sequential_row(s, basis, p)
            if row["fragile"]:
                fragile_trials.append(trial)
            for outcome in row["outcomes"]:
                for pair, value in outcome.get("entropies", {}).items():
                    samples.setdefault(pair, []).append(value)
            pooled.extend(values)
        entry["random"] = {"pairs": {pair: _stats(v) for pair, v in sorted(samples.items())},
                           "fragile_trials": fragile_trials}
        per_party[PARTY_LETTERS[p]] = entry
    return {"trials": trials, "seed": seed, "per_party": per_party, "overall": _stats(pooled)}


def assert_same_report(actual, expected, path="report"):
    """Keys, their order, flags and integers equal; floats within FLOAT_TOL."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), path
        for key in expected:
            assert_same_report(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same_report(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert type(actual) is float and abs(actual - expected) <= FLOAT_TOL, path
    else:
        assert type(actual) is type(expected) and actual == expected, path


def _near_floor_product(dims, prob=1e-8):
    """A product state in which outcome 0 of each party's first random basis at seed 0
    has Born probability ``prob``: a superposition branch that the state's pair
    reductions give only to about 1e-16 / prob."""
    amps = np.ones(1, dtype=complex)
    for p, d in enumerate(dims):
        b = random_basis(p, d, np.random.default_rng([0, p])).vectors
        amps = np.kron(amps, np.sqrt(prob) * b[0] + np.sqrt(1.0 - prob) * b[1])
    return PureState(dims, amps)


ORACLE_STATES = {
    **{tag: (lambda t=tag: catalog.make(t)) for tag in ("M4", "C4", "PSI_EXAMPLE", "AME44")},
    **{f"random{dims}": (lambda d=dims: random_state(d, np.random.default_rng([80, *d])))
       for dims in ((2, 2, 2, 2), (4, 4, 4, 4), (2, 3, 4, 2))},
    "|0000>": lambda: from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1.0}),
    # Computational outcome 1 of every party has probability 1e-20, below PROB_FLOOR but not 0.
    "|0000>+1e-10|1111>": lambda: from_terms((2, 2, 2, 2), {(0, 0, 0, 0): np.sqrt(1 - 1e-20),
                                                           (1, 1, 1, 1): 1e-10}),
    **{f"product{dims}, a random branch at {prob:g}": (lambda d=dims, q=prob: _near_floor_product(d, q))
       for dims in ((2, 2, 2, 2), (4, 4, 4, 4), (2, 3, 4, 2)) for prob in (1e-8, 1e-3)},
}


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_report_matches_the_per_basis_loop(name):
    s = ORACLE_STATES[name]()
    for trials, seed in ((8, 0), (3, 7)):
        assert_same_report(robustness_report(s, trials, seed), _sequential_report(s, trials, seed))


def test_zero_probability_outcomes_are_undefined_and_computational_bases_fragile():
    report = robustness_report(from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1.0}), trials=2)
    for entry in report["per_party"].values():
        assert entry["computational"]["fragile"]
        assert entry["computational"]["outcomes"][1] == {"outcome": 1, "probability": 0.0,
                                                         "undefined": True}
        assert entry["random"]["fragile_trials"] == [0, 1]


def test_cli_random_measurement_equals_the_library_route(tmp_path, capsys):
    s = random_state((2, 3, 2, 2), np.random.default_rng(81))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(s)))
    for party in range(4):
        assert cli.dispatch(["measure", str(path), "--party", str(party), "--basis", "random",
                             "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        basis = random_basis(party, s.dims[party], np.random.default_rng([4, party]))
        expected = [{"outcome": o.index, "probability": o.probability,
                     "residual": state_to_json(o.residual),
                     "pair_entropies": residual_pair_entropies(o.residual, party, 4)}
                    for o in measure(s, basis)]
        assert payload["outcomes"] == json.loads(json.dumps(expected))


# ------------------------------------------------------------ one basis stream per party


def test_party_bases_do_not_depend_on_the_trial_count():
    for d in (2, 3, 4):
        named = 2 if d == 2 else 1
        for seed in (0, 5, 2**20):
            together = _party_bases((0, 1, 2, 3), d, 3, seed)
            for p in range(4):
                alone = _party_bases((p,), d, 3, seed)[0]
                assert np.array_equal(alone, _party_bases((p,), d, 8, seed)[0][:named + 3])
                assert np.array_equal(alone, together[p])


def test_report_bases_continue_the_cli_random_basis(tmp_path, capsys, monkeypatch):
    # Trial t of party p is the t-th basis ``random_basis`` draws from the
    # generator ``quartet measure --basis random`` uses, so trial 0 is its basis,
    # whether p has a pass of its own or shares one.
    seen = {}

    def recording(parties, d, trials, seed):
        bases = _party_bases(parties, d, trials, seed)
        seen.update(zip(parties, bases))
        return bases

    monkeypatch.setattr(measure_mod, "_party_bases", recording)
    path = tmp_path / "state.json"
    for dims in ((2, 3, 4, 2), (2, 2, 2, 2)):
        s = random_state(dims, np.random.default_rng(82))
        seen.clear()
        robustness_report(s, trials=5, seed=6)
        assert sorted(seen) == [0, 1, 2, 3]
        path.write_text(json.dumps(state_to_json(s)))
        for p, d in enumerate(s.dims):
            rng = np.random.default_rng([6, p])
            expected = [random_basis(p, d, rng).vectors for _ in range(5)]
            assert np.array_equal(seen[p][-5:], expected)
            assert cli.dispatch(["measure", str(path), "--party", str(p), "--basis", "random",
                                 "--seed", "6"]) == 0
            printed = json.loads(capsys.readouterr().out)["basis_vectors"]
            assert np.array_equal(np.array(printed) @ [1.0, 1j], expected[0])


@pytest.mark.parametrize("trials", [1, 8, 40])
def test_a_report_builds_one_generator_per_party(monkeypatch, trials):
    built = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    robustness_report(catalog.make("M4"), trials=trials, seed=3)
    assert built == [([3, p],) for p in range(4)]


# Parties whose residuals have equal dims share one pass, split so that a pass holds
# no more bases than one party at MAX_TRIALS; each pass draws its bases in one call and
# completes them in d - 1, one Householder reflection per dimension from d down to 2.
# The state's norm is checked once, and each pass reads its pair reductions with one
# pair_cuts call per residual dim, so every ordered pair is read once.
@pytest.mark.parametrize("dims, max_trials, passes", [
    ((2, 2, 2, 2), 4096, [(0, 1, 2, 3)]),
    ((4, 4, 4, 4), 4096, [(0, 1, 2, 3)]),
    ((2, 3, 2, 2), 4096, [(0,), (1,), (2, 3)]),
    ((3, 3, 2, 2), 4096, [(0, 1), (2, 3)]),
    ((2, 3, 4, 2), 4096, [(0,), (1,), (2,), (3,)]),
    ((2, 2, 2, 2), 10, [(0, 1), (2, 3)]),
    ((2, 2, 2, 2), 4, [(0,), (1,), (2,), (3,)]),
])
def test_a_report_makes_one_call_per_pass(monkeypatch, dims, max_trials, passes):
    s = random_state(dims, np.random.default_rng(85))
    expected = _sequential_report(s, 4, 2)
    calls = {"_party_bases": [], "unitary_from_first_column": [], "check_normalized": [],
             "pair_cuts": []}
    for name, log in calls.items():
        def counted(*args, _original=getattr(measure_mod, name), _log=log):
            _log.append(args)
            return _original(*args)
        monkeypatch.setattr(measure_mod, name, counted)
    monkeypatch.setattr(measure_mod, "MAX_TRIALS", max_trials)
    report = robustness_report(s, trials=4, seed=2)
    assert [tuple(args[0]) for args in calls["_party_bases"]] == passes
    assert len(calls["unitary_from_first_column"]) == sum(dims[ps[0]] - 1 for ps in passes)
    assert len(calls["check_normalized"]) == 1
    rests = [dims[:ps[0]] + dims[ps[0] + 1:] for ps in passes]
    assert len(calls["pair_cuts"]) == sum(len(set(rest)) for rest in rests)
    assert all(len({(dims[p], dims[q]) for p, q in args[2]}) == 1 for args in calls["pair_cuts"])
    assert sorted(pair for args in calls["pair_cuts"] for pair in args[2]) == sorted(
        itertools.permutations(range(4), 2))
    assert_same_report(report, expected)


def test_a_report_builds_no_residual_state(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("residual route called")

    monkeypatch.setattr(measure_mod, "_branches", forbidden)
    monkeypatch.setattr(measure_mod, "stacked_pair_entropies", forbidden)
    for dims in ((2, 2, 2, 2), (2, 3, 4, 2)):
        robustness_report(random_state(dims, np.random.default_rng(86)), trials=3)
    robustness_report(catalog.make("C4"), trials=3)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (4, 4, 4, 4)], ids=["2222", "4444"])
def test_only_branches_below_sigma_prob_are_read_from_their_vectors(monkeypatch, dims):
    # Every defined branch below SIGMA_PROB, and no other, reaches stacked_pair_entropies,
    # in one call per pass; that pass, the only one, reads them with one _branches call.
    s = _near_floor_product(dims)
    read, branched = [], []

    def recording(amps, rest):
        read.append(amps)
        return stacked_pair_entropies(amps, rest)

    def counted(s, parties, vectors):
        branched.append(tuple(parties))
        return _branches(s, parties, vectors)

    monkeypatch.setattr(measure_mod, "stacked_pair_entropies", recording)
    monkeypatch.setattr(measure_mod, "_branches", counted)
    report = robustness_report(s, trials=1, seed=0)
    monkeypatch.undo()
    assert branched == [(0, 1, 2, 3)]
    probs = [o.probability for p in range(4)
             for basis in _party_bases((p,), dims[p], 1, 0)[0]
             for o in measure(s, MeasurementBasis(p, basis))]
    assert len(read) == 1
    assert read[0].shape[0] == sum(PROB_FLOOR <= q < SIGMA_PROB for q in probs) >= 4
    # A product state leaves product residuals: every basis is fragile, trial 0 included.
    assert all(entry["random"]["fragile_trials"] == [0] for entry in report["per_party"].values())


# M4's residual entropies are all equal, and a mean of equal values can round one
# ulp outside them; the report keeps every mean within its min and max.
ORDERING_STATES = {
    "M4": lambda: catalog.make("M4"),
    "C4": lambda: catalog.make("C4"),
    **{f"random{i}": (lambda i=i: random_state(((2, 2, 2, 2), (2, 3, 4, 2), (4, 4, 4, 4))[i % 3],
                                               np.random.default_rng([87, i])))
       for i in range(10)},
}


@pytest.mark.parametrize("name", list(ORDERING_STATES))
def test_report_means_lie_within_their_min_and_max(name):
    report = robustness_report(ORDERING_STATES[name](), trials=64, seed=1)
    rows = [stats for entry in report["per_party"].values()
            for stats in entry["random"]["pairs"].values()] + [report["overall"]]
    assert len(rows) == 13
    for stats in rows:
        assert stats["min"] <= stats["mean"] <= stats["max"]


def _reported_entropies(report):
    """Every entropy a report prints: outcome entropies and the min, max and mean rows."""
    entries = report["per_party"].values()
    rows = [stats for e in entries for stats in e["random"]["pairs"].values()] + [report["overall"]]
    outcomes = [o for e in entries for name in ("computational", "plusminus") if name in e
                for o in e[name]["outcomes"]]
    return ([v for o in outcomes for v in o["entropies"].values() if v is not None]
            + [stats[k] for stats in rows for k in ("min", "max", "mean") if stats[k] is not None])


@pytest.mark.parametrize("name", [n for n in ORACLE_STATES if n.startswith("product")])
def test_every_reported_entropy_of_a_product_state_is_nonnegative(name):
    # Product residuals have pure spectra, whose top eigenvalue can round just above 1.
    values = _reported_entropies(robustness_report(ORACLE_STATES[name](), trials=3, seed=0))
    assert len(values) > 40
    assert min(values) >= 0.0


# ------------------------------------------------------------ equivariance overlap


def _sequential_overlap(s, party, u):
    """A test-only copy of the per-outcome loop ``equivariance_overlap`` replaced."""
    rotated = measure(s, MeasurementBasis(party, u.T))
    plain = measure(s, computational_basis(party, s.dims[party]))
    overlaps = []
    for rot, comp in zip(rotated, plain):
        if rot.residual is None or comp.residual is None:
            continue
        carried = comp.residual
        for q in range(carried.n_parties):
            carried = apply_local_unitary(carried, q, u)
        overlaps.append(abs(np.vdot(rot.residual.amps, carried.amps)))
    return float(min(overlaps))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(3, 5), st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_equivariance_overlap_matches_the_per_outcome_loop(n, d, party, seed):
    rng = np.random.default_rng(seed)
    s = random_state((d,) * n, rng)
    u = random_unitary(d, rng)
    assert abs(equivariance_overlap(s, party % n, u) - _sequential_overlap(s, party % n, u)) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_m4_equivariance_overlap_is_one_for_any_qubit_unitary(party, seed):
    u = random_unitary(2, np.random.default_rng(seed))
    assert abs(equivariance_overlap(catalog.make("M4"), party, u) - 1.0) <= 1e-12


def test_equivariance_overlap_makes_one_branch_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _branches(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-outcome route called")

    monkeypatch.setattr(measure_mod, "_branches", counted)
    assert not hasattr(measure_mod, "apply_local_unitary")
    monkeypatch.setattr(core, "apply_local_unitary", forbidden)
    monkeypatch.setattr(measure_mod, "measure", forbidden)
    equivariance_overlap(catalog.make("M4"), 2, random_unitary(2, np.random.default_rng(83)))
    assert calls == [(2,)]


def test_equivariance_overlap_rejects_a_unitary_that_does_not_fit():
    s = random_state((2, 3, 2), np.random.default_rng(84))
    with pytest.raises(ShapeError):
        equivariance_overlap(s, 0, np.eye(2))
    with pytest.raises(ShapeError):
        equivariance_overlap(s, 1, np.eye(2))
    with pytest.raises(DomainError):
        equivariance_overlap(catalog.make("M4"), 0, np.array([[1.0, 1.0], [0.0, 1.0]]))


# ------------------------------------------------------------ unnormalized input


UNNORMALIZED = {
    "2*M4": lambda: PureState((2, 2, 2, 2), 2.0 * catalog.make("M4").amps),
    "zero": lambda: PureState((2, 2, 2, 2), np.zeros(16)),
}


@pytest.mark.parametrize("name", list(UNNORMALIZED))
def test_unnormalized_states_are_rejected(name):
    s = UNNORMALIZED[name]()
    with pytest.raises(DomainError, match="squared norm"):
        measure(s, computational_basis(0))
    with pytest.raises(DomainError, match="squared norm"):
        robustness_report(s, trials=1)
    with pytest.raises(DomainError, match="squared norm"):
        equivariance_overlap(s, 0, np.eye(2))


@pytest.mark.parametrize("name", list(UNNORMALIZED))
@pytest.mark.parametrize("argv", [["robustness", "--trials", "2"], ["measure", "--party", "A"],
                                  ["profile"], ["stationarity"], ["canonicalize"]],
                         ids=["robustness", "measure", "profile", "stationarity", "canonicalize"])
def test_cli_rejects_unnormalized_states(tmp_path, capsys, name, argv):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(UNNORMALIZED[name]())))
    code = cli.dispatch([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


# ------------------------------------------------------------ properties


@st.composite
def four_party_states(draw):
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=4, max_size=4)))
    return random_state(dims, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(four_party_states(), st.integers(0, 2**16))
def test_every_basis_of_the_report_is_born_complete(s, seed):
    for p, d in enumerate(s.dims):
        bases = _party_bases((p,), d, 3, seed)
        probs, _, _ = _branches(s, (p,), bases)
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-12
        rng = np.random.default_rng([seed, p])
        for t, vectors in enumerate(bases[0, -3:]):
            expected = random_basis(p, d, rng).vectors
            assert np.array_equal(vectors, expected)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.lists(st.sampled_from([2, 3]), min_size=4, max_size=4), st.integers(1, 3),
       st.integers(0, 2**16), st.integers(0, 2**32 - 1))
def test_report_matches_the_per_basis_loop_on_mixed_dims(dims, trials, seed, state_seed):
    s = random_state(tuple(dims), np.random.default_rng(state_seed))
    assert_same_report(robustness_report(s, trials, seed), _sequential_report(s, trials, seed))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
def test_complement_side_matches_the_pair_itself(dims, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_state(dims, rng).amps for _ in range(3)])
    values = stacked_pair_entropies(stack, dims)
    for row, amps in zip(values, stack):
        for value, pair in zip(row, itertools.combinations(range(3), 2)):
            lam = np.linalg.eigvalsh(reduced_matrix(amps, dims, pair))
            assert abs(value - float(eigenvalue_entropy(lam))) <= 1e-10
