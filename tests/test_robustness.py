"""The batched robustness report, checked against a per-basis loop that exists
only here, plus its norm check and Hypothesis properties."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartet import catalog, cli
from quartet.core import (
    PARTY_LETTERS,
    DomainError,
    PureState,
    basis_state,
    random_state,
    reduced_matrix,
    state_to_json,
)
from quartet.entropy import eigenvalue_entropy, stacked_pair_entropies
from quartet.measure import (
    FRAGILE_TOL,
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
        for trial in range(trials):
            basis = random_basis(p, d, np.random.default_rng([seed, p, trial]))
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


ORACLE_STATES = {
    **{tag: (lambda t=tag: catalog.make(t)) for tag in ("M4", "C4", "PSI_EXAMPLE", "AME44")},
    **{f"random{dims}": (lambda d=dims: random_state(d, np.random.default_rng([80, *d])))
       for dims in ((2, 2, 2, 2), (4, 4, 4, 4), (2, 3, 4, 2))},
    "|0000>": lambda: basis_state((2, 2, 2, 2), (0, 0, 0, 0)),
}


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_report_matches_the_per_basis_loop(name):
    s = ORACLE_STATES[name]()
    for trials, seed in ((8, 0), (3, 7)):
        assert_same_report(robustness_report(s, trials, seed), _sequential_report(s, trials, seed))


def test_zero_probability_outcomes_are_undefined_and_computational_bases_fragile():
    report = robustness_report(basis_state((2, 2, 2, 2), (0, 0, 0, 0)), trials=2)
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
@pytest.mark.parametrize("argv", [["robustness", "--trials", "2"], ["measure", "--party", "A"]],
                         ids=["robustness", "measure"])
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
        bases = _party_bases(p, d, 3, seed)
        probs, _, _ = _branches(s, p, bases)
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-12
        for t, vectors in enumerate(bases[-3:]):
            expected = random_basis(p, d, np.random.default_rng([seed, p, t])).vectors
            assert np.array_equal(vectors, expected)


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
