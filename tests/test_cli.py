"""Command-line interface tests, run in process through ``dispatch``."""

import argparse
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quartet
from quartet import acceptance, ascent, canonical, catalog, cli
from quartet.acceptance import CriterionResult
from quartet.core import random_state, state_to_json

TARGET_AVERAGE = 1.0 + 0.5 * math.log2(3.0)
RESIDUAL_ENTROPY = math.log2(3.0) - 2.0 / 3.0


def run_cli(capsys, argv):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def write_state(tmp_path, tag, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(state_to_json(catalog.make(tag))))
    return str(path)


def strip_duration(payload):
    payload = json.loads(json.dumps(payload))
    payload["manifest"].pop("duration_seconds")
    return payload


def test_no_arguments_is_usage_error(capsys):
    assert cli.dispatch([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.dispatch(["frobnicate"]) == 2


def test_catalog_payload_and_manifest(capsys):
    code, payload, _ = run_cli(capsys, ["catalog", "M4"])
    assert code == 0
    assert payload["dims"] == [2, 2, 2, 2]
    assert len(payload["amps"]) == 16
    manifest = payload["manifest"]
    assert manifest["command"] == "catalog"
    assert manifest["params"]["tag"] == "M4"
    assert manifest["version"] == quartet.__version__
    assert manifest["duration_seconds"] >= 0.0


def test_catalog_unknown_tag(capsys):
    code, payload, err = run_cli(capsys, ["catalog", "NOPE"])
    assert code == 1
    assert payload is None
    assert "error:" in err


def test_pretty_flag_indents(capsys):
    cli.dispatch(["catalog", "C2", "--pretty"])
    pretty = capsys.readouterr().out
    cli.dispatch(["catalog", "C2"])
    flat = capsys.readouterr().out
    assert pretty.startswith("{\n  ")
    assert "\n" not in flat.strip()
    assert json.loads(pretty)["amps"] == json.loads(flat)["amps"]


def test_entropy_of_catalog_state(tmp_path, capsys):
    path = write_state(tmp_path, "M4")
    code, payload, _ = run_cli(capsys, ["profile", path])
    assert code == 0
    assert payload["average"] == pytest.approx(TARGET_AVERAGE, abs=1e-10)
    assert set(payload["pairs"]) == {"AB", "AC", "AD", "BC", "BD", "CD"}


def test_stdin_dash_reads_state(monkeypatch, capsys):
    serialized = json.dumps(state_to_json(catalog.make("C4")))
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialized))
    code, payload, _ = run_cli(capsys, ["profile", "-"])
    assert code == 0
    assert payload["average"] == pytest.approx(1.0, abs=1e-10)


# Every subcommand that takes a state file, with the options it needs.
STATE_COMMANDS = {
    "profile": [],
    "canonicalize": [],
    "stationarity": [],
    "measure": ["--party", "A"],
    "robustness": [],
}


@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_missing_state_file(tmp_path, capsys, command):
    argv = [command, str(tmp_path / "missing.json")] + STATE_COMMANDS[command]
    code, payload, err = run_cli(capsys, argv)
    assert code == 1 and payload is None
    assert err.startswith("error:") and "missing.json" in err and "Traceback" not in err


@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_unnormalized_state_file(tmp_path, capsys, command):
    doc = state_to_json(catalog.make("M4"))
    doc["amps"] = [[2 * re, 2 * im] for re, im in doc["amps"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_cli(capsys, [command, str(path)] + STATE_COMMANDS[command])
    assert code == 1 and payload is None
    assert err.startswith("error:") and "norm" in err and "Traceback" not in err


# Finite amplitudes whose norm overflows fail the norm check without a warning,
# which this suite's filterwarnings = error would raise.
@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_a_state_file_whose_norm_overflows(tmp_path, capsys, command):
    path = tmp_path / "huge_norm.json"
    path.write_text(json.dumps({"dims": [2, 2, 2, 2], "amps": [[1e200, 0.0]] * 16}))
    code, payload, err = run_cli(capsys, [command, str(path)] + STATE_COMMANDS[command])
    assert code == 1 and payload is None
    assert err.startswith("error: squared norm deviates") and "Traceback" not in err


def test_malformed_state_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["profile", str(path)])
    assert code == 1 and "error:" in err
    path.write_text(json.dumps({"dims": [2, 2], "amps": [[1.0, 0.0]]}))
    code, _, err = run_cli(capsys, ["profile", str(path)])
    assert code == 1 and "error:" in err


def _amplitude_file(first: str) -> str:
    return '{"dims": [2, 2], "amps": [[%s, 0], [0, 0], [0, 0], [0, 0]]}' % first


def _huge_dims_file(parties: int) -> str:
    return json.dumps({"dims": [10**1500] * parties, "amps": [[1, 0]]})


# A 400-digit integer overflows a float; past 4300 digits json cannot parse it at all,
# and three parseable 1501-digit dims multiply past that limit.
@pytest.mark.parametrize("text", [
    _amplitude_file("1" + "0" * 399),
    _amplitude_file("1" + "0" * 4300),
    "[" * 100_000 + "]" * 100_000,
    _huge_dims_file(3),
    _huge_dims_file(9),
], ids=["400-digit amplitude", "4301-digit literal", "deep nesting", "huge dims",
        "too many huge dims"])
def test_state_file_past_the_parser_limits(tmp_path, capsys, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, payload, err = run_cli(capsys, ["profile", str(path)])
    assert code == 1 and payload is None
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_dims_is_usage_error(capsys):
    for dims in ("2,x", "", "2,,2"):
        assert cli.dispatch(["ame", "--dims", dims]) == 2
        assert "dims must be comma-separated integers" in capsys.readouterr().err


def test_bad_basis_is_usage_error(capsys):
    assert cli.dispatch(["measure", "s.json", "--party", "A", "--basis", "hadamard"]) == 2


def test_canonicalize_cat_state(tmp_path, capsys):
    path = write_state(tmp_path, "C4")
    code, payload, _ = run_cli(
        capsys, ["canonicalize", path, "--restarts", "4", "--seed", "1"]
    )
    assert code == 0
    assert payload["overlap"] == pytest.approx(0.5, abs=1e-8)
    assert payload["zero_residual"] < 1e-8
    assert payload["converged"]
    assert len(payload["unitaries"]) == 4
    for u in payload["unitaries"]:
        assert len(u) == 2 and len(u[0]) == 2 and len(u[0][0]) == 2
    assert payload["state"]["dims"] == [2, 2, 2, 2]


def test_canonicalize_m4_emits_json_bool(tmp_path, capsys):
    path = write_state(tmp_path, "M4")
    code = cli.dispatch(["canonicalize", path, "--restarts", "4", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["converged"] in (True, False)
    assert '"converged": true' in out or '"converged": false' in out


def test_canonicalize_reports_restarts_under_manifest_stats(tmp_path, capsys):
    path = write_state(tmp_path, "M4")
    argv = ["canonicalize", path, "--restarts", "4", "--seed", "0"]
    code, payload, _ = run_cli(capsys, argv)
    assert code == 0
    assert set(payload) == {"state", "unitaries", "overlap", "zero_residual", "converged",
                            "sweeps", "manifest"}
    records = payload["manifest"]["stats"]["restarts"]
    assert [r["restart"] for r in records] == [0, 1, 2, 3, 4]
    assert set(records[0]) == {"restart", "sweeps", "overlap", "stop_reason"}
    # the computational start of |M4> vanishes, settles at overlap 0 and loses
    assert (records[0]["overlap"], records[0]["sweeps"]) == (0.0, 2)
    # the printed overlap is |<a|s>|^2 of the printed form, the |0...0> coefficient
    # squared, and the polish keeps the chosen start's overlap, which is within the
    # tie of the largest
    re, im = payload["state"]["amps"][0]
    assert abs(re * re + im * im - payload["overlap"]) <= 1e-12
    overlaps = [r["overlap"] for r in records]
    assert payload["overlap"] >= max(overlaps) - canonical.TIE_TOL
    polish = payload["manifest"]["stats"]["polish"]
    assert set(polish) == RECORD_KEYS and polish["converged"]
    assert {r["stop_reason"] for r in records} == {"settled"}
    assert payload["sweeps"] in {r["sweeps"] for r in records}
    _, again, _ = run_cli(capsys, argv)
    assert strip_duration(again) == strip_duration(payload)


@pytest.mark.parametrize("restarts", ["5000", "0"])
def test_canonicalize_restart_count_out_of_range(tmp_path, capsys, restarts):
    path = write_state(tmp_path, "C4")
    code, payload, err = run_cli(capsys, ["canonicalize", path, "--restarts", restarts])
    assert code == 1 and payload is None
    assert err.startswith("error:") and "Traceback" not in err


def test_ame_two_qubits_reaches_zero(capsys):
    code, payload, _ = run_cli(
        capsys, ["ame", "--dims", "2,2", "--restarts", "2", "--seed", "0"]
    )
    assert code == 0
    assert payload["floor"] < 1e-10
    assert set(payload["per_cut"]) == {"A_B"}
    assert payload["manifest"]["params"]["dims"] == [2, 2]


@pytest.mark.parametrize("argv, message", [
    (["canonicalize", "STATE", "--restarts", "1"], "error: canonicalization residual"),
    (["ame", "--restarts", "1", "--max-iters", "2"],
     "error: best deviation restart did not reach the gradient tolerance"),
    (["maximize", "--restarts", "1", "--max-iters", "2"],
     "error: best ascent restart did not reach the gradient tolerance"),
], ids=["canonicalize", "ame", "maximize"])
def test_strict_fails_a_search_that_fell_short(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(canonical, "MAX_SWEEPS", 2)
    monkeypatch.setattr(canonical, "ascend", functools.partial(ascent.ascend, max_iters=1))
    path = write_state(tmp_path, "M4")
    argv = [path if a == "STATE" else a for a in argv] + ["--seed", "0"]
    code, lenient, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    code, payload, err = run_cli(capsys, argv + ["--strict"])
    assert code == 1
    # The payload is still printed, and is the lenient run's but for the flag.
    assert payload["manifest"]["params"].pop("strict")
    lenient["manifest"]["params"].pop("strict")
    assert strip_duration(payload) == strip_duration(lenient)
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ame", "--dims=0,0,0,0"],
    ["ame", "--dims=-2,-2"],
    ["ame", "--dims=1,1"],
    ["ame", "--max-iters", "0"],
    ["ame", "--dims", "1000,1000,1000,1000", "--restarts", "1"],
    ["maximize", "--grad-tol", "nan"],
    ["maximize", "--grad-tol", "0"],
    ["maximize", "--restarts", "1", "--grad-tol", "inf"],
], ids=" ".join)
def test_bad_optimizer_input_is_a_domain_error(capsys, argv):
    code, payload, err = run_cli(capsys, argv)
    assert code == 1 and payload is None
    assert err.startswith("error:") and "Traceback" not in err


RECORD_KEYS = {"restart", "value", "grad_norm", "iterations", "converged", "stop_reason",
               "evaluations", "skipped_pairs", "memory_resets"}


def test_optimizer_restarts_report_stop_reasons(capsys):
    flags = ["--restarts", "2", "--seed", "0", "--max-iters", "40"]
    _, low, _ = run_cli(capsys, ["ame", *flags])
    _, high, _ = run_cli(capsys, ["maximize", *flags])
    assert "restarts" not in low and "restarts" not in high
    low, high = low["manifest"]["stats"]["restarts"], high["manifest"]["stats"]["restarts"]
    assert [set(r) for r in low] == [RECORD_KEYS] * 2
    assert [set(r) for r in high] == [
        RECORD_KEYS | {"classification", "fingerprint_residual"}] * 2
    for record in low + high:
        assert record["converged"] == (record["stop_reason"] == "converged")


@pytest.mark.parametrize("argv, env_seed", [
    (["ame", "--dims=2,2", "--seed", "-1"], None),
    (["maximize", "--seed", "-1"], None),
    (["canonicalize", "STATE", "--seed", "-1"], None),
    (["robustness", "STATE", "--seed", "-1"], None),
    (["measure", "STATE", "--party", "A", "--basis", "random", "--seed", "-1"], None),
    (["measure", "STATE", "--party", "A", "--basis", "random"], "-3"),
], ids=["ame", "maximize", "canonicalize", "robustness", "measure", "ENTANGLE_SEED"])
def test_negative_seed_is_a_domain_error(tmp_path, capsys, monkeypatch, argv, env_seed):
    path = write_state(tmp_path, "M4")
    if env_seed is not None:
        monkeypatch.setenv("ENTANGLE_SEED", env_seed)
    code, payload, err = run_cli(capsys, [path if a == "STATE" else a for a in argv])
    assert code == 1 and payload is None
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_stationarity_of_m4(tmp_path, capsys):
    path = write_state(tmp_path, "M4")
    code, payload, _ = run_cli(capsys, ["stationarity", path])
    assert code == 0
    assert payload["value"] == pytest.approx(TARGET_AVERAGE, abs=1e-10)
    assert payload["tangent_grad_norm"] < 1e-8


def test_measure_payload(tmp_path, capsys):
    path = write_state(tmp_path, "M4")
    code, payload, _ = run_cli(
        capsys, ["measure", path, "--party", "B", "--basis", "random", "--seed", "5"]
    )
    assert code == 0
    assert payload["party"] == 1 and payload["basis"] == "random"
    assert len(payload["basis_vectors"]) == 2
    assert len(payload["outcomes"]) == 2
    for row in payload["outcomes"]:
        assert row["probability"] == pytest.approx(0.5, abs=1e-10)
        assert set(row["pair_entropies"]) == {"AC", "AD", "CD"}
        for value in row["pair_entropies"].values():
            assert value == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)
    assert payload["manifest"]["seed"] == 5


def test_measure_plusminus_leaves_c4_a_ghz_state(tmp_path, capsys):
    code, payload, _ = run_cli(
        capsys, ["measure", write_state(tmp_path, "C4"), "--party", "A", "--basis", "plusminus"])
    assert code == 0 and payload["basis"] == "plusminus"
    assert [row["probability"] for row in payload["outcomes"]] == pytest.approx([0.5, 0.5], abs=1e-12)
    # Each residual is a three-qubit GHZ state: every pair reduction has entropy 1.
    for row in payload["outcomes"]:
        assert set(row["pair_entropies"]) == {"BC", "BD", "CD"}
        assert list(row["pair_entropies"].values()) == pytest.approx([1.0] * 3, abs=1e-12)


def test_measure_plusminus_rejects_a_qutrit_party(tmp_path, capsys):
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(state_to_json(random_state((3, 2, 2, 2), np.random.default_rng(0)))))
    code, payload, err = run_cli(capsys, ["measure", str(path), "--party", "A", "--basis", "plusminus"])
    assert code == 1 and payload is None
    assert err.startswith("error: plusminus basis needs a two-level party") and "Traceback" not in err


@pytest.mark.parametrize("tag", ["C3", "PHI_PLUS"])
def test_measure_residual_without_a_proper_pair(tmp_path, capsys, tag):
    code, payload, _ = run_cli(capsys, ["measure", write_state(tmp_path, tag), "--party", "A"])
    assert code == 0
    assert len(payload["outcomes"]) == 2
    for row in payload["outcomes"]:
        assert row["pair_entropies"] == {}


def test_environment_seed_matches_explicit_seed(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "M4")
    argv = ["measure", path, "--party", "A", "--basis", "random"]
    monkeypatch.setenv("ENTANGLE_SEED", "5")
    _, from_env, _ = run_cli(capsys, argv)
    monkeypatch.delenv("ENTANGLE_SEED")
    _, explicit, _ = run_cli(capsys, argv + ["--seed", "5"])
    assert strip_duration(from_env) == strip_duration(explicit)
    assert from_env["manifest"]["seed"] == 5


def test_malformed_environment_seed(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "M4")
    monkeypatch.setenv("ENTANGLE_SEED", "three")
    code, payload, err = run_cli(capsys, ["measure", path, "--party", "A"])
    assert code == 1 and payload is None and "ENTANGLE_SEED" in err


def test_repeated_runs_are_bitwise_identical(tmp_path, capsys):
    path = write_state(tmp_path, "PSI_EXAMPLE")
    argv = ["robustness", path, "--trials", "2", "--seed", "3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert strip_duration(first) == strip_duration(second)


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # A usage error or a failed call leaves the shared parser fit for the next call.
    path = write_state(tmp_path, "M4")
    sequence = [["profile", path], ["profile", path, "--no-such-flag"],
                ["profile", str(tmp_path / "missing.json")], ["profile", path]]
    built = []
    original = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(self.prog)
        return original(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)

    def run(argv):
        code, payload, err = run_cli(capsys, argv)
        return code, payload and strip_duration(payload), err

    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _, _ in alone] == [0, 2, 1, 0]
    cli.build_parser.cache_clear()
    built.clear()
    assert [run(argv) for argv in sequence] == alone
    assert built == ["quartet"]


def test_robustness_payload(tmp_path, capsys):
    path = write_state(tmp_path, "M4")
    code, payload, _ = run_cli(capsys, ["robustness", path, "--trials", "2", "--seed", "1"])
    assert code == 0
    assert set(payload["per_party"]) == {"A", "B", "C", "D"}
    assert payload["overall"]["min"] == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)
    assert payload["overall"]["max"] == pytest.approx(RESIDUAL_ENTROPY, abs=1e-8)


def _floats(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in _floats(item)]
    return [obj] if isinstance(obj, float) else []


def test_robustness_json_has_no_negative_zero(tmp_path, capsys):
    # C4's computational residuals are product states: their entropies are exact zeros.
    path = write_state(tmp_path, "C4")
    code, payload, _ = run_cli(capsys, ["robustness", path, "--trials", "1"])
    assert code == 0
    zeros = [v for v in _floats(payload) if v == 0.0]
    assert len(zeros) >= 24
    assert all(math.copysign(1.0, v) == 1.0 for v in zeros)


CRITERIA = ((1, "one"), (2, "two"))


def _fake_result(number, name, passed):
    return CriterionResult(
        number=number,
        name=name,
        passed=passed,
        details="stubbed",
        duration_seconds=0.0,
        budget_seconds=1.0,
    )


def test_verify_reports_per_criterion_lines(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance, "run_all", lambda: (_fake_result(n, name, True) for n, name in CRITERIA)
    )
    code, payload, err = run_cli(capsys, ["verify"])
    assert code == 0
    assert payload["all_passed"]
    assert len(payload["criteria"]) == 2
    assert err.count("PASS") == 2


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance,
        "run_all",
        lambda: (_fake_result(n, name, n == 1) for n, name in CRITERIA),
    )
    code, payload, err = run_cli(capsys, ["verify"])
    assert code == 1
    assert not payload["all_passed"]
    assert "FAIL" in err and "error:" not in err


def _child_env():
    # The child imports the same quartet as this process, installed or not.
    src = str(Path(quartet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quartet.cli", "catalog", "M4"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dims"] == [2, 2, 2, 2]


def test_a_reader_that_closes_the_pipe_ends_the_run_with_exit_one():
    # The read end is closed before the child writes, so its output has no reader.
    proc = subprocess.Popen([sys.executable, "-m", "quartet.cli", "catalog", "M4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
