"""Self-checks of the benchmark: tracer coverage, determinism, failure accounting.

Run from the repository root:  python3 -m pytest -q bench
"""

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Units of round 0 each workload runs here: enough to reach every layer its
# table row names, few enough to keep the suite short.
SAMPLE_UNITS = {"floor": 2, "canon": None, "analyze": None}


def sample_units(name, seed, workdir):
    """The first units of round 0 of a warmed-up workload."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    run.execute(workload.warmup())
    return workload.round(0)[:SAMPLE_UNITS[name]]


def traced_pass(name, seed, workdir):
    units = sample_units(name, seed, workdir)
    tracer, counters = Tracer(), collections.Counter()

    def traced_unit(unit):
        record, result = run.execute(unit, tracer, 0)
        run.observe(counters, result)
        return record, result

    with tracer.installed():
        records = run.run_units(units, traced_unit)
    values, bases = run.layer_metrics(tracer, counters, 0.0, 0.0)
    return values, bases, records


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("inputs")
    return {name: traced_pass(name, 0, workdir) for name in workloads.WORKLOADS}


def test_every_table_function_is_called_on_its_workloads(traced):
    missing = [f"{fn} on {w}" for fn, names in run.TRACED_FUNCTIONS.items() for w in names
               if traced[w][0][f"{fn}.calls"] < 1]
    assert not missing
    assert traced["analyze"][0]["linalg.eigh.calls"] > 0
    assert traced["analyze"][0]["linalg.eigvalsh.calls"] > 0


def test_no_eigendecomposition_on_floor_and_canon(traced):
    for name in ("floor", "canon"):
        assert traced[name][0]["linalg.eigh.calls"] == 0
        assert traced[name][0]["linalg.eigvalsh.calls"] == 0


def test_entropy_gradient_spends_six_eigendecompositions_per_evaluation(traced):
    assert traced["analyze"][0]["ascent.eig_per_eval"] == 6.0


def test_library_units_pass(traced):
    for name, (_, _, records) in traced.items():
        wrong = [r for r in records if r["kind"] == "wrong"]
        assert not wrong, name
        raised = [r for r in records if r["kind"] == "raised"]
        assert all("cli" in r["label"] for r in raised), name


def test_traced_counts_repeat_exactly(traced, tmp_path):
    for name in workloads.WORKLOADS:
        again, bases, _ = traced_pass(name, 0, tmp_path)
        first, first_bases, _ = traced[name]
        counts = {k: v for k, v in first.items() if not k.endswith("self_s")}
        assert counts == {k: v for k, v in again.items() if not k.endswith("self_s")}, name
        assert first_bases["counters"] == bases["counters"], name


def test_traced_and_untraced_results_are_bitwise_identical(traced, tmp_path):
    for name in workloads.WORKLOADS:
        plain = run.run_units(sample_units(name, 0, tmp_path))
        assert [r["digest"] for r in plain] == [r["digest"] for r in traced[name][2]], name


def test_seed_picks_the_inputs(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        def inputs(seed):
            return [(u.seed, workloads.digest(u.inputs)) for u in cls(seed, tmp_path).round(0)]

        assert inputs(0) == inputs(0), name
        assert inputs(0) != inputs(1), name


def test_cli_canonicalize_failures_are_counted_by_seed(tmp_path):
    workload = workloads.Canon(0, tmp_path)
    records = run.run_units(workload.round(0))
    summary = run.summarize(records)
    cli_units = [r for r in records if "cli canonicalize" in r["label"]]
    assert cli_units
    for record in cli_units:
        if record["error"] is not None:
            # Known crash: CanonicalForm.converged is a numpy bool that json cannot encode.
            assert record["error"].startswith("TypeError") and "JSON serializable" in record["error"]
            assert {"label": record["label"], "seed": record["seed"],
                    "error": record["error"]} in summary["failed_units"]
    assert summary["failed"] == sum(r["error"] is not None for r in cli_units)


def test_deleted_function_is_reported_absent(monkeypatch):
    ascent = workloads.ascent
    monkeypatch.delattr(ascent, "value_and_gradient_raw")
    tracer = Tracer()
    with tracer.installed():
        pass
    values, bases = run.layer_metrics(tracer, collections.Counter(), 0.0, 0.0)
    assert bases["absent"] == ["ascent.value_and_gradient_raw"]
    assert values["ascent.value_and_gradient_raw.calls"] == 0
    assert values["ascent.eig_per_eval"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = last_json_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in names]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "floor", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert Path(tmp_path / "bench" / "out").exists() is False


def test_warmup_is_the_same_for_every_seed(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        first, other = cls(0, tmp_path).warmup(), cls(1, tmp_path).warmup()
        assert first.label == other.label, name
        assert workloads.digest(first.run()) == workloads.digest(other.run()), name


def test_descent_stopped_above_the_floor_is_failed_not_solved():
    start = workloads.Floor(0, "unused").pool[0]
    report = workloads.ame.minimize_deviation(workloads.QUBITS4, restarts=0, max_iters=5, start=start)
    assert not report.converged and report.floor > 4 + 1e-9
    with pytest.raises(workloads.Unconverged):
        workloads.check_floor(report)

