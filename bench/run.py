"""quartet benchmark: seeded closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload floor --seed 0 --seconds 35 --trace 0

One client runs one unit at a time in this process.  With ``--trace 0`` the
run reports the end-to-end metrics of a fixed set of units, about
``--seconds`` of work.  With ``--trace 1`` it runs a smaller fixed set, each
unit once untraced and once traced, and reports the per-layer metrics, the
tracing overhead, and whether the two executions gave bitwise-identical
results.
The last line of standard output is one JSON object; the full report,
including failed units by seed and the machine record, goes to ``bench/out``.
"""

import argparse
import collections
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
TAIL_BEYOND = 10
# A run executes a fixed number of whole rounds: --seconds divided by the
# round's wall time at the commit that defined the benchmark (2-core Xeon,
# numpy 2.4 with OpenBLAS).  Parent and change then measure the same units,
# and a traced run's counts repeat exactly for a seed.
ROUND_SECONDS = {"floor": 8.9, "canon": 2.0, "analyze": 0.30}
# Untraced work in a traced run, as a share of --seconds; each of its units
# also runs once traced.
TRACE_SHARE = 0.3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solve_s.p50", "s", "lower"),
    ("solve_s.tail", "s", "lower"),
    ("solved_per_s", "1/s", "higher"),
    ("solved_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Wrapped public functions reported per layer, with the workloads on which each
# must record calls at this commit.
TRACED_FUNCTIONS = {
    "core.reduced_matrix": ("floor", "analyze"),
    "core.apply_kept_operator": ("floor", "canon", "analyze"),
    "core.partial_trace": ("analyze",),
    "core.apply_local_unitary": ("analyze",),
    "entropy.profile": ("analyze",),
    "entropy.entropy": ("analyze",),
    "entropy.pair_entropies": ("analyze",),
    "ascent.ascend": ("floor",),
    "ascent.value_and_gradient_raw": ("analyze",),
    "ame.deviation_value_raw": ("floor",),
    "ame.deviation_value_and_gradient_raw": ("floor",),
    "ame.ame_deviation": ("analyze",),
    "canonical.canonicalize": ("canon",),
    "measure.measure": ("analyze",),
    "measure.residual_pair_entropies": ("analyze",),
    "measure.robustness_report": ("analyze",),
    "cli.dispatch": ("canon", "analyze"),
    "catalog.make": ("canon", "analyze"),
}
LINALG = ("linalg.eigh", "linalg.eigvalsh")
# Every evaluation of the entropy objective counts in ascent.eig_per_eval.  No
# kept workload calls avg_entropy_raw (search's line-search trials) today; it
# stays so that the ratio keeps its meaning if search returns or a change
# routes stationarity through it.
ENTROPY_OBJECTIVES = ("ascent.avg_entropy_raw", "ascent.value_and_gradient_raw")
# The deviation descent's value-only objective: its calls are the line-search trials.
TRIAL_FUNCTION = "ame.deviation_value_raw"

PER_LAYER = (
    *[(f"{fn}.{kind}", unit, "lower") for fn in TRACED_FUNCTIONS
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("ascent.eig_per_eval", "ratio", "lower"),
    ("ame.iterations", "count", "lower"),
    ("ame.accept_ratio", "ratio", "higher"),
    ("ame.converged_ratio", "ratio", "higher"),
    ("ame.max_iters_hits", "count", "lower"),
    ("canonical.sweeps", "count", "lower"),
    ("canonical.converged_ratio", "ratio", "higher"),
    ("cli.cold_start_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import quartet from this checkout's ``src`` and nowhere else."""
    if not (SRC / "quartet" / "__init__.py").is_file():
        raise ProgramMissing(f"no quartet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quartet

    if SRC not in Path(quartet.__file__).resolve().parents:
        raise ProgramMissing(f"quartet imported from {quartet.__file__}, not from {SRC}")
    return quartet


# ---------------------------------------------------------------- running units


def execute(unit, tracer=None, unit_id=0):
    """Run one unit, timed; check its result outside the timed region."""
    from workloads import CheckFailed, Unconverged, digest

    if tracer is not None:
        tracer.unit = unit_id
        tracer.recording = True
    started = time.perf_counter()
    try:
        result, error, kind = unit.run(), None, None
    except Exception as exc:  # a raising unit is a failed unit, never a crash of the run
        result, error, kind = None, f"{type(exc).__name__}: {exc}", "raised"
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.recording = False
    if error is None:
        try:
            unit.check(result)
        except CheckFailed as exc:
            error, kind = f"check failed: {exc}", "wrong"
        except Unconverged as exc:
            error, kind = f"not converged: {exc}", "unconverged"
    return {"label": unit.label, "seed": unit.seed, "seconds": seconds, "error": error,
            "kind": kind, "digest": None if kind == "raised" else digest(result)}, result


def planned_units(workload, seconds):
    """The units of the whole rounds nearest ``seconds`` of work, at least one round."""
    for r in range(max(1, round(seconds / ROUND_SECONDS[workload.name]))):
        yield from workload.round(r)


def run_units(units, run_unit=execute):
    """Run each unit with ``run_unit``; returns the unit records."""
    return [run_unit(unit)[0] for unit in units]


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def summarize(records):
    times = [r["seconds"] for r in records]
    solved = sum(r["error"] is None for r in records)
    value, percentile, count = tail(times)
    return {
        "attempted": len(records),
        "solved": solved,
        "failed": len(records) - solved,
        "wrong": sum(r["kind"] == "wrong" for r in records),
        "timed_s": sum(times),
        "p50": statistics.median(times),
        "tail": value,
        "tail_percentile": percentile,
        "tail_samples": count,
        "failed_ratio": (len(records) - solved) / len(records),
        "failed_units": [{"label": r["label"], "seed": r["seed"], "error": r["error"]}
                         for r in records if r["error"] is not None],
        "unit_seconds": [[r["label"], r["seconds"]] for r in records],
    }


def timed_process(argv, env=None):
    """Wall time from spawn to exit of one child, and its standard output.

    ``communicate()`` without a timeout blocks in ``waitpid``; with a timeout,
    ``subprocess`` polls the child at up to 50 ms intervals, which would
    quantize the time.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv, out)
    return seconds, out


def setup_probes(workload, seed):
    """Fresh interpreters that build the inputs and run one warm-up unit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    return [timed_process(argv)[0] for _ in range(SETUP_PROBES)]


def cold_start():
    """Wall time of one fresh ``python -m quartet.cli catalog M4``, and whether its output is right."""
    from workloads import catalog, core

    seconds, out = timed_process([sys.executable, "-m", "quartet.cli", "catalog", "M4"],
                                 env=dict(os.environ, PYTHONPATH=str(SRC)))
    payload = json.loads(out)
    payload.pop("manifest", None)
    return seconds, payload == core.state_to_json(catalog.make("M4"))


# ---------------------------------------------------------------- per-layer metrics


def observe(counts, result):
    """Add the optimizer and canonical-form counts that a unit's result reports to ``counts``."""
    from workloads import ame, canonical

    if isinstance(result, ame.DeviationReport):
        limit = inspect.signature(ame.minimize_deviation).parameters["max_iters"].default
        for r in result.restarts:
            counts["ame.restarts"] += 1
            counts["ame.iterations"] += r.iterations
            counts["ame.converged"] += bool(r.converged)
            counts["ame.max_iters_hits"] += r.iterations >= limit
    elif isinstance(result, canonical.CanonicalForm):
        counts["canonical.forms"] += 1
        counts["canonical.sweeps"] += result.sweeps
        counts["canonical.converged"] += bool(result.converged)


def layer_metrics(tracer, counters, overhead, cold_start_s):
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0}
    values, absent = {}, []
    for fn in TRACED_FUNCTIONS:
        if fn not in tracer.known:
            absent.append(fn)
        stats = summary.get(fn, empty)
        values[f"{fn}.calls"] = stats["calls"]
        values[f"{fn}.self_s"] = stats["self_s"]
    for fn in LINALG:
        values[f"{fn}.calls"] = summary.get(fn, empty)["calls"]
    values["linalg.self_s"] = sum(summary.get(fn, empty)["self_s"] for fn in LINALG)
    evaluations = sum(summary.get(fn, empty)["calls"] for fn in ENTROPY_OBJECTIVES)
    inside = tracer.child_calls(ENTROPY_OBJECTIVES, LINALG)
    values["ascent.eig_per_eval"] = inside / evaluations if evaluations else 0.0
    iterations = counters["ame.iterations"]
    trials = summary.get(TRIAL_FUNCTION, empty)["calls"]
    restarts = counters["ame.restarts"]
    values["ame.iterations"] = iterations
    values["ame.accept_ratio"] = iterations / trials if trials else 0.0
    values["ame.converged_ratio"] = counters["ame.converged"] / restarts if restarts else 0.0
    values["ame.max_iters_hits"] = counters["ame.max_iters_hits"]
    forms = counters["canonical.forms"]
    values["canonical.sweeps"] = counters["canonical.sweeps"]
    values["canonical.converged_ratio"] = counters["canonical.converged"] / forms if forms else 0.0
    values["cli.cold_start_s"] = cold_start_s
    values["trace.overhead_ratio"] = overhead
    bases = {"ascent.eig_per_eval": {"eigendecompositions": inside, "evaluations": evaluations},
             "counters": dict(counters), "absent": absent}
    return values, bases


# ---------------------------------------------------------------- runs


def end_to_end_run(workload_cls, seed, seconds):
    workload = workload_cls(seed, OUT / "inputs")
    warm, _ = execute(workload.warmup())
    setup = setup_probes(workload.name, seed)
    counters = collections.Counter()

    def run_unit(unit):
        record, result = execute(unit)
        observe(counters, result)
        return record, result

    records = run_units(planned_units(workload, seconds), run_unit)
    s = summarize(records)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s.p50": s["p50"],
        "solve_s.tail": s["tail"],
        "solved_per_s": s["solved"] / s["timed_s"],
        "solved_ratio": s["solved"] / s["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_probes_s": setup, "warmup": warm, "counters": dict(counters), **s}
    correct = s["wrong"] == 0 and warm["kind"] != "wrong"
    return metrics, detail, correct, s["attempted"], s["failed"]


def trace_run(workload_cls, seed, seconds):
    from tracer import Tracer

    workload = workload_cls(seed, OUT / "inputs")
    execute(workload.warmup())
    tracer, counters, plain = Tracer(), collections.Counter(), []

    def paired(unit):
        """The unit untraced and traced, alternating which goes first, so drift hits both."""
        index = len(plain)

        def traced_run():
            with tracer.installed():
                return execute(unit, tracer, index)

        if index % 2:
            record, result = traced_run()
            plain.append(execute(unit)[0])
        else:
            plain.append(execute(unit)[0])
            record, result = traced_run()
        observe(counters, result)
        return record, result

    traced = run_units(planned_units(workload, TRACE_SHARE * seconds), paired)
    mismatched = [a["label"] for a, b in zip(plain, traced) if a["digest"] != b["digest"]]
    plain_s = sum(r["seconds"] for r in plain)
    overhead = sum(r["seconds"] for r in traced) / plain_s - 1.0
    cold_s, cold_ok = cold_start()
    values, bases = layer_metrics(tracer, counters, overhead, cold_s)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"{workload.name}-seed{seed}.spans.npz")
    s = summarize(traced)
    detail = {"untraced_s": plain_s, "bitwise_mismatches": mismatched, "cold_start_ok": cold_ok,
              "spans": len(tracer.name), **bases, **s}
    correct = s["wrong"] == 0 and summarize(plain)["wrong"] == 0 and not mismatched and cold_ok
    return values, detail, correct, s["attempted"], s["failed"]


# ---------------------------------------------------------------- machine record


def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _blas_threads():
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed):
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "quartet").glob("*.py")):
        sources.update(path.name.encode())
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------- entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, run one warm-up unit and exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload = workload_cls(args.seed, OUT / "inputs")
        workload.round(0)
        record, _ = execute(workload.warmup())
        return 0 if record["kind"] != "wrong" else 1

    load_before = _loadavg()
    run = trace_run if args.trace else end_to_end_run
    values, detail, correct, attempted, failed = run(workload_cls, args.seed, args.seconds)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in names}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": detail, "environment": environment(args.seed),
        "loadavg_before": load_before, "loadavg_after": _loadavg(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(f"{args.workload} seed {args.seed}: {attempted} units, {failed} failed, "
          f"correct={correct}; report in {report_path.relative_to(ROOT)}", file=sys.stderr)
    for unit in detail.get("failed_units", []):
        print(f"  failed: {unit['label']}: {unit['error']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
