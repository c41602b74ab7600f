"""The benchmark's workloads: seeded inputs, units, and the check of each unit.

A unit is one call a user would make.  Every workload builds its units in
rounds of a fixed composition, and a run measures a fixed set of them, so runs
with different seeds measure the same mix; the workload seed picks every input.
Checks run outside the timed region and compare each result with values
derived here (pair purities, spectra, the deviation identity), not with
frozen regression constants.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import struct
from pathlib import Path
from typing import Callable

import numpy as np

core = importlib.import_module("quartet.core")
ascent = importlib.import_module("quartet.ascent")
ame = importlib.import_module("quartet.ame")
canonical = importlib.import_module("quartet.canonical")
catalog = importlib.import_module("quartet.catalog")
cli = importlib.import_module("quartet.cli")
entropy = importlib.import_module("quartet.entropy")
measure = importlib.import_module("quartet.measure")

# Average pair entropy of |M4>: every pair reduction has spectrum
# (1/2, 1/6, 1/6, 1/6), whose entropy is 1/2 + 1/2 log2 6.
TARGET_AVERAGE = 1.0 + 0.5 * math.log2(3.0)
# Pair entropy of the three-qubit residual left by measuring one party of |M4>.
RESIDUAL_ENTROPY = math.log2(3.0) - 2.0 / 3.0
# Per cut ||D rho - I||_F^2 = D^2 tr(rho^2) - D with D = 4 for a qubit pair, so the
# total over the three cuts is 16 (sum of cut purities) - 12.  Four qubits have
# a purity sum of at least 1 (Gour & Wallach 2010), hence a floor of 4.
FLOOR_2222 = 16.0 * 1.0 - 3 * 4.0

QUBITS4 = (2, 2, 2, 2)
PAIRS = {"AB": (0, 1), "AC": (0, 2), "AD": (0, 3), "BC": (1, 2), "BD": (1, 3), "CD": (2, 3)}
COMPLEMENTS = (("AB", "CD"), ("AC", "BD"), ("AD", "BC"))
CUT_ROWS = ((0, 1), (0, 2), (0, 3))
ROBUSTNESS_TRIALS = 8
CANON_RESTARTS = 16
# Round key reserved for the CLI state files; timed rounds never reach it.
FILES = 2**31 - 1


class CheckFailed(Exception):
    """A unit returned a result that disagrees with the independently derived value."""


class Unconverged(Exception):
    """A unit's result says itself that it did not converge: failed, but not wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Unit:
    """One call a user would make, the check of its result, and the inputs the seed picked."""

    label: str
    seed: int
    run: Callable[[], object]
    check: Callable[[object], None]
    inputs: object = None


# ---------------------------------------------------------------- independent math


def haar_unitary(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_amps(dims, rng) -> np.ndarray:
    n = math.prod(dims)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def reduced(amps, dims, keep) -> np.ndarray:
    t = np.moveaxis(np.asarray(amps).reshape(dims), keep, range(len(keep)))
    m = t.reshape(math.prod(dims[k] for k in keep), -1)
    return m @ m.conj().T


def entropy_bits(rho) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log2(lam)))


def purity(rho) -> float:
    return float(np.sum(np.abs(rho) ** 2))


def deviation_identity(amps, dims) -> float:
    """Total cut deviation from purities: sum over cuts of D^2 tr(rho^2) - D."""
    d = dims[0] * dims[0]
    return math.fsum(d * d * purity(reduced(amps, dims, rows)) - d for rows in CUT_ROWS)


def apply_locals(amps, dims, unitaries) -> np.ndarray:
    t = np.asarray(amps).reshape(dims)
    for p, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [p])), 0, p)
    return t.reshape(-1)


def digest(obj) -> str:
    """SHA-256 over every number of a result, bit for bit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _feed(h, k)
            _feed(h, v)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(struct.pack("<dd", obj.real, obj.imag))
    else:
        h.update(repr(obj).encode())


def dispatch_cli(argv):
    """Run one CLI command in process; returns (exit code, JSON payload without manifest)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    payload = json.loads(out.getvalue()) if code == 0 else None
    if payload is not None:
        payload.pop("manifest", None)
    return code, payload


def _json_form(obj):
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------- checks


def check_floor(report):
    """One restart: never below the floor, and at it unless it says it did not converge.

    A restart that stops above the floor with ``converged`` false (a ``max_iters``
    crawl) is failed, not wrong; one that stops there claiming convergence is wrong.
    """
    lowest = min(r.value for r in report.restarts)
    require(lowest >= FLOOR_2222 - 1e-9, f"a restart reports {lowest!r}, below the floor 4")
    total = deviation_identity(report.state.amps, QUBITS4)
    require(abs(total - report.floor) <= 1e-9,
            f"floor differs from the purity identity by {abs(total - report.floor):.2e}")
    if abs(report.floor - FLOOR_2222) > 1e-9:
        require(not report.converged, f"converged at {report.floor!r}, not at the floor 4")
        raise Unconverged(f"stopped at {report.floor!r} after {report.iterations} iterations")


def check_canonical(form, state):
    if not form.converged:
        raise Unconverged(f"converged=False after {form.sweeps} sweeps, zero_residual {form.zero_residual:.2e}")
    require(form.zero_residual < 1e-8, f"zero_residual {form.zero_residual:.2e}")
    history = list(form.history)
    backstep = max((a - b for a, b in zip(history, history[1:])), default=0.0)
    require(backstep <= 1e-14, f"overlap history drops by {backstep:.2e}")
    c0 = complex(form.state.amps[0])
    require(abs(c0 - math.sqrt(form.overlap)) <= 1e-12,
            f"|0...0> coefficient {c0} is not sqrt(overlap) {math.sqrt(form.overlap)}")
    rotated = apply_locals(state.amps, state.dims, form.local_unitaries)
    gap = float(np.max(np.abs(rotated - form.state.amps)))
    require(gap <= 1e-10, f"canonical state is not the input under its local unitaries ({gap:.2e})")


def _canonical_json(form):
    return _json_form({
        "state": core.state_to_json(form.state),
        "unitaries": [[[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(u)]
                      for u in form.local_unitaries],
        "overlap": form.overlap,
        "zero_residual": form.zero_residual,
        "converged": bool(form.converged),
        "sweeps": form.sweeps,
    })


def check_cli_canonical(result, state, seed):
    code, payload = result
    require(code == 0, f"exit code {code}")
    form = canonical.canonicalize(state, restarts=CANON_RESTARTS, seed=seed)
    check_canonical(form, state)
    require(payload == _canonical_json(form), "CLI JSON differs from the library result")


def _check_profile(entries, amps, dims):
    for a, b in COMPLEMENTS:
        require(abs(entries[a] - entries[b]) <= 1e-10,
                f"S({a}) and S({b}) differ by {abs(entries[a] - entries[b]):.2e}")
    for pair, keep in PAIRS.items():
        expected = entropy_bits(reduced(amps, dims, keep))
        require(abs(entries[pair] - expected) <= 1e-10, f"S({pair}) off by {abs(entries[pair] - expected):.2e}")


def _check_born(probabilities):
    total = math.fsum(probabilities)
    require(abs(total - 1.0) <= 1e-12, f"Born probabilities sum to 1 + {total - 1.0:.2e}")


def _residual_entropies(report, basis_names):
    values = []
    for entry in report["per_party"].values():
        for name in basis_names:
            for outcome in entry.get(name, {}).get("outcomes", []):
                values.extend(outcome.get("entropies", {}).values())
    return values


def _check_stationarity(report, amps):
    average = math.fsum(entropy_bits(reduced(amps, QUBITS4, k)) for k in PAIRS.values()) / 6.0
    require(abs(report["value"] - average) <= 1e-10,
            f"stationarity value off the recomputed average entropy by {abs(report['value'] - average):.2e}")


def check_analysis(result, tag):
    state = result["state"]
    amps, dims = state.amps, state.dims
    _check_profile(result["profile"].entries, amps, dims)
    if "stationarity" in result:
        _check_stationarity(result["stationarity"], amps)
    total = deviation_identity(amps, dims)
    require(abs(result["deviation"].total - total) <= 1e-9,
            f"ame_deviation total differs from the purity identity by {abs(result['deviation'].total - total):.2e}")
    report = result["robustness"]
    for entry in report["per_party"].values():
        for name in ("computational", "plusminus"):
            if name in entry:
                _check_born([o["probability"] for o in entry[name]["outcomes"]])
    if tag == "M4":
        values = _residual_entropies(report, ("computational", "plusminus"))
        for entry in report["per_party"].values():
            for stats in entry["random"]["pairs"].values():
                values.extend((stats["min"], stats["max"]))
        worst = max(abs(v - RESIDUAL_ENTROPY) for v in values)
        require(worst <= 1e-8, f"|M4> residual pair entropy off log2(3) - 2/3 by {worst:.2e}")
        low = min(result["equivariance"])
        require(low >= 1.0 - 1e-8, f"|M4> equivariance overlap {low!r}")
        report = result["stationarity"]
        require(abs(report["value"] - TARGET_AVERAGE) <= 1e-12,
                f"|M4> average pair entropy off 1 + log2(3)/2 by {abs(report['value'] - TARGET_AVERAGE):.2e}")
        require(report["tangent_grad_norm"] < 1e-8,
                f"|M4> is not a critical point: tangent gradient {report['tangent_grad_norm']:.2e}")
    if tag == "C4":
        worst = max(abs(v) for v in _residual_entropies(report, ("computational",)))
        require(worst <= 1e-10, f"|C4> computational residual entropy {worst:.2e}")


def _measure_json(state, party, seed):
    basis = measure.random_basis(party, state.dims[party], np.random.default_rng([seed, party]))
    outcomes = []
    for o in measure.measure(state, basis):
        outcomes.append({
            "outcome": o.index,
            "probability": o.probability,
            "residual": None if o.residual is None else core.state_to_json(o.residual),
            "pair_entropies": None if o.residual is None
            else measure.residual_pair_entropies(o.residual, party, state.n_parties),
        })
    return _json_form({
        "party": party,
        "basis": "random",
        "basis_vectors": [[[float(z.real), float(z.imag)] for z in row] for row in basis.vectors],
        "outcomes": outcomes,
    })


def check_cli_analysis(result, command, state, seed):
    code, payload = result
    require(code == 0, f"exit code {code}")
    if command == "profile":
        _check_profile(payload["pairs"], state.amps, state.dims)
        expected = _json_form(entropy.profile(state).to_json())
    elif command == "robustness":
        expected = _json_form(measure.robustness_report(state, trials=ROBUSTNESS_TRIALS, seed=seed))
    elif command == "stationarity":
        _check_stationarity(payload, state.amps)
        expected = _json_form(ascent.stationarity_report(state))
    else:
        _check_born([o["probability"] for o in payload["outcomes"]])
        expected = _measure_json(state, 1, seed)
    require(payload == expected, f"CLI {command} JSON differs from the library result")


# ---------------------------------------------------------------- workloads


class Workload:
    """Seeded unit source; ``round(r)`` builds the inputs of round r."""

    name = ""
    tag = 0
    why = ""

    def __init__(self, seed: int, workdir):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def rng(self, *key):
        return np.random.default_rng([self.tag, self.seed, *key])

    def library_seed(self, *key) -> int:
        return int(self.rng(*key).integers(2**31))

    def round(self, r: int) -> list:
        raise NotImplementedError

    def warmup(self) -> Unit:
        """An untimed unit that fills lazy caches; the same for every seed, so set-up costs the same."""
        raise NotImplementedError

    def write_state(self, name: str, state) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"{self.name}-seed{self.seed}-{name}.json"
        path.write_text(json.dumps(core.state_to_json(state)))
        return str(path)


class Floor(Workload):
    """The deviation descent from seed 0's first forty starts, in seed-drawn order.

    ``minimize_deviation((2,2,2,2), restarts, seed=0)`` starts restart k from
    the Haar draw of sub-seed (0, k); criterion 5 runs the first fifty.  A
    round descends once from each of the first forty, which hold both of
    criterion 5's ``max_iters`` crawls (starts 13 and 32).  The starts are the
    same for every seed, and the seed draws their order: restart costs span 50
    to 5000 iterations, and which starts crawl depends on rounding, so any
    change to the starts (fresh draws, or the same starts in another
    local-unitary frame) lets the run's mix, not the program, set the numbers.
    Forty starts let a run time each of them four times (see bench/NOTES.md).
    """

    name = "floor"
    tag = 2
    why = ("deviation descent from seed 0's first 40 starts, one restart per unit: ascend and "
           "reduced_matrix with no eigendecomposition; max_iters crawls set the tail")
    POOL = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = [core.PureState(QUBITS4, random_amps(QUBITS4, np.random.default_rng([0, k])))
                     for k in range(self.POOL)]

    def _unit(self, label, k):
        start = self.pool[k]
        return Unit(label, k, lambda: ame.minimize_deviation(QUBITS4, restarts=0, start=start), check_floor, start)

    def round(self, r):
        return [self._unit(f"floor r{r} start{k}", int(k)) for k in self.rng(r).permutation(self.POOL)]

    def warmup(self):
        return self._unit("floor warm-up start0", 0)


class Canon(Workload):
    """Canonical form of random states, mostly four qubits, plus the CLI path.

    Each round runs five random four-qubit states, one each of (2,2,2,2,2),
    (3,3,3) and (4,4,4,4), |M4>, and one four-qubit state through
    ``quartet canonicalize`` in process.  The CLI units fail today: the JSON
    encoder rejects the numpy bool in ``CanonicalForm.converged``.
    """

    name = "canon"
    tag = 3
    why = ("canonicalize() at 16 restarts on 4-qubit and general-dims states, a share via the "
           "CLI; no reduced_matrix and no eigensolver")
    SLOTS = (QUBITS4,) * 5 + ("cli", (2, 2, 2, 2, 2), (3, 3, 3), (4, 4, 4, 4), "M4")
    CLI_FILES = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = []
        for i in range(self.CLI_FILES):
            state = core.PureState(QUBITS4, random_amps(QUBITS4, self.rng(FILES, i)))
            self.files.append((self.write_state(f"cli{i}", state), state))

    def warmup(self):
        m4 = catalog.make("M4")
        return Unit("canon warm-up M4 seed=0", 0,
                    lambda: canonical.canonicalize(m4, restarts=CANON_RESTARTS, seed=0),
                    lambda form: check_canonical(form, m4), "M4")

    def round(self, r):
        units = []
        for j, slot in enumerate(self.SLOTS):
            s = self.library_seed(r, j)
            label = f"canon r{r} slot{j}"
            if slot == "cli":
                path, state = self.files[r % self.CLI_FILES]
                argv = ["canonicalize", path, "--seed", str(s)]
                units.append(Unit(f"{label} cli canonicalize seed={s}", s,
                                  lambda argv=argv: dispatch_cli(argv),
                                  lambda res, st=state, s=s: check_cli_canonical(res, st, s), argv))
                continue
            if slot == "M4":
                state, get_state, inputs = catalog.make("M4"), lambda: catalog.make("M4"), "M4"
                label += " M4"
            else:
                state = core.PureState(slot, random_amps(slot, self.rng(r, j)))
                get_state, inputs = (lambda st=state: st), state
                label += f" dims={','.join(map(str, slot))}"
            units.append(Unit(f"{label} seed={s}", s,
                              lambda g=get_state, s=s: canonical.canonicalize(g(), restarts=CANON_RESTARTS,
                                                                              seed=s),
                              lambda form, st=state: check_canonical(form, st), inputs))
        return units


class Analyze(Workload):
    """One-shot analysis of distinct states: profile, deviation, robustness, stationarity.

    Rounds rotate through random four-qubit and (4,4,4,4) states and the
    catalog states M4, C4, PSI_EXAMPLE and AME44.  Four-qubit states also get
    a stationarity report (one value-and-gradient evaluation of the entropy
    objective), and |M4> units check measurement equivariance.  Each round
    then runs ``profile``, ``robustness``, ``measure`` and ``stationarity``
    through ``cli.dispatch`` on state files written at set-up.
    """

    name = "analyze"
    tag = 4
    why = ("one-shot profile, ame_deviation, robustness_report and stationarity per state, partly via "
           "the CLI: the validated partial_trace path and one gradient per state")
    SLOTS = ("random4", "random4", "random44", "M4", "C4", "PSI_EXAMPLE", "AME44",
             "cli:profile", "cli:robustness", "cli:measure", "cli:stationarity")
    CLI_FILES = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = []
        for i in range(self.CLI_FILES):
            state = core.PureState(QUBITS4, random_amps(QUBITS4, self.rng(FILES, i)))
            self.files.append((self.write_state(f"cli{i}", state), state))

    @staticmethod
    def _analysis(get_state, s, unitaries):
        state = get_state()
        out = {
            "state": state,
            "profile": entropy.profile(state),
            "deviation": ame.ame_deviation(state),
            "robustness": measure.robustness_report(state, trials=ROBUSTNESS_TRIALS, seed=s),
        }
        if state.dims == QUBITS4:
            out["stationarity"] = ascent.stationarity_report(state)
        if unitaries is not None:
            out["equivariance"] = [measure.equivariance_overlap(state, p, u)
                                   for p, u in enumerate(unitaries)]
        return out

    def warmup(self):
        unitaries = [haar_unitary(2, np.random.default_rng([self.tag, p])) for p in range(4)]
        return Unit("analyze warm-up M4 seed=0", 0,
                    lambda: self._analysis(lambda: catalog.make("M4"), 0, unitaries),
                    lambda res: check_analysis(res, "M4"), "M4")

    def round(self, r):
        units = []
        for j, slot in enumerate(self.SLOTS):
            s = self.library_seed(r, j)
            label = f"analyze r{r} slot{j} {slot}"
            if slot.startswith("cli:"):
                command = slot[4:]
                path, state = self.files[(r + j) % self.CLI_FILES]
                argv = {"profile": ["profile", path],
                        "robustness": ["robustness", path, "--seed", str(s)],
                        "measure": ["measure", path, "--party", "B", "--basis", "random",
                                    "--seed", str(s)],
                        "stationarity": ["stationarity", path]}[command]
                units.append(Unit(f"{label} seed={s}", s, lambda argv=argv: dispatch_cli(argv),
                                  lambda res, c=command, st=state, s=s: check_cli_analysis(res, c, st, s),
                                  argv))
                continue
            if slot.startswith("random"):
                dims = QUBITS4 if slot == "random4" else (4, 4, 4, 4)
                state = core.PureState(dims, random_amps(dims, self.rng(r, j)))
                get_state, inputs = (lambda st=state: st), state
            else:
                get_state, inputs = (lambda t=slot: catalog.make(t)), slot
            unitaries = [haar_unitary(2, self.rng(r, j, p)) for p in range(4)] if slot == "M4" else None
            units.append(Unit(f"{label} seed={s}", s,
                              lambda g=get_state, s=s, u=unitaries: self._analysis(g, s, u),
                              lambda res, t=slot: check_analysis(res, t), inputs))
        return units


WORKLOADS = {w.name: w for w in (Floor, Canon, Analyze)}
