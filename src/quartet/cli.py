"""Command-line front end with seeded, machine-readable, reproducible runs.

Every subcommand prints a single JSON document on standard output and embeds a
run manifest (command, parameters, seed, library version, wall-clock duration).
Re-running with the same parameters and seed reproduces every numeric field
bitwise; only the duration varies.  ``-`` names standard input wherever a state
file is expected, so subcommands compose under a shell pipe.

``dispatch`` does every subcommand's input work once: it resolves and checks
the seed, and reads and validates the state file, before the subcommand's
handler runs.  A handler returns its payload and, when its search fell short,
the reason, which ``--strict`` turns into an ``error:`` line and exit code 1.
The parser that reads ``argv`` is built once per process.

Exit codes: 0 on success, 1 on domain errors (malformed state files, unknown
catalog tags, non-convergence under ``--strict``, a failed ``verify``
criterion) and when the reader of standard output closes it early, 2 on usage
errors.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, acceptance, ascent, canonical, catalog, entropy, measure
from . import ame as ame_mod
from .core import DomainError, ShapeError, check_count, party_index, state_from_json, state_to_json

_BASIS_NAMES = ("computational", "plusminus", "random")


def _read_state(path: str):
    try:
        if path == "-":
            payload = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read state file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers, deep nesting
        raise DomainError(f"state file {path!r} is not valid JSON: {exc}") from exc
    return state_from_json(payload)


def _resolve_seed(seed) -> int:
    """Explicit --seed wins; otherwise ENTANGLE_SEED; otherwise 0.  Seeds are non-negative."""
    if seed is None:
        env = os.environ.get("ENTANGLE_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(f"ENTANGLE_SEED must be an integer, got {env!r}") from None
    check_count("seed", seed)
    return seed


def _matrix_json(u) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(u)]


def _dims_arg(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")
    return dims


def _cmd_catalog(args, _):
    return state_to_json(catalog.make(args.tag)), None


def _cmd_profile(args, s):
    return entropy.profile(s).to_json(), None


def _cmd_canonicalize(args, s):
    form = canonical.canonicalize(s, restarts=args.restarts, seed=args.seed)
    payload = {
        "state": state_to_json(form.state),
        "unitaries": [_matrix_json(u) for u in form.local_unitaries],
        "overlap": form.overlap,
        "zero_residual": form.zero_residual,
        "converged": form.converged,
        "sweeps": form.sweeps,
        "manifest": {"stats": {"restarts": [asdict(r) for r in form.restarts],
                               "polish": asdict(form.polish)}},
    }
    failure = None
    if not form.converged:
        failure = f"canonicalization residual {form.zero_residual:.3e} above tolerance"
    return payload, failure


def _cmd_ame(args, _):
    report = ame_mod.minimize_deviation(
        args.dims, restarts=args.restarts, seed=args.seed, max_iters=args.max_iters
    )
    payload = {
        "floor": report.floor,
        "per_cut": report.per_cut,
        "state": state_to_json(report.state),
        "iters": report.iterations,
        "grad_norm": report.grad_norm,
        "converged": report.converged,
        "manifest": {"stats": {"restarts": [asdict(r) for r in report.restarts]}},
    }
    failure = None
    if not report.converged:
        failure = "best deviation restart did not reach the gradient tolerance"
    return payload, failure


def _cmd_maximize(args, _):
    report = ascent.maximize(
        restarts=args.restarts, seed=args.seed, max_iters=args.max_iters, grad_tol=args.grad_tol
    )
    rows = zip(report.restarts, report.classifications, report.fingerprint_residuals)
    payload = {
        "best_value": report.best_value,
        "best_grad_norm": report.best_grad_norm,
        "best_restart": report.best_restart,
        "best_state": state_to_json(report.best_state),
        "manifest": {"stats": {"restarts": [
            {**asdict(r), "classification": label, "fingerprint_residual": residual}
            for r, label, residual in rows]}},
    }
    failure = None
    if not report.restarts[report.best_restart].converged:
        failure = "best ascent restart did not reach the gradient tolerance"
    return payload, failure


def _cmd_stationarity(args, s):
    return ascent.stationarity_report(s), None


def _cmd_measure(args, s):
    party = party_index(args.party, s.n_parties)
    d = s.dims[party]
    if args.basis == "computational":
        basis = measure.computational_basis(party, d)
    elif args.basis == "plusminus":
        if d != 2:
            raise DomainError(f"plusminus basis needs a two-level party, dim is {d}")
        basis = measure.plus_minus_basis(party)
    else:
        basis = measure.random_basis(party, d, np.random.default_rng([args.seed, party]))
    outcomes = []
    for outcome in measure.measure(s, basis):
        row = {"outcome": outcome.index, "probability": outcome.probability,
               "residual": None, "pair_entropies": None}
        if outcome.residual is not None:
            row["residual"] = state_to_json(outcome.residual)
            row["pair_entropies"] = measure.residual_pair_entropies(
                outcome.residual, party, s.n_parties
            )
        outcomes.append(row)
    payload = {
        "party": party,
        "basis": args.basis,
        "basis_vectors": _matrix_json(basis.vectors),
        "outcomes": outcomes,
    }
    return payload, None


def _cmd_robustness(args, s):
    return measure.robustness_report(s, trials=args.trials, seed=args.seed), None


def _cmd_verify(args, _):
    criteria = []
    for r in acceptance.run_all():
        print(acceptance.format_line(r), file=sys.stderr)
        criteria.append(asdict(r))
    failed = [c["name"] for c in criteria if not c["passed"]]
    payload = {"criteria": criteria, "all_passed": not failed}
    return payload, f"criteria failed: {', '.join(failed)}" if failed else None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree of every subcommand, built once per process and shared by
    every ``dispatch`` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quartet",
        description="Construct, analyze, canonicalize, and optimize small multipartite states.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: ENTANGLE_SEED or 0)")
    stateful = argparse.ArgumentParser(add_help=False)
    stateful.add_argument("statefile", help="state JSON path, or - for stdin")

    sub = parser.add_subparsers(dest="command", metavar="subcommand", required=True)

    p = sub.add_parser("catalog", parents=[common], help="emit a named reference state")
    p.add_argument("tag", help="state tag, e.g. M4, C4, PSI_EXAMPLE, AME44")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("profile", parents=[common, stateful],
                       help="six pair entropies and their average")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("canonicalize", parents=[common, seeded, stateful],
                       help="rotate the closest product state onto |0...0>")
    p.add_argument("--restarts", type=int, default=canonical.DEFAULT_RESTARTS)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if the zero residual stays above tolerance")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("ame", parents=[common, seeded],
                       help="minimize the distance of all balanced cuts from maximal mixing")
    p.add_argument("--dims", type=_dims_arg, default=(2, 2, 2, 2),
                   help="comma-separated party dimensions (default 2,2,2,2)")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if the best restart did not converge")
    p.set_defaults(func=_cmd_ame)

    p = sub.add_parser("maximize", parents=[common, seeded],
                       help="multi-start ascent of the average pair entropy")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if the best restart did not converge")
    p.set_defaults(func=_cmd_maximize)

    p = sub.add_parser("stationarity", parents=[common, stateful],
                       help="value, tangent gradient norm, and radial coefficient")
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("measure", parents=[common, seeded, stateful],
                       help="projective single-party measurement with residual profiles")
    p.add_argument("--party", required=True, help="party letter (A, B, ...) or index")
    p.add_argument("--basis", choices=_BASIS_NAMES, default="computational")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("robustness", parents=[common, seeded, stateful],
                       help="residual entropy report over bases and parties")
    p.add_argument("--trials", type=int, default=8, help="random bases per party")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("verify", parents=[common],
                       help="run the full acceptance suite (exit 1 on any failure)")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    """Parse ``argv``, run the subcommand, print its JSON payload; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    started = time.perf_counter()
    try:
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        state = _read_state(args.statefile) if "statefile" in args else None
        payload, failure = args.func(args, state)
    except (DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # verify has no --strict: a failed criterion always fails, its FAIL line already printed.
    if failure is not None and "strict" in args:
        if args.strict:
            print(f"error: {failure}", file=sys.stderr)
        else:
            failure = None
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seed": vars(args).get("seed"),
        "version": __version__,
        "duration_seconds": time.perf_counter() - started,
    }
    # A subcommand may add entries, such as per-restart stats, to the manifest.
    manifest.update(payload.pop("manifest", {}))
    payload["manifest"] = manifest
    print(json.dumps(payload, indent=2 if args.pretty else None))
    return 0 if failure is None else 1


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Later writes, such as the flush at exit,
        # go to the null device so that they cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
