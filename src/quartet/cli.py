"""Command-line front end with seeded, machine-readable, reproducible runs.

Every subcommand prints a single JSON document on standard output and embeds a
run manifest (command, parameters, seed, library version, wall-clock duration).
Re-running with the same parameters and seed reproduces every numeric field
bitwise; only the duration varies.  ``-`` names standard input wherever a state
file is expected, so subcommands compose under a shell pipe.

Exit codes: 0 on success, 1 on domain errors (malformed state files, unknown
catalog tags, non-convergence under ``--strict``), 2 on usage errors.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, acceptance, ascent, canonical, catalog
from . import ame as ame_mod
from .core import DomainError, ShapeError, check_count, party_index, state_from_json, state_to_json
from .entropy import profile
from .measure import (
    computational_basis,
    measure,
    plus_minus_basis,
    random_basis,
    residual_pair_entropies,
    robustness_report,
)

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


def _resolve_seed(args) -> int:
    """Explicit --seed wins; otherwise ENTANGLE_SEED; otherwise 0.  Seeds are non-negative."""
    seed = args.seed
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
    if not dims:
        raise argparse.ArgumentTypeError("dims must not be empty")
    return dims


def _cmd_catalog(args):
    return state_to_json(catalog.make(args.tag)), 0


def _cmd_entropy(args):
    s = _read_state(args.statefile)
    return profile(s).to_json(), 0


def _cmd_canonicalize(args):
    args.seed = _resolve_seed(args)
    s = _read_state(args.statefile)
    form = canonical.canonicalize(s, restarts=args.restarts, seed=args.seed)
    payload = {
        "state": state_to_json(form.state),
        "unitaries": [_matrix_json(u) for u in form.local_unitaries],
        "overlap": form.overlap,
        "zero_residual": form.zero_residual,
        "converged": form.converged,
        "sweeps": form.sweeps,
        "manifest": {"stats": {"restarts": [asdict(r) for r in form.restarts]}},
    }
    code = 0
    if args.strict and not form.converged:
        print(f"error: canonicalization residual {form.zero_residual:.3e} above tolerance",
              file=sys.stderr)
        code = 1
    return payload, code


def _cmd_ame(args):
    args.seed = _resolve_seed(args)
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
    code = 0
    if args.strict and not report.converged:
        print("error: best deviation restart did not reach the gradient tolerance",
              file=sys.stderr)
        code = 1
    return payload, code


def _cmd_maximize(args):
    args.seed = _resolve_seed(args)
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
    code = 0
    if args.strict and not report.restarts[report.best_restart].converged:
        print("error: best ascent restart did not reach the gradient tolerance",
              file=sys.stderr)
        code = 1
    return payload, code


def _cmd_stationarity(args):
    s = _read_state(args.statefile)
    return ascent.stationarity_report(s), 0


def _cmd_measure(args):
    args.seed = _resolve_seed(args)
    s = _read_state(args.statefile)
    party = party_index(args.party, s.n_parties)
    d = s.dims[party]
    if args.basis == "computational":
        basis = computational_basis(party, d)
    elif args.basis == "plusminus":
        if d != 2:
            raise DomainError(f"plusminus basis needs a two-level party, dim is {d}")
        basis = plus_minus_basis(party)
    else:
        basis = random_basis(party, d, np.random.default_rng([args.seed, party]))
    outcomes = []
    for outcome in measure(s, basis):
        row = {"outcome": outcome.index, "probability": outcome.probability}
        if outcome.residual is None:
            row["residual"] = None
            row["pair_entropies"] = None
        else:
            row["residual"] = state_to_json(outcome.residual)
            row["pair_entropies"] = residual_pair_entropies(
                outcome.residual, party, s.n_parties
            )
        outcomes.append(row)
    payload = {
        "party": party,
        "basis": args.basis,
        "basis_vectors": _matrix_json(basis.vectors),
        "outcomes": outcomes,
    }
    return payload, 0


def _cmd_robustness(args):
    args.seed = _resolve_seed(args)
    s = _read_state(args.statefile)
    return robustness_report(s, trials=args.trials, seed=args.seed), 0


def _cmd_verify(args):
    results = []
    for number in range(1, len(acceptance.criteria_names()) + 1):
        r = acceptance.run_one(number)
        print(acceptance.format_line(r), file=sys.stderr)
        results.append(r)
    payload = {
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    return payload, 0 if payload["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartet",
        description="Construct, analyze, canonicalize, and optimize small multipartite states.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: ENTANGLE_SEED or 0)")

    sub = parser.add_subparsers(dest="command", metavar="subcommand", required=True)

    p = sub.add_parser("catalog", parents=[common], help="emit a named reference state")
    p.add_argument("tag", help="state tag, e.g. M4, C4, PSI_EXAMPLE, AME44")
    p.set_defaults(func=_cmd_catalog)

    for name in ("entropy", "profile"):
        p = sub.add_parser(name, parents=[common],
                           help="six pair entropies and their average ('profile' is an alias)")
        p.add_argument("statefile", help="state JSON path, or - for stdin")
        p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("canonicalize", parents=[common, seeded],
                       help="rotate the closest product state onto |0...0>")
    p.add_argument("statefile", help="state JSON path, or - for stdin")
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

    p = sub.add_parser("stationarity", parents=[common],
                       help="value, tangent gradient norm, and radial coefficient")
    p.add_argument("statefile", help="state JSON path, or - for stdin")
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("measure", parents=[common, seeded],
                       help="projective single-party measurement with residual profiles")
    p.add_argument("statefile", help="state JSON path, or - for stdin")
    p.add_argument("--party", required=True, help="party letter (A, B, ...) or index")
    p.add_argument("--basis", choices=_BASIS_NAMES, default="computational")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("robustness", parents=[common, seeded],
                       help="residual entropy report over bases and parties")
    p.add_argument("statefile", help="state JSON path, or - for stdin")
    p.add_argument("--trials", type=int, default=8, help="random bases per party")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("verify", parents=[common],
                       help="run the full acceptance suite (exit 1 on any failure)")
    p.set_defaults(func=_cmd_verify)

    return parser


def _manifest(args, seed, duration: float) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    if "dims" in params:
        params["dims"] = list(params["dims"])
    return {
        "command": args.command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "duration_seconds": duration,
    }


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
        payload, code = args.func(args)
    except (DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = dict(payload)
    manifest = _manifest(args, getattr(args, "seed", None), time.perf_counter() - started)
    # A subcommand may add entries, such as per-restart stats, to the manifest.
    manifest.update(payload.pop("manifest", {}))
    payload["manifest"] = manifest
    print(json.dumps(payload, indent=2 if args.pretty else None))
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
