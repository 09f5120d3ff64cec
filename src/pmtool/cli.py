"""Command-line front end.

Subcommands: validate, reduce, ocb-game, causal-bound, decompose, emit-ocb.
Reports go to stdout as JSON (or text with --pretty), diagnostics to
stderr. Exit codes: 0 pass/value, 1 fail, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import ocbgame, pmfile, reduction
from .linalg import DEFAULT_TOL, DimensionMismatchError, NonHermitianError
from .process import validate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(args, inputs: dict, results: dict, status: str) -> None:
    """Print the report of ``args.command``; its tolerances are the options it reads."""
    if args.pretty:
        print(f"command: {args.command}")
        for key, value in results.items():
            print(f"  {key}: {value}")
        print(f"status: {status}")
    else:
        tolerances = {"tol": args.tol} if "tol" in args else {}
        print(json.dumps(dict(command=args.command, inputs=inputs, tolerances=tolerances,
                              results=results, status=status), indent=1))


def _cmd_validate(args) -> int:
    w = pmfile.load(args.file)
    report = validate(w, tol=args.tol)
    results = {
        "psd_ok": report.psd_ok,
        # -inf (no spectrum: W is not Hermitian) has no JSON token; write null.
        "min_eigenvalue": report.min_eigenvalue if np.isfinite(report.min_eigenvalue) else None,
        "trace_ok": report.trace_ok,
        "trace_value": report.trace_value,
        "normalization_ok": report.normalization_ok,
        "distance": report.distance,
        "worst_residual": report.worst_residual,
        "violated_constraints": [list(v) for v in report.violated_constraints],
    }
    status = "pass" if report.ok else "fail"
    _emit(args, {"file": args.file}, results, status)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _reduction_results(report) -> dict:
    return {
        "certified": report.certified,
        "residual": report.residual,
        "w1_psd": report.w1_psd,
        "w1_trace": report.w1_trace,
        "w1": pmfile.matrix_entries(report.w1),
        "violations": [{
            "description": v.description,
            "lhs_value": v.lhs_value,
            "expected": v.expected,
            "coefficient": v.coefficient_label,
            "coefficient_value": v.coefficient_value,
        } for v in report.violations],
    }


def _cmd_reduce(args) -> int:
    w = pmfile.load(args.file)
    results = {}
    certified = []
    if args.oracle in ("constructive", "both"):
        rep = reduction.reduce_multiqubit(w, tol=args.tol)
        results["constructive"] = _reduction_results(rep)
        certified.append(rep.certified)
    if args.oracle in ("projection", "both"):
        rep = reduction.projection_oracle(w, tol=args.tol)
        results["projection"] = _reduction_results(rep)
        certified.append(rep.certified)
    ok = all(certified)
    status = "pass" if ok else "fail"
    _emit(args, {"file": args.file, "oracle": args.oracle}, results, status)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_ocb_game(args) -> int:
    eta = ocbgame.ETA_STATES[args.eta]
    result = ocbgame.evaluate_game(ocbgame.build_w_ocb(), eta)
    bound = float(ocbgame.causal_bound_details().bound)
    violated = result.p_ocb > bound + args.tol
    results = {
        "p_guess_b": result.p_guess_b,
        "p_guess_a": result.p_guess_a,
        "p_ocb": result.p_ocb,
        "causal_bound": bound,
    }
    status = "violated" if violated else "not_violated"
    _emit(args, {"eta": args.eta}, results, status)
    return EXIT_PASS if violated else EXIT_FAIL


def _cmd_causal_bound(args) -> int:
    details = ocbgame.causal_bound_details()
    results = {
        "bound": float(details.bound),
        "a_before_b_one_bit": float(details.a_before_b),
        "b_before_a_one_bit": float(details.b_before_a),
        "b_before_a_two_bit": float(details.b_before_a_two_bit),
        "no_communication": float(details.no_communication),
        "bound_exact": str(details.bound),
    }
    _emit(args, {}, results, "value")
    return EXIT_PASS


def _cmd_decompose(args) -> int:
    w = pmfile.load(args.file)
    decomp = reduction.pauli_decompose(w)
    n = decomp.n
    coefficients = {
        "".join(word[:n]) + "," + "".join(word[n:]): value
        for word, value in sorted(decomp.coefficients.items())
    }
    results = {"n_qubits": n, "coefficients": coefficients}
    _emit(args, {"file": args.file}, results, "value")
    return EXIT_PASS


def _cmd_emit_ocb(args) -> int:
    w = ocbgame.build_w_ocb()
    pmfile.save(args.out, w, label="W_OCB")
    results = {"out": args.out, "rows": w.spec.total_dim}
    _emit(args, {"out": args.out}, results, "value")
    return EXIT_PASS


def _tolerance(text: str) -> float:
    if not 0 <= float(text) < float("inf"):  # nan fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return float(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pmtool parser, built once per process and shared by every call: do
    not mutate it. ``parse_args`` keeps no state, so ``main`` may run repeatedly."""
    parser = argparse.ArgumentParser(
        prog="pmtool",
        description="Process-matrix validation, reduction and causal-game tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *positionals, tol=True, **options):
        """Subcommand ``name``: its positionals, an option --<key> per keyword
        (argparse settings), then --tol where the command reads it, and --pretty."""
        p = sub.add_parser(name, help=summary)
        for positional in positionals:
            p.add_argument(positional)
        for key, settings in options.items():
            p.add_argument(f"--{key}", **settings)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="bound on the Frobenius norm of a deviation (default 1e-9)")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")
        p.set_defaults(func=func)

    add("validate", _cmd_validate, "check a process-matrix file", "file")
    add("reduce", _cmd_reduce, "single-party reduction to W1 (x) I", "file",
        oracle=dict(choices=("constructive", "projection", "both"), default="both"))
    add("ocb-game", _cmd_ocb_game, "evaluate the two-party causal game",
        eta=dict(choices=sorted(ocbgame.ETA_STATES), default="0",
                 help="state Bob prepares on the b'=1 branch"))
    add("causal-bound", _cmd_causal_bound, "exhaustive classical causal strategy bound",
        tol=False)
    add("decompose", _cmd_decompose, "Pauli decomposition of a single-party W", "file",
        tol=False)
    add("emit-ocb", _cmd_emit_ocb, "write the W_OCB process matrix to a file", "out",
        tol=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (pmfile.PMFileError, OSError, DimensionMismatchError,
            NonHermitianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:  # an inf or nan in a report is not standard JSON
        print(f"error: matrix entries too large to evaluate ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
