"""Command-line front end.

Subcommands: validate, reduce, ocb-game, causal-bound, decompose, emit-ocb.
Reports go to stdout as JSON (or text with --pretty), diagnostics to
stderr. Exit codes: 0 pass/value, 1 fail, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ocbgame, pmfile, reduction
from .linalg import DEFAULT_TOL, DimensionMismatchError, NonHermitianError
from .process import validate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _report(command: str, inputs: dict, tolerances: dict, results: dict,
            status: str) -> dict:
    return dict(command=command, inputs=inputs, tolerances=tolerances,
                results=results, status=status)


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print(f"command: {report['command']}")
        for key, value in report["results"].items():
            print(f"  {key}: {value}")
        print(f"status: {report['status']}")
    else:
        print(json.dumps(report, indent=1))


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
        "worst_residual": report.worst_residual,
        "violated_constraints": [list(v) for v in report.violated_constraints],
    }
    status = "pass" if report.ok else "fail"
    _emit(_report("validate", {"file": args.file}, {"tol": args.tol},
                  results, status), args.pretty)
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
    _emit(_report("reduce", {"file": args.file, "oracle": args.oracle},
                  {"tol": args.tol}, results, status), args.pretty)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_ocb_game(args) -> int:
    eta = ocbgame.ETA_STATES[args.eta]
    result = ocbgame.evaluate_game(ocbgame.build_w_ocb(), eta)
    bound = ocbgame.causal_bound_bruteforce()
    violated = result.p_ocb > bound + args.tol
    results = {
        "p_guess_b": result.p_guess_b,
        "p_guess_a": result.p_guess_a,
        "p_ocb": result.p_ocb,
        "causal_bound": bound,
    }
    status = "violated" if violated else "not_violated"
    _emit(_report("ocb-game", {"eta": args.eta}, {"tol": args.tol},
                  results, status), args.pretty)
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
    _emit(_report("causal-bound", {}, {}, results, "value"), args.pretty)
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
    _emit(_report("decompose", {"file": args.file}, {}, results, "value"),
          args.pretty)
    return EXIT_PASS


def _cmd_emit_ocb(args) -> int:
    w = ocbgame.build_w_ocb()
    pmfile.save(args.out, w, label="W_OCB")
    results = {"out": args.out, "rows": w.spec.total_dim}
    _emit(_report("emit-ocb", {"out": args.out}, {}, results, "value"),
          args.pretty)
    return EXIT_PASS


def _tolerance(text: str) -> float:
    if not 0 <= float(text) < float("inf"):  # nan fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmtool",
        description="Process-matrix validation, reduction and causal-game tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="bound on the Frobenius norm of a deviation (default 1e-9)")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")

    p = sub.add_parser("validate", help="check a process-matrix file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reduce", help="single-party reduction to W1 (x) I")
    p.add_argument("file")
    p.add_argument("--oracle", choices=("constructive", "projection", "both"),
                   default="both")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("ocb-game", help="evaluate the two-party causal game")
    p.add_argument("--eta", choices=sorted(ocbgame.ETA_STATES), default="0",
                   help="state Bob prepares on the b'=1 branch")
    common(p)
    p.set_defaults(func=_cmd_ocb_game)

    p = sub.add_parser("causal-bound",
                       help="exhaustive classical causal strategy bound")
    common(p, tol=False)
    p.set_defaults(func=_cmd_causal_bound)

    p = sub.add_parser("decompose", help="Pauli decomposition of a single-party W")
    p.add_argument("file")
    common(p, tol=False)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("emit-ocb", help="write the W_OCB process matrix to a file")
    p.add_argument("out")
    common(p, tol=False)
    p.set_defaults(func=_cmd_emit_ocb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (pmfile.PMFileError, OSError, DimensionMismatchError,
            NonHermitianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
