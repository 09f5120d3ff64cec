"""Inputs, operations and correctness oracles of the three workloads.

Each ``build_*`` function makes one round of operations from a seed: a fixed
count per input kind, so that every run holds the kinds in the same
proportions and each latency percentile falls at a fixed rank inside one
kind. The oracles use only numpy and json, never pmtool, so the program is
checked against an independent construction.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pmtool import channels, cli, pmfile, process, reduction
from pmtool.linalg import DimensionPair
from pmtool.process import PartySpec, ProcessMatrix

PAULI = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_STACK = np.stack([PAULI[p] for p in "1xyz"])
P_OCB = (2 + np.sqrt(2)) / 4
CAUSAL_BOUND = 0.75
W1_TOL = 1e-10
PROB_TOL = 1e-9


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check(result, stats)`` returns whether the result is correct and may
    add oracle-derived counts to ``stats``. ``known_defect`` marks inputs on
    which the program at the seed commit is known to fail.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], bool]
    known_defect: bool = False


def kron_all(factors):
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_traceless(rng, d):
    """Random traceless Hermitian d x d matrix of unit Frobenius norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    h -= np.trace(h) / d * np.eye(d)
    return h / np.linalg.norm(h)


def w_ocb():
    i, x, z = PAULI["1"], PAULI["x"], PAULI["z"]
    return (np.eye(16) + (kron_all([i, z, z, i]) + kron_all([z, i, x, z])) / np.sqrt(2)) / 4


def product_w(rng, dims):
    """Valid by construction: rho_k (x) I_out for every party k."""
    return kron_all(f for d_in, d_out in dims
                    for f in (random_density(rng, d_in), np.eye(d_out)))


def output_perturbation(rng, dims):
    """A Hermitian term with output content that normalization forbids.

    A traceless operator on one or two random output factors (identity on the
    other factors), or on one party's input and output together.
    """
    k = len(dims)
    mode = rng.choice(["out", "inout", "outout"] if k > 1 else ["out", "inout"])
    parties = rng.choice(k, size=2 if mode == "outout" else 1, replace=False)
    factors = []
    for j, (d_in, d_out) in enumerate(dims):
        touched = j in parties
        f_in = random_traceless(rng, d_in) if touched and mode == "inout" else np.eye(d_in)
        f_out = random_traceless(rng, d_out) if touched else np.eye(d_out)
        factors += [f_in, f_out]
    return kron_all(factors)


def pauli_word(word):
    return kron_all(PAULI[p] for p in word)


def reconstruct(coefficients, n):
    """Sum of c_word * sigma_word over all 4^(2n) words, by tensor contraction."""
    m = 2 * n
    t = np.zeros((4,) * m)
    for word, c in coefficients.items():
        t[tuple("1xyz".index(p) for p in word)] = c
    for _ in range(m):
        t = np.tensordot(t, PAULI_STACK, axes=([0], [0]))
    # Axes are now (row_1, col_1, ..., row_m, col_m).
    t = t.transpose(list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2)))
    return t.reshape(2**m, 2**m)


def _spec(dims):
    return PartySpec(tuple(DimensionPair(a, b) for a, b in dims))


# ---------------------------------------------------------------- validate-mix

# (kind, party dims, valid count, perturbed count), in order of latency. The
# counts put p50 at the middle of the (2,3)(3,2) kind and p90 at the middle
# of the (2,2)^3 kind.
VALIDATE_SHAPES = (
    ("(2,2)(2,2)", ((2, 2), (2, 2)), 3, 3),
    ("(2,3)(3,2)", ((2, 3), (3, 2)), 14, 14),
    ("(2,2)^3", ((2, 2),) * 3, 2, 2),
    ("(3,3)(3,3)", ((3, 3), (3, 3)), 1, 1),
)


def _validate_op(kind, w, valid, inst_seed):
    dims = w.spec.parties

    def run():
        report = process.validate(w)
        if not valid:
            return report, None
        cjs = [channels.cj_of_instrument(channels.random_instrument(p, 2, inst_seed + i))
               for i, p in enumerate(dims)]
        total = sum(process.probability(w, list(combo)) for combo in itertools.product(*cjs))
        return report, total

    def check(result, stats):
        report, total = result
        if not valid:
            return not report.ok
        return report.ok and abs(total - 1.0) <= PROB_TOL

    return Op(kind, run, check)


def build_validate_mix(rng, workdir, tiny=False):
    ops = []
    for kind, dims, n_valid, n_bad in VALIDATE_SHAPES:
        if tiny:
            n_valid = n_bad = 1
        for i in range(n_valid + n_bad):
            m = product_w(rng, dims)
            if kind == "(2,2)(2,2)" and i % 2 == 0:
                # Half of the two-qubit-party inputs mix in the OCB process.
                p = rng.uniform(0.5, 1.0)
                m = p * w_ocb() + (1 - p) * m
            valid = i < n_valid
            if not valid:
                m = m + rng.uniform(0.05, 0.15) * output_perturbation(rng, dims)
            w = ProcessMatrix(_spec(dims), m)
            ops.append(_validate_op(kind, w, valid, int(rng.integers(1 << 30))))
    return ops


# ------------------------------------------------------------------ reduce-mix

# Half valid, half perturbed; p50 falls at the middle of n=2, p90 at the
# middle of n=3.
REDUCE_COUNTS = {1: 4, 2: 12, 3: 4}


def perturbation_label(word, n):
    """The coefficient label the constructive oracle gives the word's sum."""
    if n == 1:
        return f"w_{word[0]}{word[1]}"
    return f"w_{''.join(word[:n])},{''.join(word[n:])}"


def _reduce_op(n, w, rho, word):
    kind = f"n={n}"

    def run():
        if n == 1:
            cons = reduction.reduce_single_qubit(w)
        else:
            cons = reduction.reduce_multiqubit(w)
        return cons, reduction.projection_oracle(w), reduction.pauli_decompose(w)

    def check(result, stats):
        cons, proj, decomp = result
        ok = cons.certified == proj.certified
        ok &= np.max(np.abs(reconstruct(decomp.coefficients, n) - w.matrix)) <= W1_TOL
        if word is None:
            ok &= cons.certified
            for rep in (cons, proj):
                ok &= np.max(np.abs(rep.w1 - rho)) <= W1_TOL
            return bool(ok)
        label = perturbation_label(word, n)
        localised = any(v.coefficient_label == label for v in cons.violations)
        stats["reduce.perturbed"] += 1
        stats["reduce.localised"] += localised
        ok &= not cons.certified
        if n <= 2:
            ok &= localised
        return bool(ok)

    return Op(kind, run, check)


def build_reduce_mix(rng, workdir, tiny=False):
    ops = []
    for n, count in REDUCE_COUNTS.items():
        if tiny:
            count = 2
        d = 2**n
        for i in range(count):
            rho = random_density(rng, d)
            m = np.kron(rho, np.eye(d))
            word = None
            if i % 2 == 1:
                while word is None or set(word[n:]) == {"1"}:
                    word = tuple(rng.choice(list("1xyz"), size=2 * n))
                m = m + rng.uniform(0.02, 0.1) * pauli_word(word)
            ops.append(_reduce_op(n, ProcessMatrix(_spec(((d, d),)), m), rho, word))
    return ops


# ----------------------------------------------------------------- cli-session

def _cli_call(argv):
    """Run ``pmtool.cli.main`` in-process; an escaping exception gives code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback, which the README does not allow
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"{token} is not standard JSON")


def _cli_op(kind, argv, expect_code, check_report=None, known_defect=False):
    """A CLI call judged by the README: exit 0 or 1 with a JSON report, or
    exit 2 with a one-line error on stderr and nothing on stdout."""

    def check(result, stats):
        code, out, err = result
        if code != expect_code:
            stats["cli.exit_code_mismatch"] += 1
            return False
        if code == 2:
            return out == "" and err.startswith("error:") and err.count("\n") == 1
        try:
            report = json.loads(out, parse_constant=_reject_constant)
        except ValueError:
            return False
        return check_report is None or bool(check_report(report))

    return Op(kind, lambda: _cli_call(argv), check, known_defect)


def _check_matrix_file(path, expected):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = np.array(doc["matrix"]["entries"], dtype=float)
    m = (entries[:, 0] + 1j * entries[:, 1]).reshape(expected.shape)
    return np.max(np.abs(m - expected)) <= W1_TOL


def _check_decompose(expected, n):
    def check(report):
        coeffs = {tuple(k.replace(",", "")): v
                  for k, v in report["results"]["coefficients"].items()}
        return (report["results"]["n_qubits"] == n and len(coeffs) == 16**n
                and np.max(np.abs(reconstruct(coeffs, n) - expected)) <= W1_TOL)
    return check


def _check_reduce(certified, rho=None):
    def check(report):
        results = report["results"]
        ok = report["status"] == ("pass" if certified else "fail")
        for oracle in ("constructive", "projection"):
            ok &= results[oracle]["certified"] == certified
            if rho is not None:
                e = np.array(results[oracle]["w1"], dtype=float)
                w1 = (e[:, 0] + 1j * e[:, 1]).reshape(rho.shape)
                ok &= np.max(np.abs(w1 - rho)) <= W1_TOL
        return ok
    return check


def _check_game(report):
    r = report["results"]
    return (report["status"] == "violated" and abs(r["p_ocb"] - P_OCB) <= PROB_TOL
            and r["causal_bound"] == CAUSAL_BOUND)


def _check_bound(report):
    r = report["results"]
    return r["bound"] == CAUSAL_BOUND and r["bound_exact"] == "3/4"


def _status(expected):
    return lambda report: report["status"] == expected


def write_cli_files(rng, workdir):
    """Write the session's input files; returns {name: (path, matrix, rho)}."""
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def save(name, dims, m, rho=None):
        path = os.path.join(workdir, f"{name}.pm.json")
        pmfile.save(path, ProcessMatrix(_spec(dims), m), label=name)
        files[name] = (path, m, rho)

    two = ((2, 2), (2, 2))
    save("ocb", two, w_ocb())
    save("product", two, product_w(rng, two))
    save("perturbed", two, product_w(rng, two) + 0.1 * output_perturbation(rng, two))
    for n in (1, 2):
        d = 2**n
        rho = random_density(rng, d)
        save(f"n{n}-valid", ((d, d),), np.kron(rho, np.eye(d)), rho)
    word = ("x", "z")
    save("n1-perturbed", ((2, 2),), np.kron(random_density(rng, 2), np.eye(2))
         + 0.05 * pauli_word(word))
    nonherm = np.kron(random_density(rng, 2), np.eye(2))
    nonherm[0, 1] += 0.1
    save("nonhermitian", ((2, 2),), nonherm)
    path = os.path.join(workdir, "malformed.pm.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"parties": [{"d_in": 2, "d_out": 2}], "matrix": {"rows": 4,')
    files["malformed"] = (path, None, None)
    return files


def build_cli_session(rng, workdir, tiny=False):
    files = write_cli_files(rng, workdir)
    path = {name: f[0] for name, f in files.items()}
    emitted = os.path.join(workdir, "emitted.pm.json")

    def emit_check(report):
        return report["results"]["rows"] == 16 and _check_matrix_file(emitted, w_ocb())

    # (op, count): fast (under 5 ms), medium (one constraint loop on 16 rows)
    # and slow (the causal enumeration) kinds, 10/30/10 per round, so that p50
    # falls at the middle of the medium kinds and p90 inside ocb-game.
    plan = [
        (_cli_op("emit-ocb", ["emit-ocb", emitted], 0, emit_check), 2),
        (_cli_op("decompose-n1", ["decompose", path["n1-valid"]], 0,
                 _check_decompose(files["n1-valid"][1], 1)), 1),
        (_cli_op("decompose-n2", ["decompose", path["n2-valid"]], 0,
                 _check_decompose(files["n2-valid"][1], 2)), 1),
        (_cli_op("reduce-valid", ["reduce", path["n1-valid"]], 0,
                 _check_reduce(True, files["n1-valid"][2])), 1),
        (_cli_op("reduce-perturbed", ["reduce", path["n1-perturbed"]], 1,
                 _check_reduce(False)), 1),
        (_cli_op("validate-malformed", ["validate", path["malformed"]], 2), 1),
        (_cli_op("validate-nonhermitian", ["validate", path["nonhermitian"]], 1,
                 _status("fail"), known_defect=True), 1),
        (_cli_op("reduce-nonhermitian", ["reduce", path["nonhermitian"]], 1,
                 _check_reduce(False), known_defect=True), 1),
        (_cli_op("reduce-two-party", ["reduce", path["product"]], 2,
                 known_defect=True), 1),
        (_cli_op("validate-ocb", ["validate", path["ocb"]], 0, _status("pass")), 8),
        (_cli_op("validate-product", ["validate", path["product"]], 0, _status("pass")), 8),
        (_cli_op("validate-perturbed", ["validate", path["perturbed"]], 1, _status("fail")), 8),
        (_cli_op("validate-n2", ["validate", path["n2-valid"]], 0, _status("pass")), 6),
        (_cli_op("causal-bound", ["causal-bound"], 0, _check_bound), 2),
    ]
    for eta in ("0", "1", "plus", "iplus"):
        plan.append((_cli_op(f"ocb-game-{eta}", ["ocb-game", "--eta", eta], 0, _check_game), 2))
    return [op for op, count in plan for _ in range(1 if tiny else count)]


WORKLOADS = {
    "validate-mix": build_validate_mix,
    "reduce-mix": build_reduce_mix,
    "cli-session": build_cli_session,
}
