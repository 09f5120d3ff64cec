"""pmtool benchmark: one workload, closed loop, one client, one process.

Run from the root of a pmtool checkout:

    python3 perfbench/run.py --workload validate-mix --seed 1 --seconds 20 --trace 0

The workload's operations run in rounds, each round a fixed count per input
kind in a seeded order, until ``--seconds`` have passed and at least
``MIN_OPS`` operations ran. Every result is checked by an oracle; a failed
check counts against ``fail_ratio`` and does not stop the run.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` untraced and traced rounds alternate; the traced rounds
record spans around pmtool's public functions, and the last line reports
per-layer metrics per traced round plus the tracing overhead. Earlier lines
starting with ``#`` carry the run metadata and a readable summary, and the
run leaves its metadata and spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread: the benchmark is one client in one process, and threaded
# BLAS on matrices this small adds spread rather than speed.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100          # latency_p90_ms needs ten samples above it
SETUP_REPEATS = 9      # setup_s is the median of this many set-ups
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import pmtool.cli; "
                  "print(time.perf_counter() - t)")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Span metrics, counters and oracle ratios, per traced round of the workload.
PER_LAYER = (
    ("linalg.kron_all.calls", "count/round"),
    ("linalg.kron_all.self_s", "s/round"),
    ("linalg.min_eigenvalue.calls", "count/round"),
    ("linalg.min_eigenvalue.self_s", "s/round"),
    ("linalg.partial_trace.self_s", "s/round"),
    ("linalg.pauli_word.calls", "count/round"),
    ("linalg.pauli_word.self_s", "s/round"),
    ("channels.cj_of_kraus.calls", "count/round"),
    ("channels.cj_of_kraus.self_s", "s/round"),
    ("channels.random_instrument.self_s", "s/round"),
    ("process.validate.calls", "count/round"),
    ("process.validate.self_s", "s/round"),
    ("process.normalization_constraints.self_s", "s/round"),
    ("process.constraints_built", "count/round"),
    ("process.constraint_bytes_computed", "B/round"),
    ("process.probability.calls", "count/round"),
    ("process.probability.self_s", "s/round"),
    ("reduction.reduce_single_qubit.self_s", "s/round"),
    ("reduction.reduce_multiqubit.self_s", "s/round"),
    ("reduction.appendix_constraint_sum.calls", "count/round"),
    ("reduction.appendix_constraint_sum.self_s", "s/round"),
    ("reduction.projection_oracle.self_s", "s/round"),
    ("reduction.pauli_decompose.self_s", "s/round"),
    ("reduction.localised_ratio", "ratio"),
    ("ocbgame.causal_bound_details.calls", "count/round"),
    ("ocbgame.causal_bound_details.self_s", "s/round"),
    ("ocbgame.evaluate_strategy.calls", "count/round"),
    ("ocbgame.evaluate_game.self_s", "s/round"),
    ("pmfile.parse.self_s", "s/round"),
    ("pmfile.serialize.self_s", "s/round"),
    ("pmfile.bytes_read", "B/round"),
    ("pmfile.bytes_written", "B/round"),
    ("cli.main.calls", "count/round"),
    ("cli.main.self_s", "s/round"),
    ("cli.exit_code_mismatch", "count/round"),
    ("tracing.ops_per_s_ratio", "ratio"),
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_pmtool(root):
    """Import pmtool from the checkout's ``src``; never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pmtool", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import pmtool

    if os.path.dirname(os.path.dirname(os.path.abspath(pmtool.__file__))) != src:
        return None
    return pmtool


def time_import(root):
    """Seconds to import pmtool (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=root, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(build, seed, workdir, root):
    """Median over SETUP_REPEATS of pmtool import + input generation + file writing."""
    import numpy as np

    samples = []
    for _ in range(SETUP_REPEATS):
        import_s = time_import(root)
        start = time.perf_counter()
        ops = build(np.random.default_rng(seed), workdir)
        samples.append(import_s + time.perf_counter() - start)
    return statistics.median(samples), ops


def run_op(op, stats, tracer=None):
    """(kind, seconds inside the program, passed oracle, known defect)."""
    if tracer is not None:
        tracer.op_id += 1
        root = tracer.open_span(f"op.{op.kind}")
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.run()
        raised = False
    except Exception as exc:  # counted as a failed operation
        result, raised = exc, True
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
        tracer.close_span(root)
    try:
        ok = not raised and bool(op.check(result, stats))
    except Exception:  # a malformed result the oracle cannot read
        ok = False
    return op.kind, elapsed, ok, op.known_defect


def measure(ops, seed, seconds, tracer=None):
    """Run rounds until ``seconds`` passed; with a tracer, alternate untraced
    and traced rounds. Returns (untraced rounds, traced rounds, stats), each
    round a list of ``run_op`` records."""
    import numpy as np

    order_rng = np.random.default_rng([seed, 1])
    stats = Counter()
    plain, traced = [], []
    seen = set()
    for op in ops:  # warm-up: one operation of each kind, not recorded
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op, Counter())
    start = time.perf_counter()
    rounds = 0
    while True:
        use_tracer = tracer is not None and rounds % 2 == 1
        if use_tracer:
            tracer.install()
        try:
            records = [run_op(ops[i], stats, tracer if use_tracer else None)
                       for i in order_rng.permutation(len(ops))]
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else plain).append(records)
        rounds += 1
        if time.perf_counter() - start < seconds:
            continue
        if tracer is None and sum(map(len, plain)) >= MIN_OPS:
            break
        if tracer is not None and rounds % 2 == 0:
            break
    return plain, traced, stats


def round_rates(rounds):
    """Correct operations per second spent in the program, for each round."""
    return [sum(1 for r in records if r[2]) / sum(r[1] for r in records) for records in rounds]


def ops_per_s(rounds):
    """Median of the round rates. Every round holds the same operations, so
    the median drops rounds slowed by something outside the program."""
    return statistics.median(round_rates(rounds))


def end_to_end_metrics(rounds, setup_s):
    latencies_ms = [r[1] * 1e3 for records in rounds for r in records]
    q = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    return {
        "ops_per_s": ops_per_s(rounds),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": q[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer, plain, traced, stats):
    from tracing import self_times

    rounds = len(traced)
    calls, self_s = self_times(tracer.spans, tracer.names)
    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name] / rounds
        values[f"{name}.self_s"] = self_s[name] / rounds
    for name, count in tracer.counts.items():
        values[name] = count / rounds
    all_rounds = len(plain) + len(traced)
    values["cli.exit_code_mismatch"] = stats["cli.exit_code_mismatch"] / all_rounds
    if stats["reduce.perturbed"]:
        values["reduction.localised_ratio"] = stats["reduce.localised"] / stats["reduce.perturbed"]
    values["tracing.ops_per_s_ratio"] = ops_per_s(traced) / ops_per_s(plain)
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config differs across numpy versions
        return "unknown"


def metadata(args, ops, pmtool):
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one process",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pmtool": getattr(pmtool, "__version__", "unknown"),
        "ops_per_round": dict(Counter(op.kind for op in ops)),
    }


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    pmtool = load_pmtool(root)
    if pmtool is None:
        return fail(f"no pmtool sources under {os.path.join(root, 'src')}; "
                    "run from the root of a pmtool checkout")
    from workloads import WORKLOADS  # imports numpy and pmtool

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    outdir = os.path.join(here, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)

    setup_s, ops = set_up(WORKLOADS[args.workload], args.seed,
                          os.path.join(outdir, "files"), root)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced, stats = measure(ops, args.seed, args.seconds, tracer)

    records = [r for records in plain + traced for r in records]
    failures = Counter(r[0] for r in records if not r[2])
    failed = sum(failures.values())
    unexpected = sorted({r[0] for r in records if not r[2] and not r[3]})
    meta = metadata(args, ops, pmtool)
    by_kind = {}
    for kind, elapsed, _, _ in (r for records in plain for r in records):
        by_kind.setdefault(kind, []).append(elapsed * 1e3)
    meta.update(rounds=len(plain), traced_rounds=len(traced),
                samples=sum(map(len, plain)), traced_samples=sum(map(len, traced)), failed=failed,
                fail_ratio=failed / len(records), failures_by_kind=dict(failures),
                unexpected_failures=unexpected,
                round_ops_per_s=round_rates(plain),
                median_ms_by_kind={k: statistics.median(v) for k, v in by_kind.items()})
    if args.trace:
        metrics = per_layer_metrics(tracer, plain, traced, stats)
        units = dict(PER_LAYER)
        tracer.dump(os.path.join(outdir, "spans.tsv"))
    else:
        metrics = end_to_end_metrics(plain, setup_s)
        units = dict(END_TO_END)
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=1)

    print("# meta " + json.dumps(meta))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# fail_ratio = {meta['fail_ratio']:.6g} ({failed} of {len(records)})")
    print(f"# samples = {meta['samples']} untraced, {meta['traced_samples']} traced operations")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
