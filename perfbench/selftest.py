"""Quick self-test of the benchmark itself (about 15 s).

Run from the root of a pmtool checkout:

    python3 perfbench/selftest.py

It checks the self-time arithmetic on a synthetic span tree, runs every
workload at a tiny size (one operation per input kind) untraced and traced,
and checks that BENCHMARK.json names the metrics and workloads run.py has.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import run


def check_self_times():
    from tracing import self_times

    names = ["root", "a", "b"]
    spans = [
        [0, 0.0, 10.0, -1, 0],   # root: 10 s, children a (3 s) and b (4 s)
        [1, 1.0, 4.0, 0, 0],     # a: 3 s, child b (1 s)
        [2, 2.0, 3.0, 1, 0],
        [2, 5.0, 9.0, 0, 0],
    ]
    calls, self_s = self_times(spans, names)
    assert calls == Counter(root=1, a=1, b=2), calls
    assert self_s == Counter(root=3.0, a=2.0, b=5.0), self_s


def check_tracer_patches():
    from pmtool import linalg, process, reduction
    from tracing import Tracer

    original = linalg.kron_all
    tracer = Tracer()
    tracer.install()
    try:
        assert process.kron_all is linalg.kron_all is reduction.kron_all
        assert process.kron_all is not original
    finally:
        tracer.uninstall()
    assert process.kron_all is original and linalg.kron_all is original


def check_workload(name, build, workdir):
    import numpy as np
    from tracing import Tracer, self_times

    ops = build(np.random.default_rng(7), workdir, tiny=True)
    stats = Counter()
    plain = [run.run_op(op, stats) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.run_op(op, stats, tracer) for op in ops]
    finally:
        tracer.uninstall()
    for records in (plain, traced):
        unexpected = [kind for kind, _, ok, known in records if not ok and not known]
        assert not unexpected, f"{name}: unexpected failures {unexpected}"
    assert tracer.spans and all(-1 <= s[3] < i for i, s in enumerate(tracer.spans))
    _, self_s = self_times(tracer.spans, tracer.names)
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert abs(sum(self_s.values()) - roots) <= 1e-6 * max(1.0, roots)
    return len(ops), sum(1 for r in plain if not r[2])


def check_benchmark_json(workloads):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = run.BLAS_THREADS
    if run.load_pmtool(os.getcwd()) is None:
        return run.fail("run from the root of a pmtool checkout")
    from workloads import WORKLOADS

    check_self_times()
    check_tracer_patches()
    check_benchmark_json(WORKLOADS)
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "selftest")
    for name, build in WORKLOADS.items():
        n_ops, failed = check_workload(name, build, os.path.join(out, name))
        print(f"{name}: {n_ops} operations, {failed} known-defect failures")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
