"""Spans around calls into pmtool's public functions, recorded from outside.

``Tracer`` replaces each target function in every pmtool module namespace
that binds it (``process.kron_all`` as well as ``linalg.kron_all``) with a
wrapper that appends a span to an in-memory list, and puts the originals
back on ``uninstall``. A span is ``[name_id, start, end, parent, op_id]``;
``parent`` is the index of the enclosing span or -1. Self time is a span's
duration minus the durations of its direct children, which never overlap in
a single-threaded caller.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function, what the wrapper records). "span" records a span; "count"
# only counts calls, for functions called thousands of times per operation.
TARGETS = (
    ("linalg", "kron_all", "span"),
    ("linalg", "min_eigenvalue", "span"),
    ("linalg", "partial_trace", "span"),
    ("linalg", "pauli_word", "span"),
    ("channels", "cj_of_kraus", "span"),
    ("channels", "random_instrument", "span"),
    ("process", "validate", "span"),
    ("process", "normalization_constraints", "span"),
    ("process", "probability", "span"),
    ("reduction", "reduce_single_qubit", "span"),
    ("reduction", "reduce_multiqubit", "span"),
    ("reduction", "appendix_constraint_sum", "span"),
    ("reduction", "projection_oracle", "span"),
    ("reduction", "pauli_decompose", "span"),
    ("ocbgame", "causal_bound_details", "span"),
    ("ocbgame", "evaluate_strategy", "count"),
    ("ocbgame", "evaluate_game", "span"),
    ("pmfile", "parse", "span"),
    ("pmfile", "serialize", "span"),
    ("cli", "main", "span"),
)


def _count_constraints(counts, args, result):
    if result:
        d = result[0][1].shape[0]
        counts["process.constraints_built"] += len(result)
        counts["process.constraint_bytes_computed"] += len(result) * d * d * 16


def _count_read(counts, args, result):
    counts["pmfile.bytes_read"] += len(args[0].encode("utf-8"))


def _count_written(counts, args, result):
    counts["pmfile.bytes_written"] += len(result.encode("utf-8"))


# Counters kept at a span's boundary: (counts, call arguments, result).
# constraint_bytes_computed is count x d^2 x 16 bytes of complex128, computed
# from the shapes rather than measured.
HOOKS = {
    "process.normalization_constraints": _count_constraints,
    "pmfile.parse": _count_read,
    "pmfile.serialize": _count_written,
}


def self_times(spans, names):
    """Per span name: (number of spans, summed self time in seconds)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_s = Counter()
    for i, (name_id, start, end, _, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
    return calls, self_s


class Tracer:
    """Wraps pmtool's public functions while installed; keeps spans in memory."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self.active = False
        self._stack = []
        self._patches = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pmtool" or key.startswith("pmtool."))]
        for mod_name, func_name, kind in TARGETS:
            original = getattr(sys.modules[f"pmtool.{mod_name}"], func_name)
            label = f"{mod_name}.{func_name}"
            if kind == "span":
                wrapper = self._span_wrapper(label, original)
            else:
                wrapper = self._count_wrapper(label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def open_span(self, label):
        """Start a span by hand (used for the per-operation root span)."""
        if label not in self.names:
            self.names.append(label)
        rec = [self.names.index(label), time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_span(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, label, original):
        self.names.append(label)
        name_id = len(self.names) - 1
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = HOOKS.get(label)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            rec = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, label, original):
        counts = self.counts
        key = f"{label}.calls"

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def dump(self, path):
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top_id\n")
            for name_id, start, end, parent, op_id in self.spans:
                fh.write(f"{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\t{op_id}\n")
