"""Process-matrix interchange files (extension .pm.json).

A document holds the party dimensions and the dense matrix with explicit
[re, im] entry pairs, row-major. The header fields d_in, d_out, rows and
cols are JSON integers. A document is written on one line, with numbers as
shortest round-trip decimals, so serialize/parse is bit exact; any JSON
layout parses. Hermiticity is not enforced at parse time; validation is a
separate command.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math

import numpy as np

from .linalg import DimensionPair
from .process import PartySpec, ProcessMatrix


class PMFileError(ValueError):
    """Malformed process-matrix document."""


def matrix_entries(m: np.ndarray) -> list:
    """The [re, im] pairs of a complex matrix's entries, row-major."""
    return np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()


def serialize(w: ProcessMatrix, label: str = None) -> str:
    d = w.spec.total_dim
    doc = {
        "parties": [{"d_in": p.d_in, "d_out": p.d_out} for p in w.spec.parties],
        "matrix": {"rows": d, "cols": d, "entries": matrix_entries(w.matrix)},
    }
    if label is not None:
        doc["label"] = label
    return json.dumps(doc)


def _header_int(obj: dict, key: str) -> int:
    """A header field, which must be a JSON integer: no bool, float or string."""
    if type(obj[key]) is not int:
        raise TypeError(f"{key} is not an integer")
    return obj[key]


def parse(text: str) -> ProcessMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PMFileError(f"syntax error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an over-long integer
        raise PMFileError(f"unreadable document: {exc}") from None
    if not isinstance(doc, dict):
        raise PMFileError("document must be a JSON object")

    parties_raw = doc.get("parties")
    if not isinstance(parties_raw, list) or not parties_raw:
        raise PMFileError("'parties' must be a nonempty list")
    parties = []
    for i, p in enumerate(parties_raw):
        try:
            parties.append(DimensionPair(_header_int(p, "d_in"), _header_int(p, "d_out")))
        except (TypeError, KeyError, ValueError) as exc:
            raise PMFileError(f"party {i} needs positive integer d_in/d_out") from exc
    spec = PartySpec(tuple(parties))

    matrix_raw = doc.get("matrix")
    if not isinstance(matrix_raw, dict):
        raise PMFileError("'matrix' must be an object")
    try:
        rows, cols = _header_int(matrix_raw, "rows"), _header_int(matrix_raw, "cols")
        entries = matrix_raw["entries"]
    except (TypeError, KeyError, ValueError) as exc:
        raise PMFileError("'matrix' needs integer rows and cols, and entries") from exc
    if rows != cols or rows != spec.total_dim:
        raise PMFileError(
            f"matrix is {rows}x{cols} but the party dimensions require "
            f"{spec.total_dim}x{spec.total_dim}"
        )
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise PMFileError(f"expected {rows * cols} entries, got "
                          f"{len(entries) if isinstance(entries, list) else 'non-list'}")

    values = None
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        flat = list(itertools.chain.from_iterable(entries))
        # JSON gives exactly int, float or bool; a bool is not a number here
        if set(map(type, flat)) <= {int, float}:
            with contextlib.suppress(OverflowError):  # an integer too large for a float
                values = np.array(flat, dtype=float)
    if values is None or not np.isfinite(values).all():
        raise _entry_error(entries)
    return ProcessMatrix(spec, values.view(complex).reshape(rows, cols))  # keeps -0.0


def _entry_error(entries) -> PMFileError:
    """The error naming the first entry that is not a finite [re, im] number pair."""
    for i, entry in enumerate(entries):
        if not (type(entry) is list and len(entry) == 2
                and {type(v) for v in entry} <= {int, float}):
            return PMFileError(f"entry {i} must be a [re, im] number pair")
        with contextlib.suppress(OverflowError):
            if all(map(math.isfinite, entry)):
                continue
        return PMFileError(f"entry {i} is not finite")


def load(path) -> ProcessMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # RFC 8259 8.1: a leading BOM may be ignored
    except UnicodeDecodeError as exc:
        raise PMFileError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse(text)


def save(path, w: ProcessMatrix, label: str = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(w, label=label))
        fh.write("\n")
