"""In-memory spans around calls into the package's modules.

The benchmark replays each operation stage by stage through the public
functions of ``leonardpairs``.  While a :class:`Tracer` is installed, the
functions named in ``LAYER_FUNCTIONS`` are replaced, in every package
module that holds a reference to them, by wrappers that record a span
(name, start, end, parent span, operation id) and a few counts.  Nothing
under ``src/`` changes: the wrappers are installed from outside and
removed again when the ``installed()`` block ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYER_FUNCTIONS = {
    "field": ("roots_in_field", "verify_root_multiset"),
    "matrix": ("char_poly", "is_multiplicity_free"),
    "parray": (
        "validate",
        "fingerprint",
        "find_g_matrix",
        "check_poly_characterization",
        "construct_bidiagonal",
        "construct_tridiagonal",
    ),
    "leonard": (
        "is_leonard_pair",
        "fit_askey_wilson",
        "extract_parameter_array",
        "system_from_pair_with_orderings",
        "system_from_bidiagonal_pair",
        "system_from_parameter_array",
    ),
    "generators": (
        "build_lattice",
        "lattice_pair",
        "sl2_pair",
        "uq_pair",
        "random_parameter_array",
        "random_nonexample",
    ),
}

PACKAGE_MODULES = ("field", "matrix", "parray", "leonard", "generators", "cli")


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Counts taken at the layer boundary, from arguments and results."""
    if name == "leonard.is_leonard_pair":
        counts["leonard.orderings_found"] += len(result.systems)
    elif name == "field.roots_in_field":
        counts["field.roots_in_field.calls"] += 1
        counts["field.roots_in_field.degree_sum"] += args[0].degree
    elif name == "parray.find_g_matrix":
        counts["parray.find_g_matrix.solution_dimension"] += result.solution_dimension
        counts["parray.find_g_matrix.pencil_exhausted"] += int(bool(result.pencil_exhausted))


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, op, start, end)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, parent, self.op, start, end)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _count_result(self.counts[self.op], name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route the layer functions through span-recording wrappers."""
        modules = [importlib.import_module(f"leonardpairs.{m}") for m in PACKAGE_MODULES]
        modules.append(importlib.import_module("leonardpairs"))
        saved = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"leonardpairs.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        saved.append((module, fname, original))
                        setattr(module, fname, wrapper)
        try:
            yield self
        finally:
            for module, fname, original in reversed(saved):
                setattr(module, fname, original)

    def write(self, path: str) -> None:
        rows = [
            {"id": s[0], "name": s[1], "parent": s[2], "op": s[3], "start": s[4], "end": s[5]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def span_totals(spans) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name.

    Inclusive time skips spans nested inside a span of the same name, so
    recursion is not counted twice.  Self time is a span's duration minus
    the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time = Counter()
    for s in spans:
        if s[2] is not None and s[2] in by_id:
            child_time[s[2]] += s[5] - s[4]
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for s in spans:
        dur = s[5] - s[4]
        self_time[s[1]] += dur - child_time[s[0]]
        parent = s[2]
        nested = False
        while parent is not None and parent in by_id:
            if by_id[parent][1] == s[1]:
                nested = True
                break
            parent = by_id[parent][2]
        if not nested:
            inclusive[s[1]] += dur
    return inclusive, self_time
