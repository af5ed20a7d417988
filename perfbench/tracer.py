"""Span tracing of graphvm from outside the package.

The tracer replaces public functions and methods of the graphvm layers
with timing wrappers, at every name where callers look them up: a
module-level function is rebound in every loaded ``graphvm`` module
that imported it (``graphvm.execution.validate`` as well as
``graphvm.graphing.validate``), and a method is rebound on its class.
``uninstall`` puts every original back.

Each call becomes a span: name, start and end in integer nanoseconds
from ``time.perf_counter_ns``, and the index of the enclosing span.
Spans are kept in memory in integer arrays and written out at the end.
Counts that the metrics need are read from return values (or, for
``from_boxes``, from the boxes passed in), and ``RationalInterval``
constructions are counted without a span.

Private helpers such as ``space._canonicalize`` and
``execution._split_pieces`` are not wrapped, so their time stays inside
the span of the public function that calls them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# layer -> public names to wrap; "Class.method" names are wrapped on the
# class.  Per-element helpers (oracle.successors, export.frac_str,
# RationalBox methods, ...) are left out: a span around each of them
# would cost more than the work it measures.
WRAPPED = {
    "machines": ["parse_machine", "load_machine", "format_machine",
                 "validate_spec"],
    "encodings": ["encode_word", "encode_machine", "run_word",
                  "classify_result"],
    "graphing": ["validate", "classify", "cost", "disjoint_union",
                 "Graphing.same_as"],
    "execution": ["plug", "evaluate_test", "accept_mass", "reject_mass",
                  "language", "cycles", "measurement"],
    "space": ["common_refinement", "MeasurableSet.from_boxes",
              "MeasurableSet.intersect", "MeasurableSet.union",
              "MeasurableSet.subtract", "MeasurableSet.subset_of"],
    "realizers": ["preimage_within", "Realizer.apply", "Realizer.compose",
                  "Realizer.invert", "Realizer.domain_within"],
    "sampling": ["random_pair", "random_triple"],
    "export": ["result_payload", "graphing_payload", "path_payload",
               "dumps"],
    "oracle": ["dfa_accepts", "nfa_accepts", "conl_accepts",
               "rejection_possible", "pfa_accept_prob", "pfa_outcome_probs",
               "oracle_language"],
}


def _graphvm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "graphvm"
                                  or name.startswith("graphvm."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._counting = {
            "execution.plug": self._count_plug,
            "encodings.encode_word": self._count_word,
            "export.dumps": self._count_payload,
        }

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _graphvm_modules()
        for layer, targets in WRAPPED.items():
            module = sys.modules[f"graphvm.{layer}"]
            for target in targets:
                span = f"{layer}.{target}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(raw.__func__, span))
                    else:
                        wrapped = self._wrap(raw, span)
                    self._rebind(cls, attr, raw, wrapped)
                    continue
                original = getattr(module, target)
                wrapped = self._wrap(original, span)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapped)
        space = sys.modules["graphvm.space"]
        cls = space.RationalInterval
        original = cls.__dict__["__post_init__"]
        counts = self.counts

        def counted_post_init(interval):
            counts["space.intervals_built"] += 1
            original(interval)

        self._rebind(cls, "__post_init__", original, counted_post_init)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, span: str):
        nid = self._name_id(span)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self._stack
        on_return = self._counting.get(span)
        boxes_in = span == "space.MeasurableSet.from_boxes"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                if boxes_in:
                    # the argument may be a generator; _canonicalize lists
                    # it first thing, so listing it here moves no work
                    # out of the span
                    boxes = list(args[0])
                    counts["space.from_boxes_boxes_in"] += len(boxes)
                    result = fn(boxes)
                else:
                    result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_plug(self, result) -> None:
        self.counts["execution.steps"] += result.diagnostics.steps_used
        self.counts["execution.result_edges"] += len(result.graphing.edges)
        self.counts["execution.dead_paths"] += len(result.dead_paths)

    def _count_word(self, enc) -> None:
        g = enc.graphing
        self.counts["encodings.word_boxes"] += len(g.carrier.boxes) + sum(
            len(e.source.boxes) for e in g.edges)

    def _count_payload(self, text) -> None:
        self.counts["export.payload_bytes"] += len(text)

    # -- reduction ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total (inclusive) ns, and self ns."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
        return out

    def outermost_ns(self, names: set[str]) -> int:
        """Total time of spans in ``names`` not nested in another one."""
        ids = {self.name_ids[n] for n in names if n in self.name_ids}
        total = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] not in ids:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in ids:
                p = self.span_parent[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path_prefix: str, extra: dict) -> None:
        """Spans as four little-endian int64 columns (name id, start, end,
        parent) in ``<prefix>.spans``, names and ``extra`` in
        ``<prefix>.json``."""
        os.makedirs(os.path.dirname(path_prefix) or ".", exist_ok=True)
        with open(path_prefix + ".spans", "wb") as fh:
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                col = array("q", column)
                if sys.byteorder != "little":
                    col.byteswap()
                col.tofile(fh)
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.span_count(),
                       **extra}, fh, sort_keys=True, indent=1)
            fh.write("\n")
