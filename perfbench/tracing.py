"""Outside-in span tracing of the resnum modules.

`Tracer.install` wraps each listed public function and rebinds the wrapper
in every `resnum.*` namespace that holds the original object, so calls
made through `from .x import f` bindings are caught as well.  Spans stay
in memory; self time is a span's busy time minus the busy time of the
spans it directly caused.  A generator's span is busy only while the
generator runs, so work its consumer does between two items is charged
to the consumer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# (module, function) pairs wrapped by the traced run, grouped by layer
TARGETS = (
    ("resnum.canon", "canonical_form"),
    ("resnum.enumeration", "enumerate_graphs"),
    ("resnum.graphs", "distance_matrix"),
    ("resnum.resolve", "resolving_number"),
    ("resnum.resolve", "metric_dimension"),
    ("resnum.resolve", "upper_dimension"),
    ("resnum.invariants", "invariant_summary"),
    ("resnum.invariants", "girth"),
    ("resnum.invariants", "clique_number"),
    ("resnum.bounds", "verify_bounds"),
    ("resnum.serial", "parse_graph6"),
    ("resnum.serial", "to_json_line"),
    ("resnum.serial", "write_graph6"),
    ("resnum.cli", "main"),
    ("resnum.catalog", "build_res3_catalog"),
    ("resnum.catalog", "load_default_catalog"),
)


def enum_kind(c) -> str:
    """Region label of one EnumConstraints call: trees, sparse or all."""
    if c.trees_only or (c.min_girth is not None and c.min_girth == float("inf")):
        return "trees"
    if c.max_degree is not None or c.min_girth is not None:
        return "sparse"
    return "all"


# What a span keeps of its call, so that spans hold no graphs or reports.
NOTES = {
    "enumeration.enumerate_graphs": lambda args, result: f"{enum_kind(args[0])}.n{args[0].n}",
    "resolve.resolving_number": lambda args, result: result.res,
    # a dimension call fills one 2^n resolving-set table
    "resolve.metric_dimension": lambda args, result: 1 << args[0].n if args[0].n > 1 else 0,
    "resolve.upper_dimension": lambda args, result: 1 << args[0].n if args[0].n > 1 else 0,
    "bounds.verify_bounds": lambda args, result: sum(1 for row in result if row.applicable),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "busy", "child_busy", "note", "items")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = perf_counter()
        self.busy = self.child_busy = 0.0
        self.note = None
        self.items = 0

    @property
    def self_s(self) -> float:
        return self.busy - self.child_busy


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        return span

    def _run(self, span: Span, call):
        """Run `call` with span on top of the stack, adding to its busy time."""
        self._stack.append(span)
        t0 = perf_counter()
        try:
            return call()
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            span.busy += dt
            span.end = t0 + dt
            if span.parent is not None:
                span.parent.child_busy += dt

    def _wrap(self, name, fn):
        tracer = self
        note = NOTES.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = tracer._open(name)
                if note:
                    span.note = note(args, None)
                it = tracer._run(span, lambda: fn(*args, **kwargs))
                done = object()
                while True:
                    item = tracer._run(span, lambda: next(it, done))
                    if item is done:
                        return
                    span.items += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            result = tracer._run(span, lambda: fn(*args, **kwargs))
            if note:
                span.note = note(args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every loaded resnum module that binds it."""
        for modname, _ in targets:
            importlib.import_module(modname)
        modules = [m for k, m in sys.modules.items() if k == "resnum" or k.startswith("resnum.")]
        for modname, attr in targets:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(f"{modname.split('.')[-1]}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent index, busy, self]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end, index[id(s.parent)] if s.parent else None, s.busy, s.self_s]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


# Enumeration calls reported one by one: the catalog scan (all n2..n7,
# sparse n8..n10) and the tree ladder (trees n1..n12).
ENUM_CALLS = (
    [("all", k) for k in range(2, 8)]
    + [("sparse", k) for k in range(8, 11)]
    + [("trees", k) for k in range(1, 13)]
)


def layer_metrics(spans: list[Span], input_graphs: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    `input_graphs` is the number of graphs the workload fed in (stream
    files, catalog candidates or yielded trees), the base of per-graph ratios.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    out: dict[str, float] = {}
    enum_spans = [s for s in spans if s.name == "enumeration.enumerate_graphs"]
    canon_under = {id(s): 0 for s in enum_spans}
    for s in spans:
        if s.name == "canon.canonical_form" and s.parent is not None and id(s.parent) in canon_under:
            canon_under[id(s.parent)] += 1
    per_call = {f"enumeration.{kind}.n{k}": [0.0, 0, 0] for kind, k in ENUM_CALLS}
    for s in enum_spans:
        acc = per_call.setdefault(f"enumeration.{s.note}", [0.0, 0, 0])
        acc[0] += s.busy
        acc[1] += s.items
        acc[2] += canon_under[id(s)]
    classes = sum(s.items for s in enum_spans)
    enum_canon = sum(canon_under.values())

    out["canon.canonical_form.calls"] = c("canon.canonical_form")
    out["canon.canonical_form.self_s"] = t("canon.canonical_form")
    out["canon.calls_per_class"] = enum_canon / classes if classes else 0.0
    out["enumeration.enumerate_graphs.self_s"] = t("enumeration.enumerate_graphs")
    for key in (f"enumeration.{kind}.n{k}" for kind, k in ENUM_CALLS):
        busy, items, canon = per_call[key]
        out[f"{key}.s"] = busy
        out[f"{key}.classes"] = items
        out[f"{key}.canon_calls"] = canon
    out["graphs.distance_matrix.calls"] = c("graphs.distance_matrix")
    out["graphs.distance_matrix.self_s"] = t("graphs.distance_matrix")
    out["graphs.distance_matrix.per_graph"] = (
        c("graphs.distance_matrix") / input_graphs if input_graphs else 0.0
    )
    for name in ("resolving_number", "metric_dimension", "upper_dimension"):
        out[f"resolve.{name}.calls"] = c(f"resolve.{name}")
        out[f"resolve.{name}.self_s"] = t(f"resolve.{name}")
    out["resolve.dim_table.masks"] = sum(
        s.note or 0 for s in spans if s.name in ("resolve.metric_dimension", "resolve.upper_dimension")
    )
    out["invariants.invariant_summary.calls"] = c("invariants.invariant_summary")
    out["invariants.invariant_summary.self_s"] = t("invariants.invariant_summary")
    out["invariants.girth.self_s"] = t("invariants.girth")
    out["invariants.clique_number.self_s"] = t("invariants.clique_number")
    out["bounds.verify_bounds.calls"] = c("bounds.verify_bounds")
    out["bounds.verify_bounds.self_s"] = t("bounds.verify_bounds")
    out["bounds.rows_applicable"] = sum(s.note or 0 for s in spans if s.name == "bounds.verify_bounds")
    out["serial.parse_graph6.calls"] = c("serial.parse_graph6")
    out["serial.parse_graph6.self_s"] = t("serial.parse_graph6")
    out["serial.to_json_line.self_s"] = t("serial.to_json_line")
    out["serial.write_graph6.self_s"] = t("serial.write_graph6")
    out["cli.main.self_s"] = t("cli.main")
    out["catalog.build_res3_catalog.self_s"] = t("catalog.build_res3_catalog")
    out["catalog.candidates"] = sum(
        s.items for s in enum_spans if s.parent is not None and s.parent.name == "catalog.build_res3_catalog"
    )
    out["catalog.res3_hits"] = sum(
        1
        for s in spans
        if s.name == "resolve.resolving_number"
        and s.parent is not None
        and s.parent.name == "catalog.build_res3_catalog"
        and s.note == 3
    )
    return out
