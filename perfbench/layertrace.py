"""Spans around the library's layer boundaries, recorded from outside.

The tracer wraps each layer's public function at every place a
``polinv.*`` module binds it, so a call routed through any import path
is seen, and a function that moves to another module is still found by
its name.  Spans live in memory as (id, name, start, end, parent) plus
per-span counters, and are written out once at the end of the run.

``core.compose`` and ``core.preserves`` run up to about 10^6 times per
pass, so they get no span of their own: their call count and time are
summed on the span that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# Metric label -> function name.  The label keeps the module that held
# the function when the benchmark was written; lookup goes by name.
SPANNED = {
    "cli.run": "run",
    "cli.galois_check": "galois_check",
    "workspace.load_workspace": "load_workspace",
    "clones.clone_closure": "clone_closure",
    "clones.clone_contains": "clone_contains",
    "clones.graph_relation": "graph_relation",
    "clones.essential_variables": "essential_variables",
    "galois.inv": "inv",
    "galois.pol": "pol",
    "galois.invariant_closure": "invariant_closure",
    "pp.parse_pp": "parse_pp",
    "pp.eval_pp": "eval_pp",
    "pp.pp_closure_of": "pp_closure_of",
    "pp.is_pp_definable": "is_pp_definable",
    "partitions.partition_lattice": "partition_lattice",
    "partitions.ideal_downset": "ideal_downset",
    "partitions.diagonal_relation": "diagonal_relation",
    "partitions.check_finitary_preservation": "check_finitary_preservation",
}
SUMMED = {"core.compose": "compose", "core.preserves": "preserves"}
LAYERS = ("cli", "workspace", "clones", "galois", "pp", "partitions", "core")
INV_ARITIES = (1, 2, 3, 4)

# Every per-layer metric the traced run prints: name -> unit.
PER_LAYER = {}
for _label in ("cli.run", "cli.galois_check", "clones.graph_relation", "clones.clone_contains",
               "pp.pp_closure_of", "partitions.check_finitary_preservation"):
    PER_LAYER[f"{_label}.self_s"] = "s"
for _label in ("workspace.load_workspace", "galois.pol", "galois.inv", "clones.clone_closure",
               "clones.essential_variables", "galois.invariant_closure", "pp.parse_pp", "pp.eval_pp",
               "partitions.ideal_downset", "partitions.diagonal_relation", "core.compose", "core.preserves"):
    PER_LAYER[f"{_label}.s"] = "s"
for _name in ("galois.pol.calls", "galois.pol.ops", "galois.pol.input_relations", "galois.pol.input_combos",
              "galois.inv.calls", "galois.inv.relations", "clones.clone_closure.calls",
              "clones.clone_closure.members", "core.compose.calls", "core.preserves.calls",
              "partitions.ideal_downset.calls", "partitions.partition_lattice.calls",
              "partitions.diagonal_relation.calls"):
    PER_LAYER[_name] = "count"
for _k in INV_ARITIES:
    PER_LAYER[f"galois.inv.k{_k}.s"] = "s"
for _label in SPANNED:
    PER_LAYER[f"{_label}.refused"] = "count"
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
PER_LAYER["trace.overhead"] = "ratio"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "child_s", "counts", "summed")

    def __init__(self, id_: int, name: str, start: float, parent: int | None) -> None:
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.counts: dict[str, float] = {}
        self.summed: dict[str, list] = {}  # label -> [calls, seconds]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _annotate(label: str, span: Span, args, kwargs, result) -> None:
    """Work counts read off a call's arguments and result."""
    if label == "galois.pol":
        rels, arity = _arg(args, kwargs, 0, "rels"), _arg(args, kwargs, 1, "arity")
        span.counts["ops"] = len(result)
        span.counts["input_relations"] = len(rels)
        span.counts["input_combos"] = sum(len(r) ** arity for r in rels)
    elif label == "galois.inv":
        span.counts["relations"] = len(result)
        span.counts["k"] = _arg(args, kwargs, 1, "arity")
    elif label == "clones.clone_closure":
        span.counts["members"] = len(result)
    elif label == "cli.run" and result[0] == 3:
        span.counts["refused"] = 1


class Tracer:
    """Installs wrappers on demand; records spans only while installed."""

    def __init__(self, polinv_modules: dict, refusal: type) -> None:
        self.modules = polinv_modules
        self.refusal = refusal
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.patches: list[tuple[object, str, object]] = []
        self.originals = {label: self._find(fname) for label, fname in {**SPANNED, **SUMMED}.items()}

    def _find(self, fname: str):
        for mod in self.modules.values():
            fn = vars(mod).get(fname)
            if inspect.isfunction(fn) and fn.__module__.startswith("polinv"):
                return fn
        raise LookupError(f"no polinv module defines {fname}")

    def install(self) -> None:
        wrappers = {
            fn: self._summed(label, fn) if label in SUMMED else self._spanned(label, fn)
            for label, fn in self.originals.items()
        }
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    def _spanned(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except tracer.refusal:
                span.counts["refused"] = 1
                raise
            finally:
                tracer.close(span)
            _annotate(label, span, args, kwargs, result)
            return result

        return wrapper

    def _summed(self, label: str, fn):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                parent = stack[-1]
                parent.child_s += elapsed
                entry = parent.summed.get(label)
                if entry is None:
                    parent.summed[label] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.counts, s.summed]) + "\n")


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass."""
    out = {name: 0.0 for name, unit in PER_LAYER.items() if name != "trace.overhead"}
    for s in spans:
        duration = s.end - s.start
        self_s = duration - s.child_s
        for label, (calls, seconds) in s.summed.items():
            out[f"{label}.calls"] += calls
            out[f"{label}.s"] += seconds
            out[f"layer.{label.split('.')[0]}.self_s"] += seconds
        if s.name not in SPANNED:
            continue  # the benchmark's own per-instance root span
        layer = s.name.split(".")[0]
        out[f"layer.{layer}.self_s"] += self_s
        out[f"{s.name}.refused"] += s.counts.get("refused", 0)
        for key, value in ((f"{s.name}.s", duration), (f"{s.name}.self_s", self_s), (f"{s.name}.calls", 1)):
            if key in out:
                out[key] += value
        for counter in ("ops", "input_relations", "input_combos", "relations", "members"):
            key = f"{s.name}.{counter}"
            if key in out:
                out[key] += s.counts.get(counter, 0)
        if s.name == "galois.inv" and s.counts.get("k") in INV_ARITIES:
            out[f"galois.inv.k{s.counts['k']}.s"] += duration
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def polinv_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "polinv" or name.startswith("polinv.")}
