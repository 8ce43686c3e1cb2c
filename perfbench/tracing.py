"""Layer spans recorded from outside the program.

`Tracer.install` rebinds the public functions that callers look up at call
time, in every ``boolsynth`` module that binds them, to wrappers that record
a span per call: name, start, end, parent span and instance id.  Spans stay
in memory until `write_spans`.  `layer_metrics` turns them into per-layer
self times (span time minus traced children) and counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable

# (module, attribute) -> span name.  Rebinding happens in every boolsynth
# module whose attribute is the same function object, so callers that
# imported the name directly see the wrapper too.
TRACED = {
    ("boolsynth.cli", "cli_main"): "cli.main",
    ("boolsynth.eps", "load_topology"): "formats.io",
    ("boolsynth.eps", "load_partition"): "formats.io",
    ("boolsynth.formats", "dump_document"): "formats.io",
    ("boolsynth.formats", "controllers_document"): "formats.io",
    ("boolsynth.formats", "trace_document"): "formats.io",
    ("boolsynth.eps", "compile_to_network"): "eps.compile",
    ("boolsynth.synthesis", "completeness_certificate"): "synthesis.certificate",
    ("boolsynth.synthesis", "distributed_synthesis"): "synthesis.search",
    ("boolsynth.contracts", "project_assumption"): "synthesis.search",
    ("boolsynth.network", "remove_subsystem"): "synthesis.search",
    ("boolsynth.contracts", "maximal_distributions"): "contracts.distribution",
    ("boolsynth.contracts", "build_distribution_graph"): "contracts.distribution",
    ("boolsynth.synthesis", "least_restrictive_assumption"): "synthesis.lra",
    ("boolsynth.synthesis", "check_realizable"): "synthesis.lra",
    ("boolsynth.synthesis", "extract_controller"): "synthesis.extract",
    ("boolsynth.network", "validate"): "network.validate",
    ("boolsynth.oracle", "verify_closed_loop"): "oracle.verify",
}
SUBSTITUTE_SPAN = "boolfunc.substitute"
INSTANCE_SPAN = "instance"

# Self-time metrics: span name -> metric.  The instance span's own self
# time is what no traced layer covers.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "formats.io": "formats.io_s",
    "eps.compile": "eps.compile_s",
    "synthesis.certificate": "synthesis.certificate_s",
    "synthesis.search": "synthesis.search_s",
    "contracts.distribution": "contracts.distribution_s",
    "synthesis.lra": "synthesis.lra_s",
    "synthesis.extract": "synthesis.extract_s",
    SUBSTITUTE_SPAN: "boolfunc.substitute_s",
    "network.validate": "network.validate_s",
    "oracle.verify": "oracle.verify_s",
    INSTANCE_SPAN: "trace.untraced_s",
}

# Every per-layer metric a traced run reports, with its unit.  `_s` metrics
# are self seconds per instance; counts are per instance; `_max` metrics are
# the largest table seen in the run.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "formats.io_s": "s",
    "eps.compile_s": "s",
    "eps.valuations": "count",
    "synthesis.certificate_s": "s",
    "synthesis.search_s": "s",
    "synthesis.attempts": "count",
    "synthesis.useful_ratio": "ratio",
    "contracts.distribution_s": "s",
    "contracts.graph_cells_max": "cells",
    "contracts.splits": "count",
    "synthesis.lra_s": "s",
    "synthesis.realizability_checks": "count",
    "synthesis.extract_s": "s",
    "boolfunc.substitute_s": "s",
    "boolfunc.substitute_cells_max": "cells",
    "network.validate_s": "s",
    "network.validate_calls": "count",
    "oracle.verify_s": "s",
    "oracle.valuations": "count",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "func", "start", "end", "parent", "instance", "attrs")

    def __init__(self, name, func, start, parent, instance):
        self.name, self.func, self.start, self.parent, self.instance = name, func, start, parent, instance
        self.end = start
        self.attrs = None

    def as_json(self, index: int) -> dict:
        doc = {"id": index, "name": self.name, "func": self.func, "start": self.start,
               "end": self.end, "parent": self.parent, "instance": self.instance}
        if self.attrs:
            doc.update(self.attrs)
        return doc


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._instance = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, func: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, func, time.perf_counter(), parent, self._instance))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def run_instance(self, instance: int, fn: Callable, *args):
        """Call ``fn(*args)`` under a root span for one benchmark instance."""
        self._instance = instance
        index = self._open(INSTANCE_SPAN, "instance")
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name: str, qualname: str, fn: Callable, observe=None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name, qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if observe is not None:
                span.attrs = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import boolsynth.boolfunc
        import boolsynth.cli  # noqa: F401  (loads every traced module)

        modules = [m for n, m in sys.modules.items() if n == "boolsynth" or n.startswith("boolsynth.")]
        for (module_name, attr), name in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, f"{module_name}.{attr}", original, OBSERVERS.get(attr))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        cls = boolsynth.boolfunc.BoolFunc
        self._undo.append((cls, "substitute", cls.substitute))
        cls.substitute = self._wrap(SUBSTITUTE_SPAN, "boolsynth.boolfunc.BoolFunc.substitute",
                                    cls.substitute, _observe_substitute)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_json(i), separators=(",", ":")) + "\n")


# -- counts observed at the same boundaries ---------------------------------
# An observer maps (call arguments, result) to span attributes: "cells" is
# the size of the table a call worked over; any other key is a per-instance
# count named after its metric.


def _observe_substitute(args, result) -> dict:
    self, mapping = args[0], args[1]
    scope = set(self.scope)
    for v in self.scope:
        if v in mapping:
            scope.update(mapping[v].scope)
    return {"cells": 1 << len(scope)}


def _observe_graph(args, result) -> dict:
    return {"cells": int(result.adjacency.size)}


def _observe_distributions(args, result) -> dict:
    return {"contracts.splits": len(result)}


def _observe_compile(args, result) -> dict:
    net = result[0]
    return {"eps.valuations": sum(1 << (len(s.controls) + len(s.env_inputs)) for s in net.subsystems)}


def _observe_verify(args, result) -> dict:
    # Counted from the wiring directly: boolsynth.network.external_inputs
    # would call the traced validate and add a span of its own.
    net = args[0]
    driven = {(link.to_sys, link.to_input) for link in net.wiring.links}
    external = sum((s.name, v) not in driven for s in net.subsystems for v in s.env_inputs)
    return {"oracle.valuations": 1 << external}


OBSERVERS = {
    "build_distribution_graph": _observe_graph,
    "maximal_distributions": _observe_distributions,
    "compile_to_network": _observe_compile,
    "verify_closed_loop": _observe_verify,
}
CALL_COUNTS = {
    "boolsynth.synthesis.check_realizable": "synthesis.realizability_checks",
    "boolsynth.synthesis.least_restrictive_assumption": "synthesis.attempts",
    "boolsynth.network.validate": "network.validate_calls",
}
CELLS_MAX = {
    "boolsynth.boolfunc.BoolFunc.substitute": "boolfunc.substitute_cells_max",
    "boolsynth.contracts.build_distribution_graph": "contracts.graph_cells_max",
}


# -- aggregation -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct traced children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], successes: dict[int, int]) -> tuple[dict, dict]:
    """Per-instance means of each layer's self time and counts, the largest
    tables, and the useful-attempt ratio.

    `successes` maps the id of each successful instance to its number of
    subsystems.  Returns ``(metrics, accounting)``; accounting holds the
    largest per-instance gap between the traced duration and the sum of
    self times, and the most negative self time.
    """
    own = self_times(spans)
    per_instance: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    duration: dict[int, float] = {}
    metrics = {name: 0 for name in CELLS_MAX.values()}
    for span, t in zip(spans, own):
        acc = per_instance[span.instance]
        acc[SELF_METRICS[span.name]] += t
        if span.name == INSTANCE_SPAN:
            duration[span.instance] = span.end - span.start
        if span.func in CALL_COUNTS:
            acc[CALL_COUNTS[span.func]] += 1
        for key, value in (span.attrs or {}).items():
            if key == "cells":
                metrics[CELLS_MAX[span.func]] = max(metrics[CELLS_MAX[span.func]], value)
            else:
                acc[key] += value
    n = max(len(duration), 1)
    averaged = set(PER_LAYER_UNITS) - set(metrics) - {"synthesis.useful_ratio", "trace.overhead_s"}
    for name in averaged:
        metrics[name] = sum(per_instance[i][name] for i in duration) / n
    attempts = sum(per_instance[i]["synthesis.attempts"] for i in successes)
    metrics["synthesis.useful_ratio"] = sum(successes.values()) / attempts if attempts else 0.0
    self_keys = set(SELF_METRICS.values())
    gap = max((abs(duration[i] - sum(per_instance[i][k] for k in self_keys)) for i in duration), default=0.0)
    return metrics, {"max_gap_s": gap, "min_self_s": min(own, default=0.0), "instances": len(duration)}
