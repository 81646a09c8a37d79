"""Spans around the public functions of each `chaseterm` layer.

The package binds functions with `from ... import`, so one function can sit
in several module namespaces. `install` replaces every binding in every
loaded `chaseterm` module with a wrapper, which catches every call whatever
the import site; functions imported inside a function body are looked up in
their defining module at call time and are caught there. Nothing under
`src/` changes, and no cache of the package is touched.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
reduced to per-name self times only after the timed part: a span's self
time is its duration minus the durations of its child spans. A generator
such as `match_conjunction` does its work on each `__next__`, so every
`__next__` is a span of its own.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (defining module, function, span name); the span name is "<layer>.<function>"
TRACED = (
    ("chaseterm.syntax", "parse_constraints", "syntax.parse"),
    ("chaseterm.syntax", "parse_instance", "syntax.parse"),
    ("chaseterm.model", "match_conjunction", "model.match_conjunction"),
    ("chaseterm.model", "satisfies", "model.satisfies"),
    ("chaseterm.model", "find_violations", "model.find_violations"),
    ("chaseterm.chase", "chase", "chase.chase"),
    ("chaseterm.chase", "chase_step", "chase.chase_step"),
    ("chaseterm.firing", "can_cause", "firing.can_cause"),
    ("chaseterm.static", "analyze", "static.analyze"),
    ("chaseterm.static", "minimal_restriction_system",
     "static.minimal_restriction_system"),
    ("chaseterm.static", "part", "static.part"),
    ("chaseterm.dynamic", "chase_graph", "dynamic.chase_graph"),
    ("chaseterm.dynamic", "irrelevant_constraints",
     "dynamic.irrelevant_constraints"),
    ("chaseterm.dynamic", "data_dependent_guarantee",
     "dynamic.data_dependent_guarantee"),
    ("chaseterm.monitor", "monitor_update", "monitor.monitor_update"),
    ("chaseterm.monitor", "is_k_cyclic", "monitor.is_k_cyclic"),
    ("chaseterm.reports", "analysis_report", "reports.analysis_report"),
    ("chaseterm.reports", "chase_report", "reports.chase_report"),
    ("chaseterm.reports", "to_json", "reports.to_json"),
)

GENERATORS = {"model.match_conjunction"}

# Bindings whose calls belong to the importing layer: the firing search's
# own satisfaction checks and trial steps are firing work, not chase work.
SITE_NAMES = {
    ("chaseterm.firing", "satisfies"): "firing.satisfies",
    ("chaseterm.firing", "chase_step"): "firing.chase_step",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open_spans = []
        self.calls = {}
        self.counts = {}
        self.last_monitor = None

    def name_id(self, name: str) -> int:
        self.calls.setdefault(name, 0)
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.open_spans[-1] if self.open_spans else -1)
        self.end.append(0.0)
        self.open_spans.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.open_spans.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        on_return = _ON_RETURN.get(name)
        tracer = self

        if name in GENERATORS:
            def traced(*args, **kwargs):
                tracer.calls[name] += 1
                return _TracedIterator(fn(*args, **kwargs), tracer, nid)
            return traced

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if on_return is not None:
                on_return(tracer, result)
            return result
        return traced

    def summary(self, t_begin: float, t_end: float) -> dict:
        """Per-name calls and self times of the spans that started inside
        [t_begin, t_end], with the window's time outside every top-level
        span as `other`. Spans before the window (parsing) are reported by
        name but left out of the window's sum."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = {name: 0.0 for name in self.calls}
        inside = 0.0
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            own = dur - child[i]
            self_s[self.names[self.span_name[i]]] += own
            if self.start[i] >= t_begin:
                inside += own
                if self.parent[i] < 0:
                    top += dur
        window = t_end - t_begin
        other = window - top
        return {"calls": dict(self.calls), "self_s": self_s,
                "counts": dict(self.counts), "other_s": other,
                "window_s": window, "self_sum_s": inside + other,
                "spans": n}


class _TracedIterator:
    __slots__ = ("_it", "_tracer", "_nid")

    def __init__(self, it, tracer: Tracer, nid: int):
        self._it, self._tracer, self._nid = it, tracer, nid

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer._open(self._nid)
        try:
            return next(self._it)
        finally:
            self._tracer._close(i)

    def close(self):
        self._it.close()


def _violations(tracer, result):
    tracer.count("model.find_violations.violations", len(result))


def _edge(tracer, result):
    if result is not None:
        tracer.count("firing.can_cause.edges")


def _step(tracer, result):
    tracer.count("chase.steps")
    if result[1].merged_pair is not None:
        tracer.count("chase.egd_merges")


def _chase_result(tracer, result):
    if result.final is not None:
        tracer.count("chase.final_facts", len(result.final.facts))


def _split(tracer, result):
    tracer.count("dynamic.relevant", len(result[1]))


def _monitor(tracer, result):
    tracer.last_monitor = result


_ON_RETURN = {
    "model.find_violations": _violations,
    "firing.can_cause": _edge,
    "chase.chase_step": _step,
    "chase.chase": _chase_result,
    "dynamic.irrelevant_constraints": _split,
    "monitor.monitor_update": _monitor,
}


def install() -> Tracer:
    """Wrap every binding of every TRACED function in the loaded chaseterm
    modules, and return the tracer that records their spans."""
    tracer = Tracer()
    targets = {}
    for module, func, name in TRACED:
        targets[id(getattr(sys.modules[module], func))] = name
    wrappers = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "chaseterm"
                               or mod_name.startswith("chaseterm.")):
            continue
        for attr, value in list(vars(mod).items()):
            name = targets.get(id(value))
            if name is None:
                continue
            name = SITE_NAMES.get((mod_name, attr), name)
            key = (id(value), name)
            if key not in wrappers:
                wrappers[key] = tracer.wrap(value, name)
            setattr(mod, attr, wrappers[key])
    return tracer


def monitor_sizes(graph) -> dict:
    """Node, edge and longest-chain counts of the last monitor graph."""
    if graph is None:
        return {"nodes": 0, "edges": 0, "max_chain": 0}
    return {"nodes": len(graph.nodes), "edges": len(graph.edges),
            "max_chain": max((len(c) for c in graph.chains.values()),
                             default=0)}
