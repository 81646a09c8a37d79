"""Machine-readable renderings: DOT for graphs, JSON-ready dicts for reports.

Everything here is deterministic: nodes and edges are emitted in a fixed
order and to_json sorts keys, so identical inputs give byte-identical
output. A chase report holds its final instance and trace as Rendered
JSON text, which one StepWriter writes from the step records with no dict
per step. Negative verdicts are re-validated against their witnesses before
being rendered; a report that cannot back up a "no" with a checkable cycle
or firing witness raises instead of printing.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence

from chaseterm.chase import ChaseResult, ChaseStepRecord
from chaseterm.dynamic import TerminationGuarantee
from chaseterm.firing import PRECEDES, PRECEDES_P, ChaseGraph, verify_witness
from chaseterm.model import Constraint, fact_key, position_key
from chaseterm.monitor import MonitorGraph, edge_key, is_k_cyclic, node_key
from chaseterm.static import (
    AnalysisReport, PositionGraph, RestrictionSystem, dependency_graph,
    propagation_graph,
)
from chaseterm.syntax import print_constraint


class ReportIntegrityError(RuntimeError):
    """A negative verdict arrived without a witness that re-checks."""


def _positions(ps) -> List[str]:
    return list(map(repr, sorted(ps, key=position_key)))


def _facts(facts) -> List[str]:
    return list(map(repr, sorted(facts, key=fact_key)))


def _assignment(pairs) -> Dict[str, str]:
    return {name: repr(v) for name, v in pairs}


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _dot(lines: List[str]) -> str:
    if not lines:
        return "digraph g { }\n"
    return "digraph g {\n" + "".join(f"  {ln}\n" for ln in lines) + "}\n"


def _monitor_node_str(node) -> str:
    return f"{node.null.name}@{{{','.join(_positions(node.created_at))}}}"


def export_dot(g) -> str:
    """Render any of the package's graphs as a DOT digraph. Special edges
    (fresh-null creators) carry a dashed style and a special=true comment."""
    if isinstance(g, PositionGraph):
        lines = [f'"{p!r}";' for p in g.nodes]
        lines += [f'"{s!r}" -> "{t!r}";' for s, t in g.regular]
        lines += [f'"{s!r}" -> "{t!r}"'
                  ' [style=dashed]; /* special=true */'
                  for s, t in g.special]
        return _dot(lines)
    if isinstance(g, (ChaseGraph, RestrictionSystem)):
        ids = sorted(c.id for c in g.constraints)
        if isinstance(g, RestrictionSystem):
            lines = [f'"{i}"; /* f = {{{", ".join(_positions(g.f[i]))}}} */'
                     for i in ids]
        else:
            lines = [f'"{i}";' for i in ids]
        lines += [f'"{a}" -> "{b}";' for a, b in g.edges]
        return _dot(lines)
    if isinstance(g, MonitorGraph):
        lines = [f'"{_monitor_node_str(n)}";'
                 for n in sorted(g.nodes, key=node_key)]
        for e in sorted(g.edges, key=edge_key):
            label = f"{e.constraint_id} | {','.join(_positions(e.body_positions))}"
            lines.append(f'"{_monitor_node_str(e.source)}" -> '
                         f'"{_monitor_node_str(e.target)}" [label="{label}"];')
        return _dot(lines)
    raise TypeError(f"no DOT form for {type(g).__name__}")


# ---------------------------------------------------------------------------
# Witness re-validation
# ---------------------------------------------------------------------------

def _check_cycle(g: PositionGraph, cyc) -> None:
    if cyc is None or len(cyc) < 2 or cyc[0] != cyc[-1]:
        raise ReportIntegrityError(f"not a closed cycle: {cyc!r}")
    steps = list(zip(cyc, cyc[1:]))
    edges, special = set(g.edges), set(g.special)
    if not all(e in edges for e in steps):
        raise ReportIntegrityError(f"cycle uses absent edges: {cyc!r}")
    if not any(e in special for e in steps):
        raise ReportIntegrityError(f"cycle has no special edge: {cyc!r}")


def _check_component_failures(failures, constraints: Sequence[Constraint],
                              build_graph) -> None:
    by_id = {c.id: c for c in constraints}
    for ids, cyc in failures:
        comp = [by_id[i] for i in ids]
        _check_cycle(build_graph(comp), cyc)


def _check_graph_witnesses(constraints, witnesses, mode: str,
                           f: Optional[Dict[str, frozenset]] = None) -> None:
    by_id = {c.id: c for c in constraints}
    for (aid, bid), w in witnesses.items():
        guard = f[aid] if f is not None else frozenset()
        if not verify_witness(by_id[aid], by_id[bid], w, guard, mode):
            raise ReportIntegrityError(f"stale firing witness for ({aid}, {bid})")


# ---------------------------------------------------------------------------
# JSON-ready dicts
# ---------------------------------------------------------------------------

def _position_graph_dict(g: PositionGraph) -> dict:
    return {
        "nodes": list(map(repr, g.nodes)),
        "regular": [[repr(s), repr(t)] for s, t in g.regular],
        "special": [[repr(s), repr(t)] for s, t in g.special],
    }


def _witness_dict(w) -> dict:
    return {
        "alpha": w.alpha_id,
        "beta": w.beta_id,
        "instance": _facts(w.instance.facts),
        "alpha_assignment": _assignment(w.assignment_a),
        "beta_assignment": _assignment(w.assignment_b),
        "successor": _facts(w.successor.facts),
    }


def _constraint_graph_dict(constraints, edges, witnesses) -> dict:
    return {
        "nodes": sorted(c.id for c in constraints),
        "edges": [[a, b] for a, b in edges],
        "witnesses": {f"{a}->{b}": _witness_dict(w)
                      for (a, b), w in sorted(witnesses.items())},
    }


def _failures(failures) -> list:
    return [{"component": list(ids), "cycle": list(map(repr, cyc))}
            for ids, cyc in failures]


def _cycle(cyc) -> Optional[list]:
    return None if cyc is None else list(map(repr, cyc))


def analysis_report(r: AnalysisReport) -> dict:
    """Validates every negative verdict's witness, then renders the bundle."""
    if not r.weakly_acyclic:
        _check_cycle(r.dependency_graph, r.dependency_cycle)
    if not r.safe:
        _check_cycle(r.propagation_graph, r.propagation_cycle)
    _check_component_failures(r.stratification_failures, r.constraints,
                              dependency_graph)
    _check_component_failures(r.restriction_failures, r.constraints,
                              propagation_graph)
    _check_component_failures(r.part_failures, r.constraints,
                              propagation_graph)
    _check_graph_witnesses(r.constraints, r.chase_graph.witnesses, PRECEDES)
    _check_graph_witnesses(r.constraints, r.restriction_system.witnesses,
                           PRECEDES_P, r.restriction_system.f)
    s = r.restriction_system
    return {
        "constraints": [print_constraint(c) for c in r.constraints],
        "weakly_acyclic": r.weakly_acyclic,
        "dependency_graph": _position_graph_dict(r.dependency_graph),
        "dependency_cycle": _cycle(r.dependency_cycle),
        "safe": r.safe,
        "propagation_graph": _position_graph_dict(r.propagation_graph),
        "propagation_cycle": _cycle(r.propagation_cycle),
        "stratified": r.stratified,
        "chase_graph": _constraint_graph_dict(
            r.chase_graph.constraints, r.chase_graph.edges,
            r.chase_graph.witnesses),
        "stratification_failures": _failures(r.stratification_failures),
        "safely_restricted": r.safely_restricted,
        "restriction_system": {
            **_constraint_graph_dict(s.constraints, s.edges, s.witnesses),
            "f": {c.id: _positions(s.f[c.id]) for c in s.constraints},
        },
        "restriction_failures": _failures(r.restriction_failures),
        "inductively_restricted": r.inductively_restricted,
        "parts": [[c.id for c in piece] for piece in r.parts],
        "part_failures": _failures(r.part_failures),
        "terminating": r.terminating,
    }


def guarantee_report(g: TerminationGuarantee) -> dict:
    graph = None
    if g.chase_graph is not None:
        _check_graph_witnesses(g.chase_graph.constraints,
                               g.chase_graph.witnesses, PRECEDES)
        graph = _constraint_graph_dict(g.chase_graph.constraints,
                                       g.chase_graph.edges,
                                       g.chase_graph.witnesses)
    return {
        "level": g.level,
        "relevant": [c.id for c in g.relevant],
        "irrelevant": [c.id for c in g.irrelevant],
        "chase_graph": graph,
        "parts": [[c.id for c in piece] for piece in g.parts],
    }


class Rendered:
    """JSON text whose newlines are indented as nl; to_json indents them
    to the depth where it meets the text."""

    def __init__(self, text: str, nl: str):
        self.text, self.nl = text, nl


def _array(items: List[str], nl: str) -> str:
    """The JSON texts items as an array whose newlines are indented as nl."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


class StepWriter(dict):
    """Writes a chase step's dict from its record as json.dumps(indent=2,
    sort_keys=True) does, each newline indented as nl. It maps facts and
    values to their JSON strings, each encoded once, and keeps one
    %-template per (nl, constraint id, variable names)."""

    def __init__(self):
        self.templates = {}

    def __missing__(self, x) -> str:
        text = self[x] = encode_basestring_ascii(repr(x))
        return text

    def facts(self, facts, nl: str) -> str:
        """facts as a JSON array in fact_key order."""
        return _array([self[f] for f in sorted(facts, key=fact_key)], nl)

    def step(self, rec: ChaseStepRecord, nl: str) -> str:
        index, cid, assignment, added, merged, _ = rec
        names, values = zip(*assignment) if assignment else ((), ())
        key = (nl, cid, names)
        if key not in self.templates:
            i1 = nl + "  "
            cid_text, *words = [encode_basestring_ascii(t).replace("%", "%%")
                                for t in (cid,) + names]
            order = sorted(range(len(names)), key=names.__getitem__)
            slots = "".join(f"{i1}  {words[k]}: %s," for k in order)[:-1]
            self.templates[key] = order, i1, (
                f'{{{i1}"added": %s,{i1}"assignment": '
                f'{"{" + slots + i1 + "}" if names else "{}"},{i1}"constraint":'
                f' {cid_text},{i1}"index": %d,{i1}"merged": %s{nl}}}')
        order, i1, template = self.templates[key]
        return template % (self.facts(added, i1),
                           *[self[values[k]] for k in order], index,
                           "null" if merged is None else
                           _array([self[v] for v in merged], i1))


def chase_report(res: ChaseResult, include_trace: bool = True) -> dict:
    """The run, with its final instance and steps as Rendered text at the
    depth where chase --json prints them."""
    w = StepWriter()
    out = {
        "outcome": res.outcome,
        "steps": len(res.steps),
        "final": Rendered(w.facts(res.final.facts, "\n  "), "\n  "),
        "failed_step": res.failed_step,
        "clash": (None if res.clash is None
                  else list(map(repr, res.clash))),
        "abort_reason": res.abort_reason,
        "abort_k": res.abort_k,
    }
    if include_trace:
        out["trace"] = Rendered(_array(
            [w.step(rec, "\n    ") for rec in res.steps], "\n  "), "\n  ")
    return out


def monitor_report(g: MonitorGraph, k: int) -> dict:
    out = {
        "nodes": [{"null": repr(n.null),
                   "created_at": _positions(n.created_at)}
                  for n in sorted(g.nodes, key=node_key)],
        "edges": [{"source": _monitor_node_str(e.source),
                   "target": _monitor_node_str(e.target),
                   "constraint": e.constraint_id,
                   "body_positions": _positions(e.body_positions)}
                  for e in sorted(g.edges, key=edge_key)],
    }
    cyclic, chain = is_k_cyclic(g, k)
    out["k"] = k
    out["k_cyclic"] = cyclic
    out["chain"] = (None if chain is None else
                    [{"source": _monitor_node_str(e.source),
                      "target": _monitor_node_str(e.target)}
                     for e in chain])
    return out


def to_json(payload: dict) -> str:
    """payload as JSON text plus a newline: the bytes that
    json.dumps(payload, indent=2, sort_keys=True) + "\n" gives, written
    here because any indent sends json.dumps to its pure-Python encoder.
    It takes dicts with str keys, lists, tuples, str, int, bool, None and
    Rendered text, re-indented to its depth; any other type, a float
    included, raises TypeError."""
    out: List[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, nl: str, out: List[str]) -> None:
    """Append the JSON text of x to out; nl is a newline and x's indent."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out += (sep, encode_basestring_ascii(k), ": ")
            _write(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]" if x else "[]")
    elif x is None:
        out.append("null")
    elif x is True or x is False:
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, Rendered):
        out.append(x.text if x.nl == nl else x.text.replace(x.nl, nl))
    else:
        raise TypeError(f"{type(x).__name__} is not a JSON type here")
