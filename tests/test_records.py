"""The record classes: immutable values that compare and hash by their
fields, except the monitor graph, which is mutable and has no hash, and
the records that hold a witness mapping, which have none either.

One record leaves a field out: a report's firing table is bookkeeping, so
equality ignores it, and the report's repr does not show it.
"""

import pytest

from chaseterm.chase import ChasePolicy, monitored_chase
from chaseterm.dynamic import data_dependent_guarantee
from chaseterm.model import Constraint, Instance
from chaseterm.monitor import MonitorGraph, edge_key
from chaseterm.static import analyze
from chaseterm.syntax import parse_constraints, parse_instance

RULES = """
a1: fly(X1, X2, Y) -> hasAirport(X1), hasAirport(X2).
a2: rail(X1, X2, Y) -> rail(X2, X1, Y).
a3: fly(X1, X2, Y1) -> fly(X2, X3, Y2).
"""
INSTANCE = "rail(c1, ?x1, ?y1). fly(?x1, ?x2, ?y2)."

LEFT_OUT = {"AnalysisReport": "answers"}

RECORDS = (
    "ChaseStepRecord", "ChasePolicy", "ChaseResult", "Witness", "ChaseGraph",
    "PositionGraph", "RestrictionSystem", "AnalysisReport",
    "TerminationGuarantee", "MonitorNode", "MonitorEdge",
    "ConstraintDocument", "Constraint", "Instance",
)


@pytest.fixture(scope="module")
def records():
    doc = parse_constraints(RULES)
    I = parse_instance(INSTANCE)
    run = monitored_chase(I, doc.constraints, 100, ChasePolicy(max_steps=5))
    report = analyze(doc.constraints)
    edge = min(run.monitor.edges, key=edge_key)
    return {
        "ChaseStepRecord": run.steps[0], "ChasePolicy": ChasePolicy(max_steps=5),
        "ChaseResult": run._replace(monitor=None),
        "Witness": report.chase_graph.witnesses[("a3", "a3")],
        "ChaseGraph": report.chase_graph,
        "PositionGraph": report.dependency_graph,
        "RestrictionSystem": report.restriction_system,
        "AnalysisReport": report,
        "TerminationGuarantee": data_dependent_guarantee(I, report),
        "MonitorNode": edge.source, "MonitorEdge": edge,
        "ConstraintDocument": doc,
        "Constraint": doc.constraints[2], "Instance": run.final,
        "MonitorGraph": run.monitor,
    }


def field_names(r):
    if isinstance(r, Constraint):
        return ("id", "kind", "body", "head", "equated")
    if isinstance(r, Instance):
        return ("facts", "null_counter")
    return r._fields


def sample(records, name):
    r = records[name]
    assert type(r).__name__ == name
    return r, tuple(getattr(r, f) for f in field_names(r))


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_set(records, name):
    r, values = sample(records, name)
    for field, value in zip(field_names(r), values):
        with pytest.raises(AttributeError):
            setattr(r, field, value)
        with pytest.raises(AttributeError):
            delattr(r, field)
    assert tuple(getattr(r, f) for f in field_names(r)) == values


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records(records, name):
    r, values = sample(records, name)
    copy = type(r)(*values)
    assert copy == r and not copy != r
    other = type(r)(object(), *values[1:])
    assert other != r and not other == r
    compared = tuple(getattr(r, f) for f in field_names(r) if f != LEFT_OUT.get(name))
    try:
        want = hash(compared)
    except TypeError:  # a field holds a dict or a witness mapping
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(copy) == want


def test_constraint_hashes_its_fields(records):
    c = records["Constraint"]
    assert c.existential_vars  # the cached properties still work
    assert hash(c) == hash((c.id, c.kind, c.body, c.head, c.equated))


def test_report_equality_and_repr_ignore_answers(records):
    report = records["AnalysisReport"]
    assert report.answers
    emptied = report._replace(answers={})
    assert emptied == report and not emptied != report
    assert repr(emptied) == repr(report)
    assert repr(report).startswith("AnalysisReport(constraints=")
    assert "answers" not in repr(report)


def test_monitor_graph_compares_by_fields_and_has_no_hash(records):
    G = records["MonitorGraph"]
    assert G.edges
    copy = MonitorGraph(set(G.nodes), set(G.edges), dict(G.live), dict(G.chains),
                        G.longest)
    assert copy == G and not copy != G
    copy.longest += 1
    assert copy != G and not copy == G
    assert MonitorGraph() == MonitorGraph()
    with pytest.raises(TypeError):
        hash(G)
