"""Shared golden fixtures.

The travel set (fly/rail/hasAirport), the two S/E sets and the two query-body
instances recur throughout the suite; they are built programmatically here so
parser tests can cross-check the surface syntax against them.
"""

import pytest

from chaseterm import firing
from chaseterm.model import (
    Atom, Constant, LabeledNull, Variable, instance, tgd,
)
from chaseterm.monitor import MonitorGraph, monitor_update


def V(name):
    return Variable(name)


def C(name):
    return Constant(name)


def N(name, idx=0):
    return LabeledNull(name, idx)


def A(rel, *args):
    return Atom(rel, tuple(args))


def count_searches(monkeypatch, parts=("_exists", "_enumerate")):
    """The arguments of every call to the named parts of the firing search,
    in call order: by default both, the existence check and the canonical
    enumeration, each called with (alpha, beta, P, mode)."""
    searched = []
    for name in parts:
        def counting(*args, part=getattr(firing, name)):
            searched.append(args)
            return part(*args)

        monkeypatch.setattr(firing, name, counting)
    return searched


def monitor_steps(steps, sigma):
    """Fold recorded steps into one fresh monitor graph with the package's
    monitor_update, yielding the graph after each step. It is one graph,
    updated in place: read it before the next step is folded in."""
    by_id = {c.id: c for c in sigma}
    G = MonitorGraph()
    for rec in steps:
        yield monitor_update(G, rec, by_id[rec.constraint_id])


@pytest.fixture
def feedback_sigma():
    # a1: S(x), E(x,y) -> E(y,x)
    # a2: S(x), E(x,y) -> exists z. E(y,z), E(z,x)
    x, y, z = V("X"), V("Y"), V("Z")
    a1 = tgd("a1", [A("S", x), A("E", x, y)], [A("E", y, x)])
    a2 = tgd("a2", [A("S", x), A("E", x, y)], [A("E", y, z), A("E", z, x)])
    return [a1, a2]


@pytest.fixture
def seeded_feedback_sigma(feedback_sigma):
    # adds a3: true -> exists x,y. S(x), E(x,y)
    x, y = V("X"), V("Y")
    a3 = tgd("a3", [], [A("S", x), A("E", x, y)])
    return feedback_sigma + [a3]


@pytest.fixture
def travel_sigma():
    # a1: fly(x1,x2,y) -> hasAirport(x1), hasAirport(x2)
    # a2: rail(x1,x2,y) -> rail(x2,x1,y)
    # a3: fly(x1,x2,y1) -> exists x3,y2. fly(x2,x3,y2)
    x1, x2, x3, y, y1, y2 = V("X1"), V("X2"), V("X3"), V("Y"), V("Y1"), V("Y2")
    a1 = tgd("a1", [A("fly", x1, x2, y)], [A("hasAirport", x1), A("hasAirport", x2)])
    a2 = tgd("a2", [A("rail", x1, x2, y)], [A("rail", x2, x1, y)])
    a3 = tgd("a3", [A("fly", x1, x2, y1)], [A("fly", x2, x3, y2)])
    return [a1, a2, a3]


@pytest.fixture
def oneway_instance():
    # body of the rail-and-fly query read as an instance: c1 constant, rest nulls
    c1 = C("c1")
    x1, x2, y1, y2 = N("x1"), N("x2"), N("y1"), N("y2")
    return instance([A("rail", c1, x1, y1), A("fly", x1, x2, y2)])


@pytest.fixture
def roundtrip_instance():
    # body of the there-and-back variant
    c1 = C("c1")
    x1, x2, y1, y2 = N("x1"), N("x2"), N("y1"), N("y2")
    return instance([
        A("rail", c1, x1, y1),
        A("fly", x1, x2, y2),
        A("fly", x2, x1, y2),
        A("rail", x1, c1, y1),
    ])
