"""Instance-aware pruning: alpha_I, the firing graph, and what survives."""

import time

import pytest

from chaseterm import firing
from chaseterm.dynamic import (
    ALL_INSTANCES, ALPHA_I, NO_GUARANTEE, THIS_INSTANCE, chase_graph,
    constraint_from_instance, data_dependent_guarantee, irrelevant_constraints,
)
from chaseterm.firing import PRECEDES, verify_witness
from chaseterm.model import TGD, ModelError, Variable, instance
from chaseterm.static import analyze, is_inductively_restricted

from .conftest import A, C, N, V, count_searches


class TestConstraintFromInstance:
    def test_query_body_roundtrip(self, oneway_instance):
        a = constraint_from_instance(oneway_instance)
        assert a.id == ALPHA_I
        assert a.kind == TGD and a.body == ()
        assert {f.relation for f in a.head} == {"rail", "fly"}
        assert sorted(v.name for v in a.existential_vars) == [
            "x1", "x2", "y1", "y2"]

    def test_constants_stay_constants(self, oneway_instance):
        a = constraint_from_instance(oneway_instance)
        rail = next(f for f in a.head if f.relation == "rail")
        assert rail.args[0] == C("c1")
        assert rail.args[1] == Variable("x1")

    def test_shared_null_becomes_shared_variable(self, roundtrip_instance):
        a = constraint_from_instance(roundtrip_instance)
        flights = sorted((f for f in a.head if f.relation == "fly"),
                         key=lambda f: f.args[0].name)
        assert flights[0].args == (V("x1"), V("x2"), V("y2"))
        assert flights[1].args == (V("x2"), V("x1"), V("y2"))

    def test_empty_instance_rejected(self):
        with pytest.raises(ModelError, match="empty instance"):
            constraint_from_instance(instance([]))

    def test_large_instance_builds_in_linear_time(self):
        # 8,000 facts, a third of whose nulls are shared: deduplicating the
        # head and its variables by list membership took 2.4-5.6 s on a
        # 2-core Xeon VM
        I = instance(A("r", C(f"c{i % 97}"), N(f"n{i}"), N(f"m{i // 3}"))
                     for i in range(8000))
        start = time.perf_counter()
        alpha = constraint_from_instance(I)
        existentials = alpha.existential_vars
        elapsed = time.perf_counter() - start
        assert len(alpha.head) == 8000
        assert len(existentials) == 8000 + 2667
        assert elapsed < 1.0

    def test_head_order_deterministic(self, roundtrip_instance):
        a = constraint_from_instance(roundtrip_instance)
        b = constraint_from_instance(instance(sorted(
            roundtrip_instance.facts, key=repr, reverse=True)))
        assert a.head == b.head


class TestChaseGraph:
    def test_travel_set_edges(self, travel_sigma):
        g = chase_graph(travel_sigma)
        assert g.edges == (("a3", "a1"), ("a3", "a3"))

    def test_mutual_set_edges(self, feedback_sigma):
        g = chase_graph(feedback_sigma)
        assert g.edges == (("a1", "a2"), ("a2", "a1"))

    def test_empty_set(self):
        assert chase_graph([]).edges == ()

    def test_self_loop_alone(self, travel_sigma):
        a3 = travel_sigma[2]
        assert chase_graph([a3]).edges == (("a3", "a3"),)

    def test_with_instance_constraint(self, travel_sigma, roundtrip_instance):
        alpha = constraint_from_instance(roundtrip_instance)
        g = chase_graph(list(travel_sigma) + [alpha])
        assert g.edges == (("a3", "a1"), ("a3", "a3"), (ALPHA_I, "a1"))

    def test_witnesses_replay(self, travel_sigma, roundtrip_instance):
        alpha = constraint_from_instance(roundtrip_instance)
        nodes = list(travel_sigma) + [alpha]
        g = chase_graph(nodes)
        by_id = {c.id: c for c in nodes}
        for (aid, bid), w in g.witnesses.items():
            assert verify_witness(by_id[aid], by_id[bid], w, mode=PRECEDES)


class TestIrrelevance:
    def test_satisfied_rules_pruned(self, travel_sigma, roundtrip_instance):
        irr, rel, g = irrelevant_constraints(roundtrip_instance, travel_sigma)
        assert [c.id for c in rel] == ["a1"]
        assert [c.id for c in irr] == ["a2", "a3"]
        assert any(e[0] == ALPHA_I for e in g.edges)

    def test_violated_rule_stays(self, travel_sigma, oneway_instance):
        irr, rel, _ = irrelevant_constraints(oneway_instance, travel_sigma)
        assert "a3" in {c.id for c in rel}
        assert [c.id for c in irr] == []

    def test_alpha_i_not_reported(self, travel_sigma, roundtrip_instance):
        irr, rel, _ = irrelevant_constraints(roundtrip_instance, travel_sigma)
        ids = {c.id for c in irr} | {c.id for c in rel}
        assert ALPHA_I not in ids
        assert ids == {"a1", "a2", "a3"}


class TestWitnessesOnDemand:
    def test_pruning_enumerates_nothing(self, travel_sigma, oneway_instance,
                                        roundtrip_instance, monkeypatch):
        # the travel rules are TGDs, and the split reads edges alone; a
        # witness is built when it is read, once
        enumerated = count_searches(monkeypatch, ("_enumerate",))
        for I in (oneway_instance, roundtrip_instance):
            _, _, g = irrelevant_constraints(I, travel_sigma)
            assert [e for e in g.edges if e[0] == ALPHA_I]
            assert enumerated == []
            by_id = {c.id: c for c in g.constraints}
            for edge in g.edges:
                w = g.witnesses[edge]
                assert g.witnesses[edge] is w
                assert verify_witness(by_id[edge[0]], by_id[edge[1]], w,
                                      mode=PRECEDES)
            assert len(enumerated) == len(g.edges)
            enumerated.clear()


class TestGuarantee:
    def test_alpha_i_image_is_built_once(self, travel_sigma, oneway_instance,
                                         monkeypatch):
        # alpha_I has no body, so one image of its step serves every beta
        # it is asked about
        built = []

        def counting(alpha, a, added=firing._added):
            built.append(alpha.id)
            return added(alpha, a)

        monkeypatch.setattr(firing, "_added", counting)
        g = data_dependent_guarantee(oneway_instance, analyze(travel_sigma))
        assert g.level == NO_GUARANTEE
        assert len([e for e in g.chase_graph.edges if e[0] == ALPHA_I]) > 1
        assert built.count(ALPHA_I) == 1

    def test_pruning_recovers_termination(self, travel_sigma, roundtrip_instance):
        g = data_dependent_guarantee(roundtrip_instance, analyze(travel_sigma))
        assert g.level == THIS_INSTANCE
        assert [c.id for c in g.relevant] == ["a1"]
        assert [c.id for c in g.irrelevant] == ["a2", "a3"]
        assert is_inductively_restricted(g.relevant)

    def test_no_guarantee_when_loop_stays(self, travel_sigma, oneway_instance):
        g = data_dependent_guarantee(oneway_instance, analyze(travel_sigma))
        assert g.level == NO_GUARANTEE
        assert {c.id for c in g.relevant} == {"a1", "a2", "a3"}

    def test_static_pass_short_circuits(self, seeded_feedback_sigma, oneway_instance):
        g = data_dependent_guarantee(oneway_instance, analyze(seeded_feedback_sigma))
        assert g.level == ALL_INSTANCES
        assert g.irrelevant == ()
        assert g.chase_graph is None

    def test_empty_instance_keeps_everything(self, travel_sigma):
        g = data_dependent_guarantee(instance([]), analyze(travel_sigma))
        assert g.level == NO_GUARANTEE
        assert {c.id for c in g.relevant} == {"a1", "a2", "a3"}

    def test_failing_part_reported(self, travel_sigma, oneway_instance):
        g = data_dependent_guarantee(oneway_instance, analyze(travel_sigma))
        assert [[c.id for c in p] for p in g.parts] == [["a3"]]
