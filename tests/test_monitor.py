"""Monitor graph construction, merge handling and the cycle-depth abort."""

import pytest

from chaseterm.chase import (
    ABORTED, K_CYCLIC, TERMINATED, ChasePolicy, apply_record, chase,
    monitored_chase,
)
from chaseterm.model import LabeledNull, Position, instance
from chaseterm.monitor import (
    MonitorGraph, edge_class, is_k_cyclic, monitor_update,
)
from chaseterm.model import egd, tgd

from .conftest import A, C, N, V, monitor_steps
from .oracles import strict

DEEP = 100  # deeper than any chain these runs build: the monitor never trips


def graph(I, sigma, max_steps=None):
    """The monitor graph of a run that the monitor does not stop."""
    res = monitored_chase(I, sigma, DEEP, ChasePolicy(max_steps=max_steps))
    assert res.abort_reason != K_CYCLIC
    return res.monitor


class TestGraphConstruction:
    def test_initial_nulls_are_not_monitored(self, travel_sigma, roundtrip_instance):
        G = graph(roundtrip_instance, travel_sigma)
        assert G.nodes == frozenset()
        assert G.edges == frozenset()
        assert G.live == {}

    def test_nodes_carry_creation_positions(self, travel_sigma, oneway_instance):
        G = graph(oneway_instance, travel_sigma, max_steps=3)
        by_name = {node.null.name: node for node in G.nodes}
        assert set(by_name) == {"n1", "n2"}
        assert by_name["n1"].created_at == frozenset({Position("fly", 2)})
        assert by_name["n2"].created_at == frozenset({Position("fly", 3)})
        assert G.edges == frozenset()

    def test_edges_appear_once_monitored_nulls_feed_a_step(self, travel_sigma, oneway_instance):
        G = graph(oneway_instance, travel_sigma, max_steps=5)
        assert len(G.nodes) == 4
        assert len(G.edges) == 4
        assert {e.constraint_id for e in G.edges} == {"a3"}
        srcs = {(e.source.null.name, tuple(sorted(p.index for p in e.body_positions)))
                for e in G.edges}
        assert srcs == {("n1", (2,)), ("n2", (3,))}

    def test_edges_point_from_older_to_newer(self, travel_sigma, oneway_instance):
        G = graph(oneway_instance, travel_sigma, max_steps=11)
        for e in G.edges:
            assert e.source.null.creation_index < e.target.null.creation_index

    def test_one_node_per_created_null(self, travel_sigma, oneway_instance):
        res = monitored_chase(oneway_instance, travel_sigma, DEEP,
                              ChasePolicy(max_steps=11))
        created = [n for rec in res.steps for n, _ in rec.fresh_nulls]
        G = res.monitor
        assert sorted(node.null.name for node in G.nodes) == sorted(n.name for n in created)
        assert set(G.live) == set(created)


class TestOneGraphPerRun:
    def test_unmonitored_run_has_no_graph(self, travel_sigma, oneway_instance):
        res = chase(oneway_instance, travel_sigma, ChasePolicy(max_steps=5))
        assert res.monitor is None

    def test_update_folds_in_place(self, travel_sigma, oneway_instance):
        res = monitored_chase(oneway_instance, travel_sigma, DEEP,
                              ChasePolicy(max_steps=11))
        by_id = {c.id: c for c in travel_sigma}
        G = MonitorGraph()
        for rec in res.steps:
            assert monitor_update(G, rec, by_id[rec.constraint_id]) is G
            assert G.longest == max(map(len, G.chains.values()), default=0)
        assert G.longest == 4
        assert strict(G) == strict(res.monitor)


class TestMergeHandling:
    def test_merge_into_constant_retires_the_node(self):
        t = tgd("t", [A("P", V("X"))],
                [A("R", V("X"), V("Y")), A("T", V("Y"))])
        t2 = tgd("t2", [A("P", V("X"))], [A("R", V("X"), C("b")), A("T", C("b"))])
        e = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                V("Y1"), V("Y2"))
        I = instance([A("P", C("a"))])
        res = monitored_chase(I, [t, t2, e], DEEP)
        assert res.outcome == TERMINATED
        assert any(rec.merged_pair for rec in res.steps)
        G = res.monitor
        assert len(G.nodes) == 1
        assert G.live == {}

    def test_surviving_plain_null_inherits_the_node(self):
        t = tgd("t", [A("P", V("X"))],
                [A("R", V("X"), V("Y")), A("T", V("Y"))])
        e = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                V("Y1"), V("Y2"))
        u = N("u")
        I = instance([A("P", C("a")), A("R", C("a"), u)])
        res = monitored_chase(I, [t, e], DEEP)
        assert res.outcome == TERMINATED
        G = res.monitor
        node, = G.nodes
        assert node.null == LabeledNull("n1", 1)
        assert G.live == {u: node}

    def test_merge_of_two_monitored_nulls_keeps_the_survivors_node(self):
        t = tgd("t", [A("P", V("X"))],
                [A("R", V("X"), V("Y")), A("T", V("Y"))])
        t2 = tgd("t2", [A("Q", V("X"))],
                 [A("R", V("X"), V("Z")), A("U", V("Z"))])
        e = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                V("Y1"), V("Y2"))
        I = instance([A("P", C("a")), A("Q", C("a"))])
        res = monitored_chase(I, [t, t2, e], DEEP)
        assert res.outcome == TERMINATED
        merges = [rec.merged_pair for rec in res.steps if rec.merged_pair]
        assert merges == [(LabeledNull("n1", 1), LabeledNull("n2", 2))]
        G = res.monitor
        assert len(G.nodes) == 2
        assert set(G.live) == {LabeledNull("n1", 1)}
        assert G.live[LabeledNull("n1", 1)].null == LabeledNull("n1", 1)


class TestKCyclicity:
    def test_depth_three_abort_on_one_way_trip(self, travel_sigma, oneway_instance):
        res = monitored_chase(oneway_instance, travel_sigma, 3)
        assert res.outcome == ABORTED
        assert res.abort_reason == K_CYCLIC
        assert res.abort_k == 3
        assert len(res.steps) == 9
        chain = res.kcyclic_chain
        assert len(chain) == 3
        assert len(set(chain)) == 3
        assert len({edge_class(e) for e in chain}) == 1
        for a, b in zip(chain, chain[1:]):
            assert a.target == b.source
        assert [e.source.null.name for e in chain] == ["n1", "n3", "n5"]

    def test_depth_one_aborts_on_first_edge(self, travel_sigma, oneway_instance):
        res = monitored_chase(oneway_instance, travel_sigma, 1)
        assert res.outcome == ABORTED
        assert res.abort_reason == K_CYCLIC
        assert len(res.steps) == 5

    def test_larger_depth_aborts_later(self, travel_sigma, oneway_instance):
        res3 = monitored_chase(oneway_instance, travel_sigma, 3)
        res5 = monitored_chase(oneway_instance, travel_sigma, 5)
        assert res5.outcome == ABORTED
        assert len(res5.steps) > len(res3.steps)

    def test_terminating_run_with_monitor_is_unaffected(self, travel_sigma, roundtrip_instance):
        plain = chase(roundtrip_instance, travel_sigma)
        watched = monitored_chase(roundtrip_instance, travel_sigma, 2)
        assert watched.outcome == TERMINATED
        assert watched.final == plain.final

    def test_graph_is_cyclic_only_at_the_last_step(self, travel_sigma, oneway_instance):
        res = monitored_chase(oneway_instance, travel_sigma, 3)
        verdicts = [is_k_cyclic(G, 3)
                    for G in monitor_steps(res.steps, travel_sigma)]
        assert verdicts[-1] == (True, res.kcyclic_chain)
        for cyc, chain in verdicts[:-1]:
            assert not cyc
            assert chain is None
        assert is_k_cyclic(res.monitor, 3) == verdicts[-1]

    def test_depth_must_be_positive(self, travel_sigma, oneway_instance):
        with pytest.raises(ValueError):
            monitored_chase(oneway_instance, travel_sigma, 0)
        with pytest.raises(ValueError):
            is_k_cyclic(MonitorGraph(), 0)


class TestStructuralInvariants:
    def test_live_index_matches_instance_nulls(self, travel_sigma, oneway_instance):
        initial = set(oneway_instance.null_names())
        res = monitored_chase(oneway_instance, travel_sigma, 4)
        current = oneway_instance
        for rec, G in zip(res.steps, monitor_steps(res.steps, travel_sigma)):
            current = apply_record(current, rec)
            created_live = {v for v in current.domain()
                            if isinstance(v, LabeledNull) and v.name not in initial}
            assert set(G.live) == created_live

    def test_chains_are_paths_of_one_class(self, travel_sigma, oneway_instance):
        G = monitored_chase(oneway_instance, travel_sigma, 4).monitor
        for (node, key), chain in G.chains.items():
            assert chain[-1].target == node
            assert {edge_class(e) for e in chain} == {key}
            for a, b in zip(chain, chain[1:]):
                assert a.target == b.source
            assert all(e in G.edges for e in chain)
