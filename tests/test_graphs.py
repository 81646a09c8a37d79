"""Graph toolkit sanity checks against a brute-force reachability oracle."""

import itertools
import random

from chaseterm.graphs import (
    nontrivial_components, reachable_from, strongly_connected_components,
)


def bf_sccs(nodes, edges):
    reach = {u: reachable_from([u], edges) for u in nodes}
    comps = set()
    for u in nodes:
        comps.add(frozenset(v for v in nodes if v in reach[u] and u in reach[v]))
    return comps


class TestSccs:
    def test_two_cycles_and_a_bridge(self):
        nodes = list(range(6))
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (5, 5)]
        comps = strongly_connected_components(nodes, edges)
        assert set(comps) == {frozenset({0, 1}), frozenset({2, 3, 4}),
                              frozenset({5})}
        assert set(nontrivial_components(nodes, edges)) == {
            frozenset({0, 1}), frozenset({2, 3, 4}), frozenset({5})}

    def test_self_loop_is_nontrivial_but_lone_node_is_not(self):
        nodes = ["a", "b"]
        assert nontrivial_components(nodes, [("a", "a")]) == [frozenset({"a"})]
        assert nontrivial_components(nodes, []) == []

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.randrange(1, 8)
            nodes = list(range(n))
            pool = list(itertools.product(nodes, nodes))
            edges = rng.sample(pool, rng.randrange(len(pool) + 1))
            got = set(strongly_connected_components(nodes, edges))
            assert got == bf_sccs(nodes, edges)

    def test_reverse_topological_order(self):
        nodes = [0, 1, 2, 3]
        edges = [(0, 1), (1, 2), (2, 1), (2, 3)]
        comps = strongly_connected_components(nodes, edges)
        pos = {c: i for i, c in enumerate(comps)}
        # every edge goes from a later component to an earlier one
        comp_of = {u: c for c in comps for u in c}
        for u, v in edges:
            if comp_of[u] != comp_of[v]:
                assert pos[comp_of[u]] > pos[comp_of[v]]

