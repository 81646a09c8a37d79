"""Graph toolkit checks against hand-worked graphs, and a seeded differential
against the toolkit as it was before one search served it (Tarjan's
components, a level-by-level shortest path) and a reachability fixpoint."""

import itertools
import random

from chaseterm.graphs import (
    cycle_through, nontrivial_components, reachable_from, shortest_path,
)
from . import oracles


def bf_reachable(start, edges):
    seen = set(start)
    while True:
        new = {v for u, v in edges if u in seen} - seen
        if not new:
            return seen
        seen |= new


def random_graphs(count, seed):
    """Graphs of 1-8 nodes in shuffled order, with self-loops, repeated
    edges, and edges to two endpoints that nodes leaves out."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 9)
        nodes = list(range(n))
        rng.shuffle(nodes)
        pool = list(itertools.product(range(n + 2), repeat=2))
        edges = [rng.choice(pool) for _ in range(rng.randrange(3 * n + 2))]
        yield nodes, edges, rng


class TestSccs:
    def test_two_cycles_and_a_bridge(self):
        nodes = list(range(6))
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (5, 5)]
        comps = oracles.strongly_connected_components(nodes, edges)
        assert set(comps) == {frozenset({0, 1}), frozenset({2, 3, 4}),
                              frozenset({5})}
        assert set(nontrivial_components(nodes, edges)) == {
            frozenset({0, 1}), frozenset({2, 3, 4}), frozenset({5})}

    def test_self_loop_is_nontrivial_but_lone_node_is_not(self):
        nodes = ["a", "b"]
        assert nontrivial_components(nodes, [("a", "a")]) == [frozenset({"a"})]
        assert nontrivial_components(nodes, []) == []

    def test_endpoints_missing_from_nodes_still_count(self):
        assert nontrivial_components([0], [(0, 1), (1, 0)]) == [frozenset({0, 1})]
        assert nontrivial_components([], [(2, 2)]) == [frozenset({2})]

    def test_matches_oracle_on_random_graphs(self):
        for nodes, edges, _ in random_graphs(3000, "graphs/sccs"):
            got = nontrivial_components(nodes, iter(edges))
            want = oracles.ref_nontrivial_components(nodes, edges)
            assert len(got) == len(want) and set(got) == set(want), (nodes, edges)


class TestPaths:
    def test_matches_oracle_on_random_graphs(self):
        for nodes, edges, rng in random_graphs(3000, "graphs/paths"):
            everything = sorted(set(nodes) | {u for e in edges for u in e})
            for u in everything:
                assert reachable_from([u], iter(edges)) == bf_reachable([u], edges)
            start = rng.sample(everything, rng.randrange(len(everything) + 1))
            assert reachable_from(start, edges) == bf_reachable(start, edges)
            for s, g in itertools.product(everything, repeat=2):
                assert shortest_path(s, g, iter(edges)) == \
                    oracles.ref_shortest_path(s, g, edges), (s, g, edges)
            marked = rng.sample(edges, rng.randrange(len(edges) + 1))
            assert cycle_through(iter(edges), marked) == \
                oracles.ref_cycle_through(edges, marked), (marked, edges)

    def test_ties_break_by_edge_order(self):
        assert shortest_path(0, 3, [(0, 2), (0, 1), (1, 3), (2, 3)]) == [0, 2, 3]
        assert shortest_path(0, 3, [(0, 1), (0, 2), (2, 3), (1, 3)]) == [0, 1, 3]
        assert shortest_path(0, 0, []) == [0]
        assert shortest_path(0, 1, [(1, 0)]) is None
