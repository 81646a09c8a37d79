"""Small directed-graph toolkit used by the analysis passes.

Graphs are plain data: a node sequence plus an iterable of (source, target)
pairs over hashable labels. The node sequence fixes iteration order, so every
function here is deterministic for a fixed input order; callers that need
stable output across runs pass nodes in a canonical order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Sequence, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


def adjacency(nodes: Sequence[Node], edges: Iterable[Edge]) -> Dict[Node, List[Node]]:
    adj: Dict[Node, List[Node]] = {u: [] for u in nodes}
    seen: Set[Edge] = set()
    for u, v in edges:
        if (u, v) in seen:
            continue
        seen.add((u, v))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, [])
    return adj


def reachable_from(start: Iterable[Node], edges: Iterable[Edge]) -> Set[Node]:
    """All nodes reachable from the start set, start included."""
    adj: Dict[Node, List[Node]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = set(start)
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def strongly_connected_components(nodes: Sequence[Node],
                                  edges: Iterable[Edge]) -> List[FrozenSet[Node]]:
    """Tarjan's algorithm, iterative. Components come out in reverse
    topological order of the condensation."""
    adj = adjacency(nodes, edges)
    order = list(adj)
    index: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[FrozenSet[Node]] = []
    counter = 0

    for root in order:
        if root in index:
            continue
        # frames: (node, iterator over successors)
        frames = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while frames:
            u, it = frames[-1]
            advanced = False
            for v in it:
                if v not in index:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack.add(v)
                    frames.append((v, iter(adj[v])))
                    advanced = True
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[u])
            if low[u] == index[u]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == u:
                        break
                components.append(frozenset(comp))
    return components


def nontrivial_components(nodes: Sequence[Node],
                          edges: Iterable[Edge]) -> List[FrozenSet[Node]]:
    """Strongly connected components that contain at least one edge: two or
    more nodes, or a single node with a self-loop."""
    edge_set = set(edges)
    out = []
    for comp in strongly_connected_components(nodes, edge_set):
        if len(comp) > 1 or any((u, u) in edge_set for u in comp):
            out.append(comp)
    return out


def shortest_path(start: Node, goal: Node, edges: Iterable[Edge]):
    """A shortest path from start to goal as a node list, or None. Ties break
    by the order edges are given in."""
    adj: Dict[Node, List[Node]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    prev: Dict[Node, Node] = {}
    seen = {start}
    queue = [start]
    while queue:
        nxt: List[Node] = []
        for u in queue:
            if u == goal:
                path = [u]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    prev[v] = u
                    nxt.append(v)
        queue = nxt
    return None


def cycle_through(edges: Iterable[Edge], marked: Iterable[Edge]):
    """A cycle through the first marked edge that lies on one, as a closed
    node list [u, v, ..., u], or None."""
    all_edges = list(edges)
    for u, v in marked:
        if u == v:
            return [u, u]
        p = shortest_path(v, u, all_edges)
        if p is not None:
            return [u] + p
    return None
