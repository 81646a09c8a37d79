"""Provenance monitoring of chase-created nulls and the cycle-depth abort.

The monitor graph has one node per chase-created null, labeled with the
positions the null was created in. When a TGD step whose instantiated body
contains an already-monitored null creates new nulls, an edge runs from the
old null's node to each new node, labeled with the firing constraint and the
body positions the old null occupied. EGD steps leave the graph unchanged
(merges only move the null-to-node index: the surviving null inherits the
node unless it has one of its own or is a constant).

Repeated structure shows up as chains of edges that share a class key
(source created-at, constraint, body positions, target created-at). A graph
is k-cyclic when k pairwise distinct edges of one class form a consecutive
path. The per-class longest-chain index makes the check incremental, so a
monitored run pays O(new edges) per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Sequence, Tuple

from chaseterm.chase import ChasePolicy, ChaseResult, ChaseStepRecord, chase
from chaseterm.model import (
    Constraint, Instance, LabeledNull, Variable, instantiate, term_positions,
)


@dataclass(frozen=True)
class MonitorNode:
    null: LabeledNull
    created_at: frozenset  # positions within the facts added by the creating step


@dataclass(frozen=True)
class MonitorEdge:
    source: MonitorNode
    constraint_id: str
    body_positions: frozenset  # where the source null sat in the instantiated body
    target: MonitorNode


def edge_class(e: MonitorEdge) -> Tuple:
    return (e.source.created_at, e.constraint_id, e.body_positions, e.target.created_at)


def _pos_key(ps) -> Tuple:
    return tuple(sorted((p.relation, p.index) for p in ps))


def edge_key(e: MonitorEdge) -> Tuple:
    return (e.source.null.creation_index, e.source.null.name,
            e.constraint_id, _pos_key(e.body_positions),
            e.target.null.creation_index, e.target.null.name)


@dataclass(frozen=True)
class MonitorGraph:
    nodes: frozenset
    edges: frozenset
    live: Dict[LabeledNull, MonitorNode]   # current null -> its node
    chains: Dict[Tuple, Tuple[MonitorEdge, ...]]  # (node, class) -> longest chain ending there

    @classmethod
    def empty(cls) -> "MonitorGraph":
        return cls(frozenset(), frozenset(), {}, {})


def monitor_update(G: MonitorGraph, step: ChaseStepRecord, body_instantiation) -> MonitorGraph:
    """Fold one chase step into the monitor graph."""
    if step.merged_pair is not None:
        survivor, loser = step.merged_pair
        node = G.live.get(loser) if isinstance(loser, LabeledNull) else None
        if node is None:
            return G
        live = dict(G.live)
        del live[loser]
        if isinstance(survivor, LabeledNull) and survivor not in live:
            live[survivor] = node
        return replace(G, live=live)
    if not step.fresh_nulls:
        return G

    new_nodes = [MonitorNode(n, ps) for n, ps in step.fresh_nulls]
    sources = []
    for null, node in G.live.items():
        occ = term_positions(body_instantiation, null)
        if occ:
            sources.append((node, occ))

    new_edges = [
        MonitorEdge(src, step.constraint_id, occ, tgt)
        for src, occ in sources for tgt in new_nodes]

    live = dict(G.live)
    for node in new_nodes:
        live[node.null] = node
    chains = dict(G.chains)
    for e in sorted(new_edges, key=edge_key):
        key = edge_class(e)
        prefix = chains.get((e.source, key), ())
        chain = prefix + (e,)
        if len(chain) > len(chains.get((e.target, key), ())):
            chains[(e.target, key)] = chain
    return MonitorGraph(G.nodes | frozenset(new_nodes),
                        G.edges | frozenset(new_edges), live, chains)


def is_k_cyclic(G: MonitorGraph, k: int) -> Tuple[bool, Optional[Tuple[MonitorEdge, ...]]]:
    """Is there a consecutive chain of k distinct same-class edges? Returns
    the offending chain when so."""
    if k < 1:
        raise ValueError("k must be at least 1")
    best = None
    for chain in G.chains.values():
        if len(chain) >= k:
            witness = chain[-k:]
            if best is None or tuple(map(edge_key, witness)) < tuple(map(edge_key, best)):
                best = witness
    return (best is not None), best


def monitored_chase(I: Instance, sigma: Sequence[Constraint], k: int,
                    policy: ChasePolicy = ChasePolicy()) -> ChaseResult:
    """Chase with the cycle monitor armed: aborts with reason k_cyclic the
    first time the monitor graph becomes k-cyclic."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return chase(I, sigma, replace(policy, monitor_k=k))


def monitor_trace(steps: Sequence[ChaseStepRecord],
                  sigma: Sequence[Constraint]) -> Iterator[MonitorGraph]:
    """Fold recorded steps in, yielding the monitor graph after each one."""
    by_id = {c.id: c for c in sigma}
    G = MonitorGraph.empty()
    for rec in steps:
        c = by_id[rec.constraint_id]
        a = {Variable(name): val for name, val in rec.assignment}
        G = monitor_update(G, rec, instantiate(c.body, a))
        yield G


def build_monitor(steps: Sequence[ChaseStepRecord],
                  sigma: Sequence[Constraint]) -> MonitorGraph:
    """The monitor graph of a completed run."""
    G = MonitorGraph.empty()
    for G in monitor_trace(steps, sigma):
        pass
    return G
