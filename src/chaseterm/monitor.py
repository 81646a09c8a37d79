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
path. The per-class longest-chain index makes the check incremental.

The monitor sits below the chase and reads only step records. A monitored
run (`chase.monitored_chase`, or `chase` with a `monitor_k`) owns one
graph: `chase` creates it, folds every step into it in place with
`monitor_update` and returns it as `ChaseResult.monitor`. A merge moves one
entry of `live`. A TGD step reads the source nulls off its own assignment
and their positions off its constraint's body_var_positions, with no body
instantiation, and pays for its new edges, plus one copy of each chain it
extends, since chains are tuples. `longest` tracks the longest chain, so
`is_k_cyclic` answers "no" at once until some chain reaches k; the scan for
the least witness then runs once, at the abort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Set, Tuple

from chaseterm.model import Constraint, LabeledNull, position_key

if TYPE_CHECKING:
    from chaseterm.chase import ChaseStepRecord


class MonitorNode(NamedTuple):
    null: LabeledNull
    created_at: frozenset  # positions within the facts added by the creating step


class MonitorEdge(NamedTuple):
    source: MonitorNode
    constraint_id: str
    body_positions: frozenset  # where the source null sat in the instantiated body
    target: MonitorNode


def edge_class(e: MonitorEdge) -> Tuple:
    return (e.source.created_at, e.constraint_id, e.body_positions, e.target.created_at)


def node_key(n: MonitorNode) -> Tuple:
    """A node's order: its null's, by creation index, then name."""
    return n.null.order


def edge_key(e: MonitorEdge) -> Tuple:
    return (e.source.null.order, e.constraint_id,
            tuple(sorted(map(position_key, e.body_positions))),
            e.target.null.order)


class MonitorGraph:
    """The monitor graph of one run, updated in place by monitor_update.
    Graphs with equal fields are equal; being mutable, a graph has no hash."""

    def __init__(self, nodes: Optional[Set[MonitorNode]] = None,
                 edges: Optional[Set[MonitorEdge]] = None,
                 live: Optional[Dict[LabeledNull, MonitorNode]] = None,
                 chains: Optional[Dict[Tuple, Tuple[MonitorEdge, ...]]] = None,
                 longest: int = 0):
        self.nodes = set() if nodes is None else nodes
        self.edges = set() if edges is None else edges
        self.live = {} if live is None else live  # current null -> its node
        # (node, class) -> longest chain ending there
        self.chains = {} if chains is None else chains
        self.longest = longest  # length of the longest chain

    def __eq__(self, other):
        if other.__class__ is MonitorGraph:
            return ((self.nodes, self.edges, self.live, self.chains, self.longest)
                    == (other.nodes, other.edges, other.live, other.chains, other.longest))
        return NotImplemented


def monitor_update(G: MonitorGraph, step: ChaseStepRecord,
                   constraint: Constraint) -> MonitorGraph:
    """Fold one chase step of constraint into G in place, and return G. A
    source null sits in the instantiated body wherever the body variables
    that the step's assignment maps to it sit in the body."""
    live = G.live
    if step.merged_pair is not None:
        survivor, loser = step.merged_pair
        node = live.pop(loser, None)
        if node is not None and isinstance(survivor, LabeledNull):
            live.setdefault(survivor, node)
        return G
    if not step.fresh_nulls:
        return G

    new_nodes = [MonitorNode(n, ps) for n, ps in step.fresh_nulls]
    where: Dict[LabeledNull, Set] = {}
    for (_, v), ps in zip(step.assignment, constraint.body_var_positions.values()):
        if v in live:
            where.setdefault(v, set()).update(ps)
    sources = [(live[v], frozenset(ps)) for v, ps in where.items()]
    new_edges = sorted(
        (MonitorEdge(src, step.constraint_id, ps, tgt)
         for src, ps in sources for tgt in new_nodes), key=edge_key)

    for node in new_nodes:
        live[node.null] = node
    G.nodes.update(new_nodes)
    G.edges.update(new_edges)
    chains = G.chains
    for e in new_edges:
        key = edge_class(e)
        chain = chains.get((e.source, key), ()) + (e,)
        if len(chain) > len(chains.get((e.target, key), ())):
            chains[(e.target, key)] = chain
            G.longest = max(G.longest, len(chain))
    return G


def is_k_cyclic(G: MonitorGraph, k: int) -> Tuple[bool, Optional[Tuple[MonitorEdge, ...]]]:
    """Is there a consecutive chain of k distinct same-class edges? Returns
    the offending chain when so."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if G.longest < k:
        return False, None
    best = None
    for chain in G.chains.values():
        if len(chain) >= k:
            witness = chain[-k:]
            if best is None or tuple(map(edge_key, witness)) < tuple(map(edge_key, best)):
                best = witness
    return (best is not None), best

