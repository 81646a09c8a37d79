"""Static termination analysis of a constraint set.

The ladder runs from most to least syntactic; RUNGS below lists its rungs,
each with what its check asks. A positive verdict anywhere guarantees all
chase sequences terminate for all instances. Negative verdicts carry
concrete cycle witnesses.

Position bookkeeping follows two conventions worth naming: the position set
of a single constraint, as used in the restriction-system propagation rule,
means its body positions; the dependency graph ranges over all positions of
bodies and heads.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from chaseterm.firing import (
    PRECEDES_P, Answers, ChaseGraph, Key, Witness, Witnesses, chase_graph,
    find_edge,
)
from chaseterm.graphs import cycle_through, nontrivial_components
from chaseterm.model import (
    TGD, Constraint, Position, check_arities, check_ids, position_key,
)

Cycle = Tuple[Position, ...]


class Rung(NamedTuple):
    """One rung of the ladder: its `analyze --check` key, its verdict field
    of AnalysisReport, the report fields holding its evidence, its verdict
    as an adjective and the name of its condition."""

    key: str
    field: str
    evidence: Tuple[str, str]
    label: str
    name: str


RUNGS = (
    # no special-edge cycle in the dependency graph over all positions
    Rung("wa", "weakly_acyclic", ("dependency_graph", "dependency_cycle"),
         "weakly acyclic", "weak acyclicity"),
    # the same check on the propagation graph, which keeps only edges whose
    # source variable is confined to affected positions
    Rung("safe", "safe", ("propagation_graph", "propagation_cycle"),
         "safe", "safety"),
    # every nontrivial SCC of the pairwise firing graph is weakly acyclic
    Rung("strat", "stratified", ("chase_graph", "stratification_failures"),
         "stratified", "stratification"),
    # every nontrivial SCC of the minimal restriction system is safe
    Rung("sr", "safely_restricted", ("restriction_system", "restriction_failures"),
         "safely restricted", "safe restriction"),
    # every element of the part decomposition (recursive SCC refinement of
    # the restriction system) is safe
    Rung("ir", "inductively_restricted", ("parts", "part_failures"),
         "inductively restricted", "inductive restriction"),
)


def affected_positions(sigma: Sequence[Constraint]) -> frozenset:
    """Least set of positions that can carry labeled nulls in some chase:
    existential head positions, closed under propagation through universal
    variables whose body occurrences are all affected. EGDs contribute
    nothing (they never create nulls)."""
    tgds = [c for c in sigma if c.kind == TGD]
    aff = set().union(*(c.existential_positions for c in tgds))
    changed = True
    while changed:
        changed = False
        for c in tgds:
            for v, occ in c.body_var_positions.items():
                if aff.issuperset(occ):
                    head_occ = c.head_var_positions.get(v, ())
                    if not aff.issuperset(head_occ):
                        aff.update(head_occ)
                        changed = True
    return frozenset(aff)


def aff_cl(alpha: Constraint, P) -> frozenset:
    """Head positions of alpha where nulls can land when alpha fires on an
    instance whose nulls sit only in P: positions holding an existential
    variable, and positions all of whose universal variables are body-bound
    to P."""
    if alpha.kind != TGD:
        raise ValueError("aff_cl is defined for TGDs only")
    P = frozenset(P)
    out = {p for f in alpha.head for p in alpha.atom_positions[f]}
    for v, occ in alpha.body_var_positions.items():
        if not P.issuperset(occ):
            out.difference_update(alpha.head_var_positions.get(v, ()))
    return frozenset(out | alpha.existential_positions)


# ---------------------------------------------------------------------------
# Position graphs
# ---------------------------------------------------------------------------

class PositionGraph(NamedTuple):
    """Positions as nodes; regular edges copy values, special edges mark
    places where a firing creates a fresh null."""

    nodes: Tuple[Position, ...]
    regular: Tuple[Tuple[Position, Position], ...]
    special: Tuple[Tuple[Position, Position], ...]

    @property
    def edges(self) -> Tuple[Tuple[Position, Position], ...]:
        return self.regular + self.special


def _edge_key(e):
    return (position_key(e[0]), position_key(e[1]))


def _position_graph(tgds: Sequence[Constraint], nodes,
                    restrict: Optional[frozenset]) -> PositionGraph:
    regular, special = set(), set()
    for c in tgds:
        for v, occ in c.body_var_positions.items():
            if restrict is not None and not restrict.issuperset(occ):
                continue
            head_occ = c.head_var_positions.get(v, ())
            for p in occ:
                for q in head_occ:
                    regular.add((p, q))
                for q in c.existential_positions:
                    special.add((p, q))
    return PositionGraph(tuple(sorted(nodes, key=position_key)),
                         tuple(sorted(regular, key=_edge_key)),
                         tuple(sorted(special, key=_edge_key)))


def propagation_graph(sigma: Sequence[Constraint]) -> PositionGraph:
    """Null propagation between affected positions (the safety graph)."""
    tgds = [c for c in sigma if c.kind == TGD]
    aff = affected_positions(tgds)
    return _position_graph(tgds, aff, aff)


def dependency_graph(sigma: Sequence[Constraint]) -> PositionGraph:
    """The same construction over all positions, unrestricted (the weak
    acyclicity graph)."""
    tgds = [c for c in sigma if c.kind == TGD]
    nodes = set()
    for c in tgds:
        nodes |= c.positions
    return _position_graph(tgds, nodes, None)


def _special_cycle(g: PositionGraph) -> Optional[Cycle]:
    cyc = cycle_through(g.edges, g.special)
    return tuple(cyc) if cyc is not None else None


def safety(sigma: Sequence[Constraint]) -> Tuple[bool, Optional[Cycle], PositionGraph]:
    g = propagation_graph(sigma)
    cyc = _special_cycle(g)
    return cyc is None, cyc, g


def is_safe(sigma: Sequence[Constraint]) -> bool:
    return safety(sigma)[0]


def weak_acyclicity(sigma: Sequence[Constraint]) -> Tuple[bool, Optional[Cycle], PositionGraph]:
    g = dependency_graph(sigma)
    cyc = _special_cycle(g)
    return cyc is None, cyc, g


def is_weakly_acyclic(sigma: Sequence[Constraint]) -> bool:
    return weak_acyclicity(sigma)[0]


# ---------------------------------------------------------------------------
# Restriction systems
# ---------------------------------------------------------------------------

class RestrictionSystem(NamedTuple):
    """The firing graph over Sigma together with the position guard f under
    which each constraint's firings were tested."""

    constraints: Tuple[Constraint, ...]
    edges: Tuple[Tuple[str, str], ...]
    f: Dict[str, frozenset]
    witnesses: Mapping[Tuple[str, str], Witness]


def minimal_restriction_system(sigma: Sequence[Constraint],
                               answers: Optional[Answers] = None) -> RestrictionSystem:
    """Least fixpoint: discover edges with the guard at its current value,
    then grow each target's guard by exactly the positions the edge forces
    (the firing constraint's affected closure for TGDs, its own guard for
    EGDs, cut down to the target's body positions). Edges are decided from
    answers (see firing.find_edge); each witness is built when it is read."""
    check_ids(sigma)
    answers = {} if answers is None else answers
    by_id = {c.id: c for c in sigma}
    f: Dict[str, frozenset] = {c.id: frozenset() for c in sigma}
    keys: Dict[Tuple[str, str], Key] = {}  # each edge's key in answers
    changed = True
    while changed:
        changed = False
        for a in sigma:
            for b in sigma:
                if (a.id, b.id) in keys:
                    continue
                key = find_edge(a, b, f[a.id], PRECEDES_P, answers)
                if key is not None:
                    keys[(a.id, b.id)] = key
                    changed = True
        for (aid, bid) in sorted(keys):
            a = by_id[aid]
            add = aff_cl(a, f[aid]) if a.kind == TGD else f[aid]
            add &= by_id[bid].body_positions
            if not add <= f[bid]:
                f[bid] |= add
                changed = True
    return RestrictionSystem(tuple(sigma), tuple(sorted(keys)), f,
                             Witnesses(answers, keys))


def nontrivial_sccs(constraints: Sequence[Constraint],
                    edges) -> List[Tuple[Constraint, ...]]:
    """Strongly connected components holding at least one edge, as tuples of
    constraints sorted by id; components ordered by their smallest id."""
    by_id = {c.id: c for c in constraints}
    comps = nontrivial_components(sorted(by_id), edges)
    out = [tuple(by_id[i] for i in sorted(comp)) for comp in comps]
    out.sort(key=lambda comp: comp[0].id)
    return out


def part(sigma: Sequence[Constraint],
         answers: Optional[Answers] = None) -> List[Tuple[Constraint, ...]]:
    """Recursive SCC refinement of the minimal restriction system. A set
    returns itself once it is its own single component; otherwise the
    refinement descends into each component. Components are disjoint and
    each descent stays inside one, so the pieces are pairwise disjoint.
    Every level queries one table: answers (see firing.find_edge), or its own."""
    answers = {} if answers is None else answers
    return _refine(minimal_restriction_system(sigma, answers), answers)


def _refine(system: RestrictionSystem, answers: Answers) -> List[Tuple[Constraint, ...]]:
    comps = nontrivial_sccs(system.constraints, system.edges)
    if len(comps) == 1 and set(comps[0]) == set(system.constraints):
        return [comps[0]]
    return [piece for comp in comps for piece in part(comp, answers)]


def is_safely_restricted(sigma: Sequence[Constraint]) -> bool:
    system = minimal_restriction_system(sigma)
    return all(is_safe(comp) for comp in nontrivial_sccs(list(sigma), system.edges))


def is_inductively_restricted(sigma: Sequence[Constraint]) -> bool:
    return all(is_safe(piece) for piece in part(sigma))


def is_stratified(sigma: Sequence[Constraint]) -> bool:
    g = chase_graph(sigma)
    return all(is_weakly_acyclic(comp)
               for comp in nontrivial_sccs(list(sigma), g.edges))


# ---------------------------------------------------------------------------
# The full report
# ---------------------------------------------------------------------------

class AnalysisReport(NamedTuple):
    constraints: Tuple[Constraint, ...]
    weakly_acyclic: bool
    dependency_graph: PositionGraph
    dependency_cycle: Optional[Cycle]
    safe: bool
    propagation_graph: PositionGraph
    propagation_cycle: Optional[Cycle]
    stratified: bool
    chase_graph: ChaseGraph
    stratification_failures: Tuple[Tuple[Tuple[str, ...], Cycle], ...]
    safely_restricted: bool
    restriction_system: RestrictionSystem
    restriction_failures: Tuple[Tuple[Tuple[str, ...], Cycle], ...]
    inductively_restricted: bool
    parts: Tuple[Tuple[Constraint, ...], ...]
    part_failures: Tuple[Tuple[Tuple[str, ...], Cycle], ...]
    answers: Answers  # data_dependent_guarantee reuses it

    # answers is bookkeeping: equality and repr leave it out. __ne__ is
    # defined too, or tuple's own would compare it. A report has no hash:
    # its graphs' witness mappings have none.
    def __eq__(self, other):
        if other.__class__ is AnalysisReport:
            return self[:-1] == other[:-1]
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is AnalysisReport:
            return self[:-1] != other[:-1]
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"AnalysisReport({shown})"

    @property
    def accepted_by(self) -> Tuple[Rung, ...]:
        """The rungs whose check accepts the set, in ladder order."""
        return tuple(r for r in RUNGS if getattr(self, r.field))

    @property
    def terminating(self) -> bool:
        """Any rung of the ladder suffices."""
        return bool(self.accepted_by)


def _component_failures(comps, check) -> Tuple:
    failures = []
    for comp in comps:
        ok, cyc, _ = check(comp)
        if not ok:
            failures.append((tuple(c.id for c in comp), cyc))
    return tuple(failures)


def analyze(sigma: Sequence[Constraint]) -> AnalysisReport:
    """Run the whole ladder and bundle verdicts with their evidence."""
    sigma = tuple(sigma)
    check_arities([f for c in sigma for f in tuple(c.body) + tuple(c.head)])

    wa, wa_cycle, dep = weak_acyclicity(sigma)
    safe, safe_cycle, prop = safety(sigma)

    answers: Answers = {}  # one table for every rung: see "unguarded" in firing
    cg = chase_graph(sigma, answers)
    strat_failures = _component_failures(
        nontrivial_sccs(list(sigma), cg.edges), weak_acyclicity)

    system = minimal_restriction_system(sigma, answers)
    sr_failures = _component_failures(
        nontrivial_sccs(list(sigma), system.edges), safety)

    parts = tuple(_refine(system, answers))  # part(sigma), reusing system
    part_failures = _component_failures(parts, safety)

    return AnalysisReport(
        constraints=sigma,
        weakly_acyclic=wa, dependency_graph=dep, dependency_cycle=wa_cycle,
        safe=safe, propagation_graph=prop, propagation_cycle=safe_cycle,
        stratified=not strat_failures, chase_graph=cg,
        stratification_failures=strat_failures,
        safely_restricted=not sr_failures, restriction_system=system,
        restriction_failures=sr_failures,
        inductively_restricted=not part_failures, parts=parts,
        part_failures=part_failures, answers=answers)
