"""Data-dependent termination: pruning a constraint set against an instance.

The instance itself becomes a body-less TGD (alpha_I) whose head asserts the
instance up to null renaming. Constraints not reachable from alpha_I in the
firing graph, or from a body-less constraint the instance leaves violated,
can never fire in any chase of that instance, so termination only depends on
the reachable ones. The firing graph is firing.chase_graph over sigma plus
alpha_I. The check is sound but necessarily incomplete: unreachable means
irrelevant, reachable proves nothing. data_dependent_guarantee takes
analyze's report on the set: it reads the verdict and parts there and, over
the report's firing table, searches only the pairs of alpha_I.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from chaseterm.firing import Answers, ChaseGraph, chase_graph
from chaseterm.graphs import reachable_from
from chaseterm.model import (
    Atom, Constraint, Instance, LabeledNull, ModelError, Variable, fact_key,
    find_violations, tgd,
)
from chaseterm.static import AnalysisReport, is_safe, part

ALPHA_I = "alpha_I"

ALL_INSTANCES = "AllInstances"
THIS_INSTANCE = "ThisInstance"
NO_GUARANTEE = "None"


def constraint_from_instance(I: Instance) -> Constraint:
    """The body-less TGD asserting I: nulls become distinct existential
    variables, constants stay parameters."""
    if not I.facts:
        raise ModelError("cannot build alpha_I from an empty instance")
    head = []
    for f in sorted(I.facts, key=fact_key):
        args = tuple(Variable(t.name) if isinstance(t, LabeledNull) else t
                     for t in f.args)
        head.append(Atom(f.relation, args))
    return tgd(ALPHA_I, [], head)


def irrelevant_constraints(I: Instance, sigma: Sequence[Constraint],
                           answers: Optional[Answers] = None,
                           ) -> Tuple[Tuple[Constraint, ...], Tuple[Constraint, ...], ChaseGraph]:
    """Split sigma into (irrelevant, relevant) for chasing I, with the graph
    as evidence. Relevant means reachable from alpha_I or from a body-less
    constraint that I leaves violated. Queries go through answers.

    The extra roots matter: a body-less constraint violated by I fires with
    no predecessor (it was violated before alpha_I ran, so no edge reaches
    it), while one satisfied by I stays satisfied forever, since steps only
    add facts or rename nulls away."""
    alpha = constraint_from_instance(I)
    g = chase_graph(tuple(sigma) + (alpha,), answers)
    roots = [ALPHA_I] + [c.id for c in sigma
                         if not c.body and find_violations(I, c)]
    reached = reachable_from(roots, g.edges)
    relevant = tuple(c for c in sigma if c.id in reached and c.id != ALPHA_I)
    irrelevant = tuple(c for c in sigma if c not in relevant)
    return irrelevant, relevant, g


class TerminationGuarantee(NamedTuple):
    """What the static ladder still guarantees once the instance is fixed."""

    level: str                                # AllInstances / ThisInstance / None
    relevant: Tuple[Constraint, ...]
    irrelevant: Tuple[Constraint, ...]
    chase_graph: Optional[ChaseGraph]
    parts: Tuple[Tuple[Constraint, ...], ...]  # decomposition behind the verdict


def data_dependent_guarantee(I: Instance, report: AnalysisReport,
                             ) -> TerminationGuarantee:
    """AllInstances when report, analyze's on sigma, finds sigma inductively
    restricted; ThisInstance when the subset relevant to I is; None otherwise."""
    sigma, answers = report.constraints, report.answers
    if report.inductively_restricted:
        return TerminationGuarantee(ALL_INSTANCES, sigma, (), None, report.parts)
    if I.facts:
        irrelevant, relevant, g = irrelevant_constraints(I, sigma, answers)
    else:
        irrelevant, relevant, g = (), sigma, None
    pieces = report.parts if relevant == sigma else tuple(part(relevant, answers))
    level = THIS_INSTANCE if all(map(is_safe, pieces)) else NO_GUARANTEE
    return TerminationGuarantee(level, relevant, irrelevant, g, pieces)
