"""Chase engine for TGDs and EGDs plus termination analysis.

The public surface re-exports the model vocabulary, the chase itself, the
static condition ladder, the data-dependent tools and the text frontend.
"""

from chaseterm.chase import (
    ABORTED, FAILED, TERMINATED, ChasePolicy, ChaseResult, ChaseStepRecord,
    apply_record, chase, chase_step, monitored_chase,
)
from chaseterm.dynamic import (
    TerminationGuarantee, constraint_from_instance, data_dependent_guarantee,
    irrelevant_constraints,
)
from chaseterm.firing import (
    PRECEDES, PRECEDES_P, ChaseGraph, Witness, can_cause, chase_graph,
)
from chaseterm.model import (
    Atom, Constant, Constraint, Instance, LabeledNull, ModelError, Position,
    Variable, egd, find_homomorphism, find_violations, hom_equivalent,
    instance, instantiate, satisfies, tgd,
)
from chaseterm.monitor import MonitorGraph, is_k_cyclic
from chaseterm.static import (
    AnalysisReport, analyze, is_inductively_restricted, is_safe,
    is_safely_restricted, is_stratified, is_weakly_acyclic, part,
)
from chaseterm.syntax import (
    ParseError, parse_constraints, parse_instance, print_constraints,
    print_instance,
)

__all__ = [
    "ABORTED", "FAILED", "TERMINATED",
    "AnalysisReport", "Atom", "ChaseGraph", "ChasePolicy", "ChaseResult",
    "ChaseStepRecord", "Constant", "Constraint", "Instance", "LabeledNull",
    "ModelError", "MonitorGraph", "ParseError", "Position", "PRECEDES",
    "PRECEDES_P", "TerminationGuarantee", "Variable", "Witness",
    "analyze", "apply_record", "can_cause", "chase",
    "chase_graph", "chase_step", "constraint_from_instance",
    "data_dependent_guarantee",
    "egd", "find_homomorphism", "find_violations", "hom_equivalent",
    "instance", "instantiate", "irrelevant_constraints",
    "is_inductively_restricted", "is_k_cyclic", "is_safe",
    "is_safely_restricted", "is_stratified", "is_weakly_acyclic",
    "monitored_chase", "parse_constraints", "parse_instance", "part",
    "print_constraints", "print_instance", "satisfies", "tgd",
]
