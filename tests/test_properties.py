"""Randomized invariants across the pipeline.

Every test draws one integer seed and rebuilds its fixture through
tests.generators, so hypothesis steers coverage while any failure reproduces
from the printed seed alone. Shapes stay tiny on purpose: breadth over load.
"""

import random

from hypothesis import given, settings, strategies as st

from chaseterm.chase import (
    ChaseFailed, ChasePolicy, apply_record, chase, chase_step,
    monitored_chase,
)
from chaseterm.dynamic import constraint_from_instance
from chaseterm.firing import PRECEDES, PRECEDES_P, can_cause, verify_witness
from chaseterm.model import (
    TGD, LabeledNull, fact_key, find_violations, instance, match_conjunction,
    satisfies,
)
from chaseterm.monitor import edge_class, is_k_cyclic
from chaseterm.static import affected_positions, analyze, part
from chaseterm.syntax import (
    ConstraintDocument, parse_constraints, parse_instance, print_constraints,
    print_instance,
)

from . import generators, oracles
from .conftest import monitor_steps

seeds = st.integers(min_value=0, max_value=2**32 - 1)
FAST = settings(max_examples=40, deadline=None)
SLOW = settings(max_examples=15, deadline=None)


@FAST
@given(seeds)
def test_constraint_text_roundtrip(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng)
    text = print_constraints(ConstraintDocument(tuple(sigma)))
    assert list(parse_constraints(text).constraints) == sigma


@FAST
@given(seeds)
def test_instance_text_roundtrip(seed):
    rng = random.Random(seed)
    I = generators.random_instance(rng, n_constants=2)
    assert parse_instance(print_instance(I)).facts == I.facts


@FAST
@given(seeds)
def test_recorded_steps_replay_to_final(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng)
    I = generators.random_instance(rng, n_constants=2)
    res = chase(I, sigma, ChasePolicy(max_steps=30))
    assert [rec.index for rec in res.steps] == list(range(len(res.steps)))
    # on failure the clashing step is unrecorded and final is the instance
    # reached just before it, so the fold lands on final either way
    current = I
    for rec in res.steps:
        current = apply_record(current, rec)
    assert current == res.final


@FAST
@given(seeds)
def test_random_order_reproducible(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng)
    I = generators.random_instance(rng, n_constants=2)
    policy = ChasePolicy(order="rand", seed=seed % 1000, max_steps=30)
    first = chase(I, sigma, policy)
    second = chase(I, sigma, policy)
    assert first == second


@FAST
@given(seeds)
def test_tgd_only_chase_extends_instance(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, allow_egds=False)
    I = generators.random_instance(rng, n_constants=2)
    res = chase(I, sigma, ChasePolicy(max_steps=30))
    assert I.facts <= res.final.facts  # no merges, so facts only accumulate


@FAST
@given(seeds)
def test_found_witnesses_verify(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng)
    for alpha in sigma:
        for beta in sigma:
            for mode in (PRECEDES, PRECEDES_P):
                w = can_cause(alpha, beta, mode=mode)
                if w is not None:
                    assert verify_witness(alpha, beta, w, mode=mode)


@FAST
@given(seeds)
def test_a_step_keeps_bodyless_constraints_satisfied(seed):
    # why firing settles a body-less target at once: a step maps I into J
    # by a homomorphism, so a body-less constraint that holds in I holds in J
    rng = random.Random(seed)
    I = generators.random_instance(rng, n_constants=2)
    facts = sorted(I.facts, key=fact_key)
    betas = [constraint_from_instance(
        instance(rng.sample(facts, rng.randint(1, len(facts)))))]
    for _ in range(3):
        other = generators.random_instance(rng, max_facts=3, n_constants=2)
        betas.append(constraint_from_instance(other))
    betas = [beta for beta in betas if satisfies(I, beta, {})]
    for alpha in generators.random_constraints(rng, egd_rate=0.5):
        for a in find_violations(I, alpha):
            try:
                J, _ = chase_step(I, alpha, a)
            except ChaseFailed:
                continue
            for beta in betas:
                assert satisfies(J, beta, {}), (alpha, a, beta)


@FAST
@given(seeds)
def test_a_step_keeps_old_satisfied_triggers_satisfied(seed):
    # why firing skips a trigger whose body image lies in I: the step maps
    # I into J by a homomorphism that fixes every value but the loser
    rng = random.Random(seed)
    I = generators.random_instance(rng, n_constants=2)
    betas = generators.random_constraints(rng, egd_rate=0.5)
    for alpha in generators.random_constraints(rng, egd_rate=0.5):
        for a in find_violations(I, alpha):
            try:
                J, rec = chase_step(I, alpha, a)
            except ChaseFailed:
                continue
            loser = rec.merged_pair[1] if rec.merged_pair else None
            for beta in betas:
                for b in match_conjunction(beta.body, I):
                    if loser in b.values() or not satisfies(I, beta, b):
                        continue
                    assert satisfies(J, beta, b), (alpha, a, beta, b)


@FAST
@given(seeds)
def test_part_pieces_are_disjoint(seed):
    # SCCs partition a set and each refinement stays inside one component
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, 4, 3)
    ids = [c.id for piece in part(sigma) for c in piece]
    assert len(ids) == len(set(ids))
    assert set(ids) <= {c.id for c in sigma}


@FAST
@given(seeds)
def test_every_accepting_rung_implies_inductive_restriction(seed):
    # termcheck accepts a set on any rung, data_dependent_guarantee on
    # inductive restriction alone; they agree because the two coincide
    rng = random.Random(seed)
    report = analyze(generators.random_constraints(rng, max_atoms=3))
    assert report.terminating == report.inductively_restricted


@FAST
@given(seeds)
def test_affected_positions_match_oracle(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng)
    assert affected_positions(sigma) == oracles.affected_oracle(sigma)


@SLOW
@given(seeds)
def test_monitor_edges_point_forward(seed):
    # every edge leaves an older null for a newer one, so the graph is a DAG
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, allow_egds=False)
    I = generators.random_instance(rng)
    res = monitored_chase(I, sigma, 3, ChasePolicy(max_steps=25))
    for G in monitor_steps(res.steps, sigma):
        for e in G.edges:
            assert e.source.null.creation_index < e.target.null.creation_index


@SLOW
@given(seeds)
def test_monitor_chains_are_consecutive_same_class_paths(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, allow_egds=False)
    I = generators.random_instance(rng)
    G = monitored_chase(I, sigma, 3, ChasePolicy(max_steps=25)).monitor
    for (node, cls), chain in G.chains.items():
        assert chain[-1].target == node
        assert {edge_class(e) for e in chain} == {cls}
        for prev, nxt in zip(chain, chain[1:]):
            assert prev.target == nxt.source
        assert len({e for e in chain}) == len(chain)


@SLOW
@given(seeds)
def test_cyclicity_is_monotone_along_a_run(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, allow_egds=False)
    I = generators.random_instance(rng)
    res = chase(I, sigma, ChasePolicy(max_steps=25))
    seen = False
    for G in monitor_steps(res.steps, sigma):
        hit, chain = is_k_cyclic(G, 2)
        assert not (seen and not hit)  # once 2-cyclic, stays 2-cyclic
        seen = hit
        if hit:
            assert len(chain) == 2
            # a witness at depth k contains one at every smaller depth
            assert is_k_cyclic(G, 1)[0]


@FAST
@given(seeds)
def test_fresh_nulls_are_new_names(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, allow_egds=False)
    I = generators.random_instance(rng)
    res = chase(I, sigma, ChasePolicy(max_steps=30))
    current = I
    for rec in res.steps:
        if rec.constraint_id in {c.id for c in sigma if c.kind == TGD}:
            before = current.null_names()
            for n, _ in rec.fresh_nulls:
                assert isinstance(n, LabeledNull)
                assert n.name not in before
        current = apply_record(current, rec)
