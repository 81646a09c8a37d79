"""End-to-end release gate.

Ten checks, one criterion per test: five golden suites pinned to exact
artifacts, then five randomized properties (order independence of the final
instance, polynomial step growth, the ladder implication chain, soundness of
instance pruning, monitor graph invariants). `pytest -v` prints one pass/fail
line per criterion.
"""

import itertools
import random
import time

import pytest

from chaseterm.chase import (
    ABORTED, ChasePolicy, K_CYCLIC, STEP_LIMIT, TERMINATED, chase,
    monitored_chase,
)
from chaseterm.dynamic import (
    THIS_INSTANCE, data_dependent_guarantee, irrelevant_constraints,
)
from chaseterm.fixtures import rotation_family
from chaseterm.model import Atom, LabeledNull, Position, hom_equivalent
from chaseterm.monitor import is_k_cyclic
from chaseterm.static import (
    analyze, is_inductively_restricted, propagation_graph,
)

from . import generators
from .conftest import monitor_steps


def P(*pairs):
    return frozenset(Position(r, i) for r, i in pairs)


def ids(constraints):
    return {c.id for c in constraints}


def assert_acyclic(G):
    adj = {}
    for e in G.edges:
        adj.setdefault(e.source, []).append(e.target)
    state = {}  # 1 on the stack, 2 done

    def visit(n):
        state[n] = 1
        for m in adj.get(n, ()):
            assert state.get(m) != 1, "monitor graph has a directed cycle"
            if m not in state:
                visit(m)
        state[n] = 2

    for n in G.nodes:
        if n not in state:
            visit(n)


# --------------------------------------------------------------------------
# Golden suites
# --------------------------------------------------------------------------

def test_c01_feedback_pair_exact_artifacts(feedback_sigma):
    started = time.perf_counter()
    rep = analyze(feedback_sigma)
    system = rep.restriction_system
    assert set(system.edges) == {("a2", "a1")}
    assert system.f["a1"] == P(("E", 1), ("E", 2))
    assert system.f["a2"] == frozenset()
    assert (rep.weakly_acyclic, rep.safe, rep.stratified,
            rep.safely_restricted, rep.inductively_restricted) == (
        False, False, False, True, True)
    assert time.perf_counter() - started < 1.0


def test_c02_generator_extension_exact_artifacts(seeded_feedback_sigma):
    rep = analyze(seeded_feedback_sigma)
    system = rep.restriction_system
    assert set(system.edges) == {
        ("a1", "a2"), ("a2", "a1"), ("a3", "a1"), ("a3", "a2")}
    full = P(("E", 1), ("E", 2), ("S", 1))
    assert system.f["a1"] == full
    assert system.f["a2"] == full
    assert not rep.safely_restricted
    assert rep.parts == ()
    assert rep.inductively_restricted


def test_c03_travel_set_and_query_bodies(travel_sigma, oneway_instance, roundtrip_instance):
    rep = analyze(travel_sigma)
    assert not rep.inductively_restricted
    assert [ids(p) for p in rep.parts] == [{"a3"}]

    ((failed_ids, cycle),) = rep.part_failures
    assert failed_ids == ("a3",)
    assert Position("fly", 2) in cycle
    assert cycle[0] == cycle[-1]
    graph = propagation_graph([c for c in travel_sigma if c.id == "a3"])
    walk = list(zip(cycle, cycle[1:]))
    assert all(e in graph.regular or e in graph.special for e in walk)
    assert any(e in graph.special for e in walk)

    limited = chase(oneway_instance, travel_sigma, ChasePolicy(max_steps=50))
    assert limited.outcome == ABORTED
    assert limited.abort_reason == STEP_LIMIT

    watched = monitored_chase(oneway_instance, travel_sigma, 3)
    assert watched.outcome == ABORTED
    assert watched.abort_reason == K_CYCLIC
    assert len(watched.steps) <= 10

    res = chase(roundtrip_instance, travel_sigma)
    assert res.outcome == TERMINATED
    expected = roundtrip_instance.facts | {
        Atom("hasAirport", (LabeledNull("x1"),)),
        Atom("hasAirport", (LabeledNull("x2"),))}
    assert res.final.facts == expected


def test_c04_query_body_pruning(travel_sigma, roundtrip_instance):
    irrelevant, relevant, _ = irrelevant_constraints(roundtrip_instance, travel_sigma)
    assert ids(irrelevant) == {"a2", "a3"}
    guarantee = data_dependent_guarantee(roundtrip_instance, analyze(travel_sigma))
    assert guarantee.level == THIS_INSTANCE
    assert ids(guarantee.relevant) == {"a1"}


def test_c05_rotation_family_sweep():
    for k in range(2, 7):
        started = time.perf_counter()
        I, sigma = rotation_family(k)
        assert not is_inductively_restricted(sigma)
        irrelevant, relevant, _ = irrelevant_constraints(I, sigma)
        assert irrelevant == ()
        assert relevant == sigma

        res = chase(I, sigma)
        assert res.outcome == TERMINATED
        assert len(res.steps) == k

        watched = monitored_chase(I, sigma, k)
        assert watched.outcome == TERMINATED
        assert watched.steps == res.steps
        assert is_k_cyclic(watched.monitor, k - 1)[0]
        assert not is_k_cyclic(watched.monitor, k)[0]

        aborted = monitored_chase(I, sigma, k - 1)
        assert aborted.outcome == ABORTED
        assert aborted.abort_reason == K_CYCLIC
        assert time.perf_counter() - started < 1.0, f"k={k} too slow"


# --------------------------------------------------------------------------
# Randomized properties
# --------------------------------------------------------------------------

def test_c06_terminal_instances_agree_up_to_homomorphism():
    policies = [ChasePolicy()] + [
        ChasePolicy(order="rand", seed=s) for s in range(1, 6)]
    for I, sigma in generators.ir_fixtures(seed=601, count=100):
        finals = []
        for policy in policies:
            res = chase(I, sigma, policy)
            assert res.outcome == TERMINATED
            finals.append(res.final)
        for left, right in itertools.combinations(finals, 2):
            assert hom_equivalent(left, right)


def test_c07_step_counts_grow_polynomially():
    rng = random.Random(701)
    for _, sigma in generators.ir_fixtures(seed=701, count=20):
        sizes, counts = [], []
        for values in (2, 4, 6, 8):
            I = generators.sized_instance(rng, values, max_facts=2 * values)
            # a clean ceiling instead of a hang if termination ever broke
            res = chase(I, sigma, ChasePolicy(max_steps=100_000))
            assert res.outcome != ABORTED, "step count exploded"
            sizes.append(len(I.facts))
            counts.append(len(res.steps))
        fits = any(
            all(c <= coeff * s ** degree for c, s in zip(counts, sizes))
            for degree in (1, 2, 3, 4) for coeff in (1, 2, 4, 8))
        assert fits, f"no small polynomial bound covers {list(zip(sizes, counts))}"


def test_c08_ladder_implications(feedback_sigma, seeded_feedback_sigma, travel_sigma):
    rng = random.Random(801)
    suites = [feedback_sigma, seeded_feedback_sigma, travel_sigma]
    suites += [list(rotation_family(k)[1]) for k in range(2, 7)]
    suites += [generators.random_constraints(rng, max_atoms=3)
               for _ in range(200)]
    for sigma in suites:
        rep = analyze(sigma)
        assert not rep.weakly_acyclic or rep.stratified
        assert not rep.safe or rep.safely_restricted
        assert not rep.safely_restricted or rep.inductively_restricted


def test_c09_pruning_is_sound_for_every_order():
    rng = random.Random(901)
    for _ in range(50):
        sigma = generators.random_constraints(rng)
        I = generators.random_instance(rng, n_constants=2)
        irrelevant, _, _ = irrelevant_constraints(I, sigma)
        fired = generators.fired_in_some_order(I, sigma, depth=8)
        assert not (ids(irrelevant) & fired), (
            f"pruned constraint fired: {ids(irrelevant) & fired}")


def test_c10_monitor_graph_invariants(travel_sigma, oneway_instance):
    runs = [(oneway_instance, travel_sigma, monitored_chase(oneway_instance, travel_sigma, 3))]
    for k in range(2, 7):
        I, sigma = rotation_family(k)
        runs.append((I, sigma, monitored_chase(I, sigma, k)))
        runs.append((I, sigma, monitored_chase(I, sigma, k - 1)))
    for I, sigma, res in runs:
        for G in monitor_steps(res.steps, sigma):
            assert_acyclic(G)
            for e in G.edges:
                assert e.source.null.creation_index < e.target.null.creation_index
            for depth in range(6, 1, -1):
                if is_k_cyclic(G, depth)[0]:
                    assert is_k_cyclic(G, depth - 1)[0]
