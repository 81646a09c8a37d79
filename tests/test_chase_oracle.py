"""The indexed, semi-naive chase against the full-rescan engine it replaced.

tests.oracles.ref_chase is the chase loop as it was before the run-scoped
index: every step rescans every constraint over a freshly grouped instance
and rebuilds the instance. Every run here must agree with it exactly, with
nulls compared by name and creation index: the same step records, outcome,
abort data and final instance.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chaseterm.chase import (
    TERMINATED, ChasePolicy, ChaseResult, ChaseStepRecord, chase,
)
from chaseterm.firing import Witness
from chaseterm.fixtures import rotation_family
from chaseterm.model import Instance, egd, instance, tgd

from .conftest import A, C, N, V
from . import generators, oracles
from .oracles import strict


def policies(max_steps):
    """det, det under the monitor, and rand with seeds 0-4."""
    return ([ChasePolicy(max_steps=max_steps),
             ChasePolicy(max_steps=max_steps, monitor_k=3)]
            + [ChasePolicy(order="rand", seed=s, max_steps=max_steps)
               for s in range(5)])


def assert_same_runs(I, sigma, max_steps=40):
    for policy in policies(max_steps):
        got = chase(I, sigma, policy)
        want = oracles.ref_chase(I, sigma, policy)
        assert strict(got) == strict(want), policy


def test_strict_sees_creation_indices_inside_atoms():
    # equality drops a null's creation index, inside an atom too
    f1, f2 = A("R", N("n", 1), C("c")), A("R", N("n", 2), C("c"))
    assert f1 == f2
    assert strict(f1) != strict(f2)
    assert strict(instance([f1])) != strict(instance([f2]))
    assert strict(A("R", V("n"))) != strict(A("R", C("n")))


def test_strict_sees_creation_indices_inside_records():
    # two records that differ only in a null's creation index are equal,
    # and strict tells them apart; it names the record class too
    def record(idx):
        n = N("n", idx)
        I = Instance(frozenset({A("R", n)}), 3)
        step = ChaseStepRecord(0, "c", (("X", n),), frozenset(), None, ())
        w = Witness("c", "d", I, (("X", n),), (("X", n),), I)
        return step, w, ChaseResult(TERMINATED, I, (step,))

    for r1, r2 in zip(record(1), record(2)):
        assert r1 == r2
        assert strict(r1) != strict(r2)
        assert strict(r1)[0] == type(r1).__name__


def test_travel_fixtures(travel_sigma, oneway_instance, roundtrip_instance):
    assert_same_runs(oneway_instance, travel_sigma)
    assert_same_runs(roundtrip_instance, travel_sigma)


def test_feedback_fixtures(feedback_sigma, seeded_feedback_sigma):
    I = instance([A("S", C("a")), A("E", C("a"), N("u", 1)), A("E", N("u", 1), C("b"))])
    assert_same_runs(I, feedback_sigma)
    assert_same_runs(instance([]), seeded_feedback_sigma)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_rotation_fixtures(k):
    I, sigma = rotation_family(k)
    assert_same_runs(I, sigma)


def test_ir_fixtures():
    for I, sigma in generators.ir_fixtures(seed=7, count=12):
        assert_same_runs(I, sigma)


def test_fresh_nulls_reuse_a_name_a_merge_freed():
    # the counter starts at 4; the merge frees n6 (n5 has the smaller
    # creation index), so fresh nulls skip n5 and n7 but take n6
    x, y, z = V("X"), V("Y"), V("Z")
    sigma = [egd("q", [A("R", x, y), A("R", x, z)], y, z),
             tgd("g", [A("S", x)], [A("T", x, y)])]
    I = instance([A("R", C("a"), N("n5", 1)), A("R", C("a"), N("n6", 2)),
                  A("T", N("n7", 3), N("n7", 3))]
                 + [A("S", C(f"c{i}")) for i in range(4)])
    assert_same_runs(I, sigma)
    res = chase(I, sigma)
    fresh = [strict(n) for rec in res.steps for n, _ in rec.fresh_nulls]
    assert fresh == [("null", "n4", 4), ("null", "n6", 6),
                     ("null", "n8", 8), ("null", "n9", 9)]


def test_a_consumer_of_a_reused_null_name_fires_in_order():
    # The merge frees n6@2 while T(n6@2) is a pending violation of h; it is
    # renamed to T(n5@1). g then creates n3@3, n4@4 and n6@6. The pending
    # entry left behind for T(n6@2) must not be read as T(n6@6), which
    # fires after T(n3) and T(n4).
    x, y, z = V("X"), V("Y"), V("Z")
    sigma = [egd("q", [A("R", x, y), A("R", x, z)], y, z),
             tgd("h", [A("T", x)], [A("U", x)]),
             tgd("g", [A("S", x)], [A("P", x, y), A("T", y)])]
    I = instance([A("R", C("a"), N("n5", 1)), A("R", C("a"), N("n6", 2)),
                  A("T", N("n6", 2))]
                 + [A("T", C(f"c{i}")) for i in range(10)]
                 + [A("S", C(f"d{i}")) for i in range(3)])
    assert_same_runs(I, sigma)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_sets_and_instances(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(
        rng, max_constraints=4, egd_rate=rng.choice([0.25, 0.75]))
    names = [f"n{k}" for k in rng.sample(range(1, 9), 3)]
    I = generators.random_instance(rng, n_constants=rng.randint(1, 2),
                                   null_names=names)
    # a shorter run: the reference engine's full rescans make some of these
    # sets take seconds at 40 steps
    assert_same_runs(I, sigma, max_steps=20)
