"""Chase step and chase run behavior.

Golden traces here are short enough to check by hand: the travel set on the
two query bodies, the S/E sets from the analysis tests, and a few tiny EGD
scenarios for merge direction and failure.
"""

import pytest

from chaseterm.chase import (
    ABORTED, FAILED, STEP_LIMIT, TERMINATED,
    ChaseFailed, ChasePolicy, _Run, chase, chase_step, apply_record,
)
from chaseterm.model import (
    Constant, Instance, LabeledNull, Position, Variable,
    egd, find_violations, hom_equivalent, instance, tgd,
)

from .conftest import A, C, N, V
from . import oracles
from .oracles import strict


def replay(initial, steps):
    current = initial
    for rec in steps:
        current = apply_record(current, rec)
    return current


class TestTgdStep:
    def test_fly_chain_step_adds_fresh_pair(self, travel_sigma, oneway_instance):
        a3 = travel_sigma[2]
        vs = find_violations(oneway_instance, a3)
        assert strict(vs) == strict([{V("X1"): N("x1"), V("X2"): N("x2"), V("Y1"): N("y2")}])
        J, rec = chase_step(oneway_instance, a3, vs[0])
        n1, n2 = LabeledNull("n1", 1), LabeledNull("n2", 2)
        assert strict(rec.added_facts) == strict({A("fly", N("x2"), n1, n2)})
        assert strict(J.facts) == strict(oneway_instance.facts | rec.added_facts)
        assert J.null_counter == 3
        assert strict(rec.fresh_nulls) == strict((
            (n1, frozenset({Position("fly", 2)})),
            (n2, frozenset({Position("fly", 3)})),
        ))
        assert rec.merged_pair is None

    def test_fresh_names_skip_taken_ones(self):
        I = instance([A("T", N("n1"))])
        t = tgd("t", [A("T", V("X"))], [A("U", V("X"), V("Y"))])
        J, rec = chase_step(I, t, {V("X"): N("n1")})
        (fresh, at), = rec.fresh_nulls
        assert strict(fresh) == strict(LabeledNull("n2", 2))
        assert at == frozenset({Position("U", 2)})
        assert A("U", N("n1"), fresh) in J.facts

    def test_head_facts_already_present_are_not_duplicated(self, travel_sigma, roundtrip_instance):
        a1 = travel_sigma[0]
        vs = find_violations(roundtrip_instance, a1)
        J, _ = chase_step(roundtrip_instance, a1, vs[0])
        assert len(J.facts) == len(roundtrip_instance.facts) + 2


class TestEgdStep:
    def test_constant_clash_raises(self):
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("Y"))
        I = instance([A("R", C("a"), C("b"))])
        with pytest.raises(ChaseFailed) as info:
            chase_step(I, e, {V("X"): C("a"), V("Y"): C("b")})
        assert info.value.clash == (C("a"), C("b"))

    def test_constant_survives_null(self):
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("Y"))
        u = N("u")
        I = instance([A("R", C("a"), u)])
        J, rec = chase_step(I, e, {V("X"): C("a"), V("Y"): u})
        assert strict(J.facts) == strict({A("R", C("a"), C("a"))})
        assert strict(rec.merged_pair) == strict((C("a"), u))
        assert u not in J.domain()

    def test_older_null_survives(self):
        e = egd("e", [A("E", V("X"), V("Y"))], V("X"), V("Y"))
        old, young = LabeledNull("u", 1), LabeledNull("v", 2)
        I = instance([A("E", young, old)])
        J, rec = chase_step(I, e, {V("X"): young, V("Y"): old})
        assert strict(rec.merged_pair) == strict((old, young))
        assert strict(J.facts) == strict({A("E", old, old)})

    def test_merge_never_grows_domain(self):
        e = egd("e", [A("E", V("X"), V("Y"))], V("X"), V("Y"))
        I = instance([A("E", N("a"), N("b")), A("E", N("b"), N("c"))])
        J, _ = chase_step(I, e, {V("X"): N("a"), V("Y"): N("b")})
        assert J.domain() < I.domain()

    def test_satisfied_equality_is_rejected(self):
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("Y"))
        I = instance([A("R", C("a"), C("a"))])
        with pytest.raises(ValueError):
            chase_step(I, e, {V("X"): C("a"), V("Y"): C("a")})


class TestDeterministicRuns:
    def test_model_needs_no_steps(self, feedback_sigma):
        I = instance([A("S", C("a")), A("E", C("a"), C("a"))])
        res = chase(I, feedback_sigma)
        assert res.outcome == TERMINATED
        assert res.steps == ()
        assert strict(res.final) == strict(I)

    def test_there_and_back_terminates_in_one_step(self, travel_sigma, roundtrip_instance):
        res = chase(roundtrip_instance, travel_sigma)
        assert res.outcome == TERMINATED
        assert len(res.steps) == 1
        assert strict(res.final.facts) == strict(roundtrip_instance.facts | {
            A("hasAirport", N("x1")), A("hasAirport", N("x2"))})

    def test_empty_start_with_generator_terminates(self, seeded_feedback_sigma):
        res = chase(instance([]), seeded_feedback_sigma)
        assert res.outcome == TERMINATED
        assert len(res.steps) == 3
        n1, n2, n3 = (LabeledNull(f"n{i}", i) for i in (1, 2, 3))
        assert strict(res.final.facts) == strict({
            A("S", n1), A("E", n1, n2), A("E", n2, n1),
            A("E", n2, n3), A("E", n3, n1)})
        for c in seeded_feedback_sigma:
            assert not oracles.bf_violations(res.final, c)

    def test_one_way_trip_runs_past_any_step_limit(self, travel_sigma, oneway_instance):
        res = chase(oneway_instance, travel_sigma, ChasePolicy(max_steps=12))
        assert res.outcome == ABORTED
        assert res.abort_reason == STEP_LIMIT
        assert len(res.steps) == 12

    def test_step_limit_zero_still_recognizes_models(self, feedback_sigma):
        I = instance([A("S", C("a")), A("E", C("a"), C("a"))])
        res = chase(I, feedback_sigma, ChasePolicy(max_steps=0))
        assert res.outcome == TERMINATED

    def test_failed_run_keeps_pre_clash_instance(self):
        t = tgd("t", [A("P", V("X"))], [A("R", V("X"), C("b"))])
        e = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                V("Y1"), V("Y2"))
        I = instance([A("P", C("a")), A("R", C("a"), C("c"))])
        res = chase(I, [t, e])
        assert res.outcome == FAILED
        assert res.clash == (C("b"), C("c"))
        assert res.failed_step == 1
        assert A("R", C("a"), C("b")) in res.final.facts

    def test_terminal_instance_satisfies_everything(self, seeded_feedback_sigma, travel_sigma, roundtrip_instance):
        for sigma, I in [(seeded_feedback_sigma, instance([])), (travel_sigma, roundtrip_instance)]:
            res = chase(I, sigma)
            assert res.outcome == TERMINATED
            for c in sigma:
                assert not oracles.bf_violations(res.final, c)


class TestRandomizedRuns:
    def test_same_seed_same_run(self, seeded_feedback_sigma):
        p = ChasePolicy(order="rand", seed=7)
        r1 = chase(instance([]), seeded_feedback_sigma, p)
        r2 = chase(instance([]), seeded_feedback_sigma, p)
        assert strict(r1) == strict(r2)

    def test_random_orders_agree_up_to_homomorphism(self, seeded_feedback_sigma):
        base = chase(instance([]), seeded_feedback_sigma)
        assert base.outcome == TERMINATED
        for seed in range(5):
            res = chase(instance([]), seeded_feedback_sigma, ChasePolicy(order="rand", seed=seed))
            assert res.outcome == TERMINATED
            assert hom_equivalent(res.final, base.final)

    def test_random_runs_respect_step_limit(self, travel_sigma, oneway_instance):
        res = chase(oneway_instance, travel_sigma,
                    ChasePolicy(order="rand", seed=3, max_steps=9))
        assert res.outcome == ABORTED
        assert len(res.steps) == 9


class TestPolicyChecks:
    # each is rejected before the first step, though the instance has
    # violations to apply
    @pytest.mark.parametrize("policy", [
        ChasePolicy(order="random"),
        ChasePolicy(max_steps=-1),
        ChasePolicy(monitor_k=0),
    ], ids=["unknown-order", "negative-step-limit", "monitor-depth-zero"])
    def test_bad_policy_raises_before_any_step(self, travel_sigma,
                                               oneway_instance, policy,
                                               monkeypatch):
        def refuse(*args):
            raise AssertionError("a step was applied")

        monkeypatch.setattr(_Run, "apply", refuse)
        with pytest.raises(ValueError):
            chase(oneway_instance, travel_sigma, policy)


class TestReplay:
    def test_records_rebuild_final_instance(self, seeded_feedback_sigma, travel_sigma, oneway_instance, roundtrip_instance):
        runs = [
            (instance([]), seeded_feedback_sigma, ChasePolicy()),
            (roundtrip_instance, travel_sigma, ChasePolicy()),
            (oneway_instance, travel_sigma, ChasePolicy(max_steps=15)),
            (instance([]), seeded_feedback_sigma, ChasePolicy(order="rand", seed=11)),
        ]
        for I, sigma, policy in runs:
            res = chase(I, sigma, policy)
            assert strict(replay(I, res.steps)) == strict(res.final)

    def test_replay_covers_merges(self):
        t = tgd("t", [A("P", V("X"))],
                [A("R", V("X"), V("Y")), A("T", V("Y"))])
        e = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                V("Y1"), V("Y2"))
        I = instance([A("P", C("a")), A("R", C("a"), N("u"))])
        res = chase(I, [t, e])
        assert res.outcome == TERMINATED
        assert any(rec.merged_pair for rec in res.steps)
        assert strict(replay(I, res.steps)) == strict(res.final)

    def test_records_are_numbered_in_run_order(self, travel_sigma, oneway_instance):
        t = tgd("t", [A("P", V("X"))],
                [A("R", V("X"), V("Y")), A("T", V("Y"))])
        e = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                V("Y1"), V("Y2"))
        runs = [chase(instance([A("P", C("a")), A("R", C("a"), N("u"))]), [t, e]),
                chase(oneway_instance, travel_sigma, ChasePolicy(max_steps=7))]
        for res in runs:
            assert [rec.index for rec in res.steps] == list(range(len(res.steps)))
        # a lone step is not part of a run
        _, rec = chase_step(oneway_instance, travel_sigma[2],
                            find_violations(oneway_instance, travel_sigma[2])[0])
        assert rec.index == 0


class TestFreshness:
    def test_created_nulls_are_globally_fresh(self, travel_sigma, oneway_instance):
        res = chase(oneway_instance, travel_sigma, ChasePolicy(max_steps=10))
        seen = set(oneway_instance.null_names())
        indices = []
        for rec in res.steps:
            for n, at in rec.fresh_nulls:
                assert n.name not in seen
                assert n.name == f"n{n.creation_index}"
                assert at
                seen.add(n.name)
                indices.append(n.creation_index)
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))
