"""Ladder checks against hand-worked graphs for the three recurring sets."""

import random

import pytest

from chaseterm import firing
from chaseterm.firing import verify_witness
from chaseterm.model import EGD, TGD, ModelError, Position, egd, tgd
from chaseterm.reports import analysis_report
from chaseterm.static import (
    aff_cl, affected_positions, analyze, dependency_graph,
    is_inductively_restricted, is_safe, is_safely_restricted, is_stratified,
    is_weakly_acyclic, minimal_restriction_system, nontrivial_sccs, part,
    propagation_graph, safety, weak_acyclicity,
)

from . import generators, oracles
from .conftest import A, V, count_searches
from .oracles import strict


def P(*pairs):
    return frozenset(Position(r, i) for r, i in pairs)


class TestAffectedPositions:
    def test_mutual_edge_set(self, feedback_sigma):
        assert affected_positions(feedback_sigma) == P(("E", 1), ("E", 2))

    def test_with_generator(self, seeded_feedback_sigma):
        assert affected_positions(seeded_feedback_sigma) == P(("S", 1), ("E", 1), ("E", 2))

    def test_travel_set(self, travel_sigma):
        assert affected_positions(travel_sigma) == P(
            ("fly", 1), ("fly", 2), ("fly", 3), ("hasAirport", 1))

    def test_egds_contribute_nothing(self, feedback_sigma):
        e = egd("e", [A("E", V("X"), V("Y")), A("E", V("X"), V("Z"))],
                V("Y"), V("Z"))
        assert (affected_positions(feedback_sigma + [e])
                == affected_positions(feedback_sigma))

    def test_agrees_with_closure_oracle(self, feedback_sigma, seeded_feedback_sigma, travel_sigma):
        for sigma in (feedback_sigma, seeded_feedback_sigma, travel_sigma):
            assert affected_positions(sigma) == oracles.affected_oracle(sigma)


class TestAffectedClosure:
    def test_existential_positions_always_in(self, travel_sigma):
        a3 = travel_sigma[2]
        assert aff_cl(a3, frozenset()) == P(("fly", 2), ("fly", 3))

    def test_guarded_universal_joins(self, travel_sigma):
        a3 = travel_sigma[2]
        assert aff_cl(a3, P(("fly", 2))) == P(("fly", 1), ("fly", 2), ("fly", 3))

    def test_no_existentials_empty_guard(self, feedback_sigma):
        a1 = feedback_sigma[0]
        assert aff_cl(a1, frozenset()) == frozenset()

    def test_existential_wins_over_unguarded_universal(self, feedback_sigma):
        # E^2 holds both z (existential) and x (unguarded universal); a null
        # can land there through z regardless of x.
        a2 = feedback_sigma[1]
        assert aff_cl(a2, P(("E", 1), ("E", 2))) == P(("E", 1), ("E", 2))
        assert aff_cl(a2, frozenset()) == P(("E", 1), ("E", 2))

    def test_rejects_egds(self):
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("Y"))
        with pytest.raises(ValueError):
            aff_cl(e, frozenset())


class TestPositionGraphs:
    def test_mutual_dependency_edges(self, feedback_sigma):
        g = dependency_graph(feedback_sigma)
        assert set(g.nodes) == P(("S", 1), ("E", 1), ("E", 2))
        assert set(g.regular) == {
            (Position("S", 1), Position("E", 2)),
            (Position("E", 1), Position("E", 2)),
            (Position("E", 2), Position("E", 1)),
        }
        assert set(g.special) == {
            (Position("S", 1), Position("E", 1)),
            (Position("S", 1), Position("E", 2)),
            (Position("E", 1), Position("E", 1)),
            (Position("E", 1), Position("E", 2)),
            (Position("E", 2), Position("E", 1)),
            (Position("E", 2), Position("E", 2)),
        }

    def test_mutual_propagation_edges(self, feedback_sigma):
        g = propagation_graph(feedback_sigma)
        assert set(g.nodes) == P(("E", 1), ("E", 2))
        assert set(g.regular) == {(Position("E", 2), Position("E", 1))}
        assert set(g.special) == {
            (Position("E", 2), Position("E", 1)),
            (Position("E", 2), Position("E", 2)),
        }

    def test_cycle_witness_is_closed_and_special(self, feedback_sigma):
        ok, cyc, g = weak_acyclicity(feedback_sigma)
        assert not ok
        assert cyc[0] == cyc[-1]
        steps = list(zip(cyc, cyc[1:]))
        assert all(e in set(g.edges) for e in steps)
        assert any(e in set(g.special) for e in steps)

    def test_safety_cycle_witness(self, feedback_sigma):
        ok, cyc, g = safety(feedback_sigma)
        assert not ok
        steps = list(zip(cyc, cyc[1:]))
        assert any(e in set(g.special) for e in steps)

    def test_no_existentials_is_weakly_acyclic(self, feedback_sigma):
        assert is_weakly_acyclic([feedback_sigma[0]])
        assert is_safe([feedback_sigma[0]])

    def test_travel_set_unsafe_self_loop(self, travel_sigma):
        g = dependency_graph(travel_sigma)
        assert (Position("fly", 2), Position("fly", 2)) in set(g.special)
        assert not is_weakly_acyclic(travel_sigma)
        assert not is_safe(travel_sigma)

    def test_benign_copy_cycle_is_regular_only(self):
        # rail symmetry loops rail^1 <-> rail^2 but creates no nulls
        a2 = tgd("a2", [A("rail", V("X1"), V("X2"), V("Y"))],
                 [A("rail", V("X2"), V("X1"), V("Y"))])
        assert is_weakly_acyclic([a2])
        assert is_safe([a2])


class TestRestrictionSystem:
    def test_mutual_set_system(self, feedback_sigma):
        s = minimal_restriction_system(feedback_sigma)
        assert s.edges == (("a2", "a1"),)
        assert s.f["a1"] == P(("E", 1), ("E", 2))
        assert s.f["a2"] == frozenset()

    def test_generator_set_system(self, seeded_feedback_sigma):
        s = minimal_restriction_system(seeded_feedback_sigma)
        assert s.edges == (("a1", "a2"), ("a2", "a1"), ("a3", "a1"), ("a3", "a2"))
        assert s.f["a1"] == P(("S", 1), ("E", 1), ("E", 2))
        assert s.f["a2"] == P(("S", 1), ("E", 1), ("E", 2))
        assert s.f["a3"] == frozenset()

    def test_travel_set_system(self, travel_sigma):
        s = minimal_restriction_system(travel_sigma)
        assert s.edges == (("a3", "a1"), ("a3", "a3"))
        assert s.f["a1"] == P(("fly", 1), ("fly", 2), ("fly", 3))
        assert s.f["a3"] == P(("fly", 1), ("fly", 2), ("fly", 3))
        assert s.f["a2"] == frozenset()

    def test_witnesses_replay(self, seeded_feedback_sigma):
        s = minimal_restriction_system(seeded_feedback_sigma)
        by_id = {c.id: c for c in seeded_feedback_sigma}
        for (aid, bid), w in s.witnesses.items():
            assert verify_witness(by_id[aid], by_id[bid], w, s.f[aid])


class TestPart:
    def test_mutual_set_empty(self, feedback_sigma):
        assert part(feedback_sigma) == []

    def test_generator_set_empty(self, seeded_feedback_sigma):
        # the single component {a1, a2} refines to nothing: its own system
        # has just the a2 -> a1 edge
        assert part(seeded_feedback_sigma) == []

    def test_travel_set_isolates_flight_rule(self, travel_sigma):
        pieces = part(travel_sigma)
        assert [[c.id for c in piece] for piece in pieces] == [["a3"]]

    def test_whole_set_single_component(self):
        # two rules that fire each other with growing guards keep the set
        # as its own component
        t1 = tgd("t1", [A("R", V("X"))], [A("T", V("X"), V("Y"))])
        t2 = tgd("t2", [A("T", V("X"), V("Y"))], [A("R", V("Y"))])
        pieces = part([t1, t2])
        assert [[c.id for c in piece] for piece in pieces] == [["t1", "t2"]]


class TestLadder:
    def test_mutual_set_verdicts(self, feedback_sigma):
        assert not is_weakly_acyclic(feedback_sigma)
        assert not is_safe(feedback_sigma)
        assert not is_stratified(feedback_sigma)
        assert is_safely_restricted(feedback_sigma)
        assert is_inductively_restricted(feedback_sigma)

    def test_generator_set_verdicts(self, seeded_feedback_sigma):
        assert not is_safely_restricted(seeded_feedback_sigma)
        assert is_inductively_restricted(seeded_feedback_sigma)

    def test_travel_set_fails_everywhere(self, travel_sigma):
        assert not is_weakly_acyclic(travel_sigma)
        assert not is_safe(travel_sigma)
        assert not is_stratified(travel_sigma)
        assert not is_safely_restricted(travel_sigma)
        assert not is_inductively_restricted(travel_sigma)

    def test_acyclic_set_passes_everywhere(self):
        t = tgd("t", [A("R", V("X"))], [A("T", V("X"), V("Y"))])
        for check in (is_weakly_acyclic, is_safe, is_stratified,
                      is_safely_restricted, is_inductively_restricted):
            assert check([t])


class TestAnalyze:
    def test_travel_report(self, travel_sigma):
        r = analyze(travel_sigma)
        assert not r.terminating
        assert not r.weakly_acyclic and not r.safe
        assert not r.stratified and not r.safely_restricted
        assert not r.inductively_restricted
        assert [ids for ids, _ in r.part_failures] == [("a3",)]
        assert r.dependency_cycle is not None
        assert r.restriction_system.edges == (("a3", "a1"), ("a3", "a3"))
        assert set(r.chase_graph.edges) == {("a3", "a1"), ("a3", "a3")}

    def test_generator_report(self, seeded_feedback_sigma):
        r = analyze(seeded_feedback_sigma)
        assert r.terminating
        assert not r.stratified
        assert not r.safely_restricted
        assert r.inductively_restricted
        assert r.parts == ()
        assert r.restriction_failures and not r.part_failures
        assert [ids for ids, _ in r.restriction_failures] == [("a1", "a2")]

    def test_mutual_report(self, feedback_sigma):
        r = analyze(feedback_sigma)
        assert r.terminating
        assert r.safely_restricted and r.inductively_restricted
        assert [ids for ids, _ in r.stratification_failures] == [("a1", "a2")]

    def test_arity_clash_rejected(self):
        # each constraint is internally consistent; the clash is across them
        t1 = tgd("t1", [A("R", V("X"))], [A("T", V("X"))])
        t2 = tgd("t2", [A("R", V("X"), V("Y"))], [A("T", V("X"))])
        with pytest.raises(ModelError):
            analyze([t1, t2])


    def test_repeated_ids_rejected(self):
        # graphs key their nodes by id: as one node, the two rules below
        # would pass every rung, though the first alone does not terminate
        x, y, z = V("X"), V("Y"), V("Z")
        sigma = [tgd("a", [A("E", x, y)], [A("E", y, z)]),
                 tgd("a", [A("S", x)], [A("T", x)])]
        assert not analyze(sigma[:1]).terminating
        for check in (analyze, firing.chase_graph, minimal_restriction_system):
            with pytest.raises(ModelError, match="share the id 'a'"):
                check(sigma)


class TestComponentOrdering:
    def test_components_sorted_by_smallest_id(self):
        # two disjoint self-firing rules give two singleton components
        t1 = tgd("b", [A("R", V("X"), V("Y"))], [A("R", V("Y"), V("Z"))])
        t2 = tgd("a", [A("S", V("X"), V("Y"))], [A("S", V("Y"), V("Z"))])
        s = minimal_restriction_system([t1, t2])
        comps = nontrivial_sccs([t1, t2], s.edges)
        assert [[c.id for c in comp] for comp in comps] == [["a"], ["b"]]


class TestNoStateOutlivesAnAnalysis:
    def test_second_analysis_searches_as_much_as_the_first(
            self, travel_sigma, seeded_feedback_sigma, monkeypatch):
        searched = count_searches(monkeypatch)
        for sigma in (travel_sigma, seeded_feedback_sigma):
            counts = []
            for _ in range(2):
                before = len(searched)
                analyze(sigma)
                counts.append(len(searched) - before)
            assert counts[0] == counts[1] > 0, sigma


class TestWitnessesOnDemand:
    def test_bare_check_builds_no_witness(
            self, travel_sigma, feedback_sigma, seeded_feedback_sigma,
            monkeypatch):
        # the rungs read edges alone, and every edge, a TGD's or an EGD's,
        # comes from its existence check
        enumerated = count_searches(monkeypatch, ("_enumerate",))
        rng = random.Random("on-demand/bare")
        sets = [travel_sigma, feedback_sigma, seeded_feedback_sigma] + [
            generators.random_constraints(rng, egd_rate=0.5) for _ in range(30)]
        edges = {TGD: 0, EGD: 0}
        for sigma in sets:
            is_inductively_restricted(sigma)
            assert enumerated == [], sigma
            by_id = {c.id: c for c in sigma}
            for aid, _ in minimal_restriction_system(sigma).edges:
                edges[by_id[aid].kind] += 1
        assert edges[TGD] and edges[EGD]
        assert enumerated == []


class TestWideDraw:
    def test_the_set_with_the_long_guarded_no_is_decided_unenumerated(
            self, monkeypatch):
        # its EGD r4 has no edge to r2 under a three-position guard, which
        # the canonical enumeration takes more than 15 minutes to establish
        sigma = generators.wide_sets()[4]
        enumerated = count_searches(monkeypatch, ("_enumerate",))
        report = analyze(sigma)
        assert enumerated == []
        r2, r4 = sigma[1], sigma[3]
        assert [len(P) for (a, b, P, _), w in report.answers.items()
                if (a, b) == (r4, r2) and w is None] == [0, 3]
        payload = analysis_report(report)
        assert payload["inductively_restricted"] == report.inductively_restricted


class TestWidthFamily:
    # The body cycle holds E(X1, X2), which satisfies the head E(X1, Y), so
    # the wide rule never fires: there is no firing edge, and every rung
    # from stratification up accepts.
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_verdicts(self, n):
        r = analyze(generators.width_family(n))
        assert not r.weakly_acyclic and not r.safe
        assert r.stratified and r.safely_restricted and r.inductively_restricted
        assert r.chase_graph.edges == () and r.restriction_system.edges == ()

    # the unpruned search takes seconds from width 5 on
    @pytest.mark.parametrize("n", [3, 4])
    def test_report_matches_unpruned_search(self, n, monkeypatch):
        sigma = generators.width_family(n)
        got = strict(analyze(sigma))
        monkeypatch.setattr(firing, "_exists", oracles.ref_search)
        assert got == strict(analyze(sigma))
