"""Firing-relation goldens.

The S/E pair and the travel set have fully hand-checked firing relations;
the EGD scenarios exercise the merge pre-image search.
"""

import random

import pytest

from chaseterm import firing, static
from chaseterm.chase import chase_step
from chaseterm.dynamic import constraint_from_instance
from chaseterm.firing import (
    PRECEDES, PRECEDES_P, Witness, can_cause, verify_witness,
)
from chaseterm.model import (
    Instance, LabeledNull, Position, egd, instance, position_key, tgd,
)
from chaseterm.syntax import parse_constraints

from . import generators, oracles
from .conftest import A, C, N, V, count_searches
from .oracles import strict


def P(*pairs):
    return frozenset(Position(rel, idx) for rel, idx in pairs)


class TestGuardedMode:
    def test_existential_rule_enables_flip_rule(self, feedback_sigma):
        a1, a2 = feedback_sigma
        w = can_cause(a2, a1, frozenset(), PRECEDES_P)
        assert w is not None
        assert verify_witness(a2, a1, w, frozenset(), PRECEDES_P)

    def test_flip_rule_enables_nothing_on_its_closure(self, feedback_sigma):
        a1, a2 = feedback_sigma
        closure = P(("E", 1), ("E", 2))
        assert can_cause(a1, a1, closure, PRECEDES_P) is None
        assert can_cause(a1, a2, closure, PRECEDES_P) is None

    def test_existential_rule_does_not_enable_itself(self, feedback_sigma):
        a1, a2 = feedback_sigma
        assert can_cause(a2, a2, frozenset(), PRECEDES_P) is None

    def test_flip_rule_fires_nothing_without_null_positions(self, feedback_sigma):
        a1, a2 = feedback_sigma
        assert can_cause(a1, a2, frozenset(), PRECEDES_P) is None

    def test_flip_rule_enables_existential_rule_on_full_closure(self, feedback_sigma):
        a1, a2 = feedback_sigma
        closure = P(("S", 1), ("E", 1), ("E", 2))
        w = can_cause(a1, a2, closure, PRECEDES_P)
        assert w is not None
        assert verify_witness(a1, a2, w, closure, PRECEDES_P)

    def test_generator_rule_enables_both_consumers(self, seeded_feedback_sigma):
        a1, a2, a3 = seeded_feedback_sigma
        assert can_cause(a3, a1, frozenset(), PRECEDES_P) is not None
        assert can_cause(a3, a2, frozenset(), PRECEDES_P) is not None
        assert can_cause(a3, a3, frozenset(), PRECEDES_P) is None

    def test_monotone_in_the_position_set(self, feedback_sigma):
        a1, a2 = feedback_sigma
        assert can_cause(a2, a1, frozenset(), PRECEDES_P) is not None
        assert can_cause(a2, a1, P(("E", 1)), PRECEDES_P) is not None
        assert can_cause(a2, a1, P(("E", 1), ("E", 2), ("S", 1)), PRECEDES_P) is not None


class TestUnguardedMode:
    def test_travel_set_edges_are_exactly_the_two(self, travel_sigma):
        edges = {(a.id, b.id)
                 for a in travel_sigma for b in travel_sigma
                 if can_cause(a, b, mode=PRECEDES) is not None}
        assert edges == {("a3", "a1"), ("a3", "a3")}

    def test_flip_pair_forms_a_two_cycle(self, feedback_sigma):
        a1, a2 = feedback_sigma
        edges = {(a.id, b.id)
                 for a in feedback_sigma for b in feedback_sigma
                 if can_cause(a, b, mode=PRECEDES) is not None}
        assert edges == {("a1", "a2"), ("a2", "a1")}

    def test_unguarded_is_implied_by_guarded(self, feedback_sigma, seeded_feedback_sigma):
        for a in seeded_feedback_sigma:
            for b in seeded_feedback_sigma:
                full = P(("S", 1), ("E", 1), ("E", 2))
                if can_cause(a, b, full, PRECEDES_P) is not None:
                    assert can_cause(a, b, mode=PRECEDES) is not None


class TestEgdSource:
    def setup_method(self):
        self.key = egd("e", [A("R", V("X"), V("Y1")), A("R", V("X"), V("Y2"))],
                       V("Y1"), V("Y2"))
        self.consumer = tgd("t", [A("T", V("X"), V("Y"))],
                            [A("U", V("Y"), V("W"))])

    def test_merge_can_complete_a_body(self):
        guard = P(("R", 2), ("T", 1), ("T", 2))
        w = can_cause(self.key, self.consumer, guard, PRECEDES_P)
        assert w is not None
        assert verify_witness(self.key, self.consumer, w, guard, PRECEDES_P)
        assert can_cause(self.key, self.consumer, mode=PRECEDES) is not None

    def test_merge_needs_null_room(self):
        assert can_cause(self.key, self.consumer, frozenset(), PRECEDES_P) is None

    def test_verify_rejects_an_unknown_mode(self):
        # the merge needs a null outside the empty guard, so a misspelt
        # mode must not pass the witness as if it were PRECEDES
        w = can_cause(self.key, self.consumer, mode=PRECEDES)
        assert verify_witness(self.key, self.consumer, w, mode=PRECEDES)
        assert not verify_witness(self.key, self.consumer, w, frozenset(),
                                  PRECEDES_P)
        with pytest.raises(ValueError):
            verify_witness(self.key, self.consumer, w, frozenset(), "bogus")

    def test_merge_witness_contains_a_premerge_body(self):
        guard = P(("R", 2), ("T", 1), ("T", 2))
        w = can_cause(self.key, self.consumer, guard, PRECEDES_P)
        b = dict(w.assignment_b)
        body_atoms = {A("T", b["X"], b["Y"])}
        assert not body_atoms <= w.instance.facts
        assert body_atoms <= w.successor.facts


class TestBodylessTarget:
    def test_merge_into_the_instance_rule_is_settled_unsearched(
            self, travel_sigma, monkeypatch):
        # the README's e1 on an instance where it merges: no step can newly
        # violate alpha_I, so the pair needs no candidate at all
        x, y, z = V("X"), V("Y"), V("Z")
        e1 = egd("e1", [A("hasAirport", x), A("airportOf", x, y),
                        A("airportOf", x, z)], y, z)
        I = instance([A("rail", C("c1"), C("c2"), N("r0", 1)),
                      A("hasAirport", C("c0")),
                      A("airportOf", C("c0"), N("p0", 2)),
                      A("airportOf", C("c0"), N("p1", 3)),
                      A("fly", C("c0"), N("x2", 4), N("y2", 5))])
        alpha_I = constraint_from_instance(I)
        holds, judged = firing._holds, []

        def counting_holds(*args):
            judged.append(args)
            return holds(*args)

        monkeypatch.setattr(firing, "_holds", counting_holds)
        for alpha in travel_sigma + [e1]:
            assert can_cause(alpha, alpha_I, mode=PRECEDES) is None
        assert judged == []
        assert oracles.ref_search(e1, alpha_I, frozenset(), PRECEDES) is None


class TestNewPrune:
    def test_no_judged_trigger_lies_in_the_instance(self, monkeypatch):
        # a settled b whose body image lies in I is no new violation, so
        # the search must not hand it to the judge
        holds, judged = firing._holds, []

        def recording_holds(I, after, alpha, a, beta, b, P, mode):
            judged.append(oracles.old_trigger(I, beta, b))
            return holds(I, after, alpha, a, beta, b, P, mode)

        monkeypatch.setattr(firing, "_holds", recording_holds)
        answers = {}
        for seed in range(40):
            rng = random.Random(f"new-prune/{seed}")
            sigma = generators.random_constraints(rng, egd_rate=0.5)
            body = sorted({p for c in sigma for p in c.body_positions},
                          key=position_key)
            guards = [frozenset(), frozenset(body),
                      frozenset(p for p in body if rng.random() < 0.5)]
            for alpha in sigma:
                for beta in sigma:
                    can_cause(alpha, beta, mode=PRECEDES, answers=answers)
                    for guard in guards:
                        can_cause(alpha, beta, guard, PRECEDES_P, answers)
        assert judged and not any(judged)


class TestUnguardedReuse:
    def test_no_edge_is_not_searched_again_under_a_guard(self, monkeypatch):
        # a guarded search only adds checks and drops candidates, so the
        # unguarded "no" in the table settles it without a search
        searched = count_searches(monkeypatch)
        answers = {}
        settled = 0
        for seed in range(30):
            rng = random.Random(f"unguarded/{seed}")
            sigma = generators.random_constraints(rng, egd_rate=0.5)
            for alpha in sigma:
                for beta in sigma:
                    if can_cause(alpha, beta, mode=PRECEDES,
                                 answers=answers) is not None:
                        continue
                    before = len(searched)
                    for guard in generators.guards(sigma, rng):
                        assert can_cause(alpha, beta, guard, PRECEDES_P,
                                         answers) is None
                    assert len(searched) == before, (alpha, beta)
                    settled += 1
        assert settled and searched

    def test_guarded_witness_is_the_reference_witness(self, monkeypatch):
        # a guarded witness is the pair's built unguarded one when that one
        # passes the guard and null-copying (see "reuse"), else the one its
        # own enumeration finds; either way the reference search finds it
        enumerated = count_searches(monkeypatch, ("_enumerate",))
        checked = reused = 0
        for seed in range(30):
            rng = random.Random(f"unguarded/witness/{seed}")
            sigma = generators.random_constraints(rng, egd_rate=0.5)
            for alpha in sigma:
                for beta in sigma:
                    answers = {}
                    if can_cause(alpha, beta, mode=PRECEDES,
                                 answers=answers) is None:
                        continue
                    for guard in generators.guards(sigma, rng):
                        before = len(enumerated)
                        got = can_cause(alpha, beta, guard, PRECEDES_P,
                                        dict(answers))
                        assert strict(got) == strict(oracles.ref_search(
                            alpha, beta, guard, PRECEDES_P))
                        checked += got is not None
                        reused += got is not None and len(enumerated) == before
        assert checked > reused > 0

    def test_a_built_witness_outside_the_guard_is_not_taken(self):
        # the built unguarded witness, with one more null at a position
        # outside the guard, still copies a null, but is no guarded witness
        planted = 0
        for seed in range(30):
            rng = random.Random(f"unguarded/witness/{seed}")
            sigma = generators.random_constraints(rng, egd_rate=0.5)
            for alpha in sigma:
                for beta in sigma:
                    answers = {}
                    w = can_cause(alpha, beta, mode=PRECEDES, answers=answers)
                    if w is None or not firing._copies_null(
                            dict(zip(beta.body_vars,
                                     [v for _, v in w.assignment_b])),
                            beta.frontier):
                        continue
                    for guard in generators.guards(sigma, rng):
                        table = dict(answers)
                        key = firing.find_edge(alpha, beta, guard, PRECEDES_P,
                                               table)
                        if key is None or not firing._guarded(w.instance, guard):
                            continue
                        off = w._replace(instance=Instance(
                            w.instance.facts | {A("off_guard", N("off"))}))
                        table[(alpha, beta, frozenset(), PRECEDES)] = off
                        got = firing._built(table, key)
                        assert strict(got) == strict(oracles.ref_search(
                            alpha, beta, guard, PRECEDES_P))
                        planted += 1
        assert planted

    def test_unguarded_mark_is_built_only_when_read(self, feedback_sigma,
                                                    monkeypatch):
        # a guarded query reads the unguarded entry only for its "no"; its
        # witness comes from its own enumeration, and the mark stays
        a1, a2 = feedback_sigma
        enumerated = count_searches(monkeypatch, ("_enumerate",))
        answers = {}
        assert firing.find_edge(a2, a1, frozenset(), PRECEDES, answers)
        key = firing.find_edge(a2, a1, frozenset(), PRECEDES_P, answers)
        assert key and enumerated == []
        assert set(answers.values()) == {firing.EDGE}
        w = firing._built(answers, key)
        assert answers[key] is w
        assert answers[(a2, a1, frozenset(), PRECEDES)] is firing.EDGE
        assert [q[3] for q in enumerated] == [PRECEDES_P]

    def test_restriction_system_searches_no_unguarded_pair(
            self, feedback_sigma, monkeypatch):
        # the guarded search only peeks at the unguarded answer; computing
        # it would make a bare restriction-system call search every pair
        # twice
        searched = count_searches(monkeypatch)
        rng = random.Random("unguarded/bare")
        sets = [feedback_sigma] + [generators.random_constraints(rng)
                                   for _ in range(20)]
        for sigma in sets:
            static.minimal_restriction_system(sigma)
            static.is_inductively_restricted(sigma)
        modes = [mode for _, _, _, mode in searched]
        assert PRECEDES_P in modes and PRECEDES not in modes


class TestExistencePhase:
    @staticmethod
    def count_enumerations(monkeypatch):
        candidates, entered = firing._tgd_candidates, []

        def counting_candidates(*args):
            entered.append(args)
            return candidates(*args)

        monkeypatch.setattr(firing, "_tgd_candidates", counting_candidates)
        return entered

    def test_no_edge_pair_is_never_enumerated(self, feedback_sigma, monkeypatch):
        # a2's new E(y, z) completes its own body only with S(y), and then
        # E(z, x) and E(x, y) satisfy its head; the other head atom puts
        # the fresh null into S(.), which no I holds
        a1, a2 = feedback_sigma
        entered = self.count_enumerations(monkeypatch)
        assert can_cause(a2, a2, mode=PRECEDES) is None
        assert can_cause(a2, a2, frozenset(), PRECEDES_P) is None
        assert entered == []
        assert oracles.ref_search(a2, a2, frozenset(), PRECEDES) is None
        assert can_cause(a2, a1, mode=PRECEDES) is not None
        assert entered

    def test_only_pairs_with_an_edge_are_enumerated(self, monkeypatch):
        # a most general candidate that passes the judge is itself a
        # witness, so the enumeration after it must find one too
        entered = self.count_enumerations(monkeypatch)
        edges = 0
        for seed in range(30):
            rng = random.Random(f"exists/{seed}")
            sigma = generators.random_constraints(rng, egd_rate=0.25)
            for alpha in sigma:
                for beta in sigma:
                    for P in generators.guards(sigma, rng)[:3]:
                        before = len(entered)
                        w = can_cause(alpha, beta, P, PRECEDES_P)
                        if w is None:
                            assert len(entered) == before, (alpha, beta, P)
                        edges += w is not None
        assert edges and entered


class TestBuild:
    def test_an_edge_without_a_witness_fails_loudly(self, feedback_sigma,
                                                    monkeypatch):
        # a mark that the enumeration cannot build is a fault of the search,
        # not a "no": it must not turn into None
        a1, a2 = feedback_sigma
        answers = {}
        key = firing.find_edge(a2, a1, frozenset(), PRECEDES, answers)
        monkeypatch.setattr(firing, "_enumerate", lambda *key: None)
        with pytest.raises(RuntimeError, match="a2.*a1.*precedes"):
            firing._built(answers, key)
        assert answers[key] is firing.EDGE


class TestMergeOrientation:
    # The enumeration gives the first pool null the lower creation index,
    # so in its canonical pass the null of alpha's first variable always
    # survives a merge of two pool nulls; here the other one must.
    def test_the_later_null_survives(self):
        d1, d3 = parse_constraints("""
            d1: S(X3), T(X1, X3) -> X1 = X3.
            d3: S(X1) -> R(Y2, X2), T(X1, Y2).
        """).constraints
        guard = d1.positions | d3.positions
        assert len(guard) == 5
        w = can_cause(d1, d3, guard, PRECEDES_P)
        assert w is not None and verify_witness(d1, d3, w, guard)
        assert strict(w) == strict(oracles.ref_search(d1, d3, guard, PRECEDES_P))
        u0, u1 = N("u0", 1), N("u1", 2)
        assert strict(w.instance) == strict(instance([A("S", u1), A("T", u0, u1)]))
        assert strict(w.assignment_a) == strict((("X3", u1), ("X1", u0)))
        assert oracles.bf_firing(d1, d3, guard, PRECEDES_P) is not None

    def test_a_missed_edge_no_longer_reads_restricted(self):
        # d2 -> d4 under f(d2) = {S^1, T^1, T^2} needs the merge of d2's
        # X2 into its X3; without it the set read safely and inductively
        # restricted
        sigma = parse_constraints("""
            d1: T(X3, X3) -> S(X3).
            d2: S(X2), T(X3, X1) -> X2 = X3.
            d3: true -> S(X1).
            d4: S(X1) -> S(X1), T(X2, X2).
        """).constraints
        report = static.analyze(sigma)
        system = report.restriction_system
        assert system.f["d2"] == P(("S", 1), ("T", 1), ("T", 2))
        assert ("d2", "d4") in system.edges
        w = system.witnesses[("d2", "d4")]
        assert verify_witness(sigma[1], sigma[3], w, system.f["d2"])
        assert not report.safely_restricted
        assert not report.inductively_restricted


class TestMergeUnifiers:
    def test_the_loser_takes_every_slot_it_may(self):
        # I needs U(loser): with the loser in T(A, A)'s first slot alone,
        # T(l, s) and U(s) leave b's body image T(s, s), U(s) in I, so the
        # existence check must put the loser into every slot of A, not one
        alpha, beta = parse_constraints("""
            m: S(X), S(Y), T(X, X), T(Y, Y) -> X = Y.
            b: T(A, A), U(A) -> W(A).
        """).constraints
        assert firing._exists(alpha, beta, frozenset(), PRECEDES) is firing.EDGE
        w = can_cause(alpha, beta, mode=PRECEDES)
        assert w is not None and verify_witness(alpha, beta, w, mode=PRECEDES)
        assert strict(w) == strict(oracles.ref_search(alpha, beta, frozenset(),
                                                      PRECEDES))
        assert oracles.ref_egd_exists(alpha, beta, frozenset(), PRECEDES)


class TestLongBodies:
    def test_a_1200_atom_body_gets_a_verdict(self):
        # the enumerations keep an explicit stack: one Python frame per
        # variable or atom would pass the recursion limit here
        xs = [V(f"X{i}") for i in range(1201)]
        y = V("Y")
        a = tgd("a", [A("R", xs[i], xs[i + 1]) for i in range(1200)],
                [A("T", xs[0], y)])
        b = tgd("b", [A("T", xs[0], y)], [A("S", y)])
        report = static.analyze([a, b])
        assert report.chase_graph.edges == (("a", "b"),)
        assert report.terminating
        w = report.chase_graph.witnesses[("a", "b")]
        assert verify_witness(a, b, w, mode=PRECEDES)

    def test_enumerations_keep_their_order(self):
        xs = [V(f"X{i}") for i in range(4)]
        named = (C("c0"),)
        got = list(firing._extensions(xs, {xs[2]: C("c0")}, (), named, 0,
                                      frozenset()))
        want = list(oracles._ref_extensions(xs, {xs[2]: C("c0")}, (), named, 0))
        assert strict(got) == strict(want)
        atoms = [A("E", xs[0], xs[1]), A("E", xs[1], xs[2]), A("S", xs[3])]
        facts = [A("E", C("p"), C("q")), A("E", C("q"), C("p")), A("S", C("p"))]
        got = [(b, deferred)
               for b, deferred, _ in firing._subset_matches(atoms, facts,
                                                            firing._bound, {})]
        assert strict(got) == strict(list(oracles._subset_matches(atoms, facts)))
        assert list(firing._subset_matches([], facts, firing._bound, {})) == []
        # a no_null variable takes no null, from the pool or new; the other
        # completions keep the unpruned order
        pool = (firing._new_symbols(0, frozenset({"c0"}))[1],)
        no_null = frozenset({xs[0], xs[3]})
        got = list(firing._extensions(xs, {xs[2]: C("c0")}, pool, named, 1,
                                      no_null))
        every = list(oracles._ref_extensions(xs, {xs[2]: C("c0")}, pool, named, 1))
        want = [(b, p, fc) for b, p, fc in every
                if not any(isinstance(b[v], LabeledNull) for v in no_null)]
        assert 0 < len(want) < len(every)
        assert strict(got) == strict(want)
        # nothing left to bind: the one completion is bound itself
        bound = {x: C("c0") for x in xs}
        assert list(firing._extensions(xs, bound, pool, named, 1,
                                       no_null)) == [(bound, pool, 1)]


class TestWitnessIntegrity:
    def test_tampered_witness_is_rejected(self, feedback_sigma):
        a1, a2 = feedback_sigma
        w = can_cause(a2, a1, frozenset(), PRECEDES_P)
        bad = w._replace(successor=w.instance)
        assert not verify_witness(a2, a1, bad, frozenset(), PRECEDES_P)
        swapped = w._replace(alpha_id="nope")
        assert not verify_witness(a2, a1, swapped, frozenset(), PRECEDES_P)

    @pytest.mark.parametrize("field", ["assignment_a", "assignment_b"])
    def test_witness_missing_a_body_variable_is_rejected(self, field):
        x, y, z = V("X"), V("Y"), V("Z")
        t1 = tgd("t1", [A("e", x, y)], [A("t", x, y)])
        t2 = tgd("t2", [A("t", x, y), A("e", y, z)], [A("t", x, z)])
        w = can_cause(t1, t2, mode=PRECEDES)
        assert verify_witness(t1, t2, w, mode=PRECEDES)
        bad = w._replace(**{field: getattr(w, field)[:-1]})
        assert not verify_witness(t1, t2, bad, mode=PRECEDES)
        extra = w._replace(**{field: getattr(w, field) + (("W", C("c")),)})
        assert not verify_witness(t1, t2, extra, mode=PRECEDES)

    def test_witness_whose_target_is_violated_before_is_rejected(self):
        # every other condition holds, but b violates s in I already, so
        # it is no new violation
        x, c = V("X"), C("c")
        r = tgd("r", [A("R", x)], [A("T", x)])
        s = tgd("s", [A("S", x)], [A("U", x)])
        I = instance([A("R", c), A("S", c)])
        J, _ = chase_step(I, r, {x: c})
        w = Witness("r", "s", I, (("X", c),), (("X", c),), J)
        assert not verify_witness(r, s, w, mode=PRECEDES)

    def test_witness_whose_step_fails_is_rejected(self):
        # a equates two constants, so the merge has no repair; renaming one
        # into the other anyway would complete r's body in J
        x, y, c1, c2 = V("X"), V("Y"), C("c1"), C("c2")
        e = egd("e", [A("R", x, y)], x, y)
        r = tgd("r", [A("R", x, x)], [A("T", x)])
        I = instance([A("R", c1, c2)])
        w = Witness("e", "r", I, (("X", c1), ("Y", c2)), (("X", c1),),
                    instance([A("R", c1, c1)]))
        assert not verify_witness(e, r, w, mode=PRECEDES)

    @pytest.mark.parametrize("mode", [PRECEDES, PRECEDES_P])
    def test_witness_with_a_null_of_high_index_is_rejected(self, mode):
        # the search's placeholders have creation indexes from 1,000,000
        # on, but a witness from elsewhere holds no placeholder: such a
        # null is an ordinary value, here one absent from J
        x, y = V("X"), V("Y")
        a = tgd("a", [A("S", x)], [A("R", x, y)])
        b = tgd("b", [A("R", x, y)], [A("T", y)])
        guard = P(("S", 1), ("R", 1), ("R", 2), ("T", 1))
        w = can_cause(a, b, guard, mode)
        assert verify_witness(a, b, w, guard, mode)
        far = N("n9", 1_000_003)
        bad = w._replace(assignment_b=tuple(
            (name, far if name == "Y" else val) for name, val in w.assignment_b))
        assert not verify_witness(a, b, bad, guard, mode)

    def test_witness_step_is_replayable(self, travel_sigma):
        from chaseterm.model import Variable
        a3 = travel_sigma[2]
        w = can_cause(a3, a3, mode=PRECEDES)
        a = {Variable(name): val for name, val in w.assignment_a}
        J, _ = chase_step(w.instance, a3, a)
        assert J == w.successor

    def test_mode_must_be_known(self, feedback_sigma):
        a1, a2 = feedback_sigma
        with pytest.raises(ValueError):
            can_cause(a1, a2, frozenset(), "sometimes")
