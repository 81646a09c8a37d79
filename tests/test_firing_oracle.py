"""The pruned firing search against the unpruned enumerator it replaced.

tests.oracles.ref_search hands every candidate of the old restricted-growth
enumeration to oracles.ref_holds, the judge as it was before it ran its
checks cheapest first, built with the search's old unifier, grounding and
instance builder, which the package replaced with model._bind,
model.instantiate and model.instance. can_cause skips only candidates that
the judge must reject, so it has to return the same first witness, compared
strictly: nulls by name and creation index, so a witness that merely looks
the same does not pass. The judge must also reject, with its first three
checks, before it scans I or builds an instance, every candidate that
they name: an assignment without placeholders whose body image lies in
the candidate instance ("new"), one whose beta head holds in the step's
image of alpha's body image ("settled"), and under PRECEDES_P one that
puts no null on beta's frontier ("copying"). A judge that left them to
its later checks would still find the same witnesses. Every set is asked
twice, each time over a fresh answer table, with PRECEDES first and with
it last, since a guarded query whose table holds the pair's unguarded "no" is answered at
once and would compare nothing ("unguarded"). For an EGD alpha, the
existence check must find an edge exactly when oracles.ref_egd_exists
does, which judges a candidate for every loser slot set of every merge
unifier, not only the largest, and exactly when ref_search does. The
sets with an instance's alpha_I appended hold the pairs that
dynamic.irrelevant_constraints searches, body-less targets among them.
On those sets the judge must also give every candidate the generators
yield, settled ones included, the verdict of oracles.ref_holds, and the
same resolved b when both accept. Last, the chase graph and the
minimal restriction system, which build each witness when it is read, must
equal the eager copies in oracles, witnesses included.
"""

import collections
import random

import pytest

from chaseterm import firing
from chaseterm.dynamic import constraint_from_instance
from chaseterm.firing import (
    PRECEDES, PRECEDES_P, _passes, _step_image, _witness, can_cause,
    chase_graph,
)
from chaseterm.fixtures import rotation_family
from chaseterm.model import (
    EGD, TGD, Atom, LabeledNull, Variable, instance, instantiate, tgd,
)
from chaseterm.static import analyze, minimal_restriction_system
from chaseterm.syntax import parse_constraints

from . import generators, oracles
from .generators import guards
from .oracles import strict


@pytest.fixture(autouse=True)
def judge_rejects_old_and_settled_triggers(monkeypatch):
    """Every candidate that the judge takes past its first three checks,
    to the guard scan or a later check, must be new, not settled and,
    under PRECEDES_P, copy a null: the judge rejects every other one
    before it builds an instance or scans I. The judge builds a's step
    image itself when its table lacks one, and what that build calls is
    not counted: it is no check of the candidate."""
    passes, step_image, reached = firing._passes, firing._step_image, []

    def watched(fn):
        def call(*args):
            reached.append(fn)
            return fn(*args)
        return call

    for name in ("_guarded", "Instance", "instance"):
        monkeypatch.setattr(firing, name, watched(getattr(firing, name)))

    def unwatched_step_image(alpha, a):
        n = len(reached)
        image = step_image(alpha, a)
        del reached[n:]
        return image

    def checked_passes(alpha, a, images, beta, b, B, P, mode):
        reached.clear()
        I = passes(alpha, a, images, beta, b, B, P, mode)
        if reached:
            facts = instance(instantiate(alpha.body, a) | B)
            assert not oracles.old_trigger(facts, beta, b), (
                alpha, a, beta, b, facts)
            assert not oracles.settled_trigger(alpha, a, beta, b), (
                alpha, a, beta, b)
            if mode == PRECEDES_P:
                # the frontier: beta's head variables that b binds
                frontier = [v for v in oracles.head_vars(beta) if v in b]
                assert any(isinstance(b[v], LabeledNull) for v in frontier), (
                    alpha, a, beta, b)
        return I

    monkeypatch.setattr(firing, "_step_image", unwatched_step_image)
    monkeypatch.setattr(firing, "_passes", checked_passes)


def assert_same_witnesses(sigma, rng):
    cases = [(frozenset(), PRECEDES)] + [(P, PRECEDES_P) for P in guards(sigma, rng)]
    queries = [(alpha, beta, P, mode)
               for alpha in sigma for beta in sigma for P, mode in cases]
    want = {q: strict(oracles.ref_search(*q)) for q in queries}
    for q in queries:
        if q[0].kind == EGD:
            # the existence check against merge unifiers with every loser
            # slot set, and against the enumeration
            found = oracles.ref_egd_exists(*q) is not None
            assert found == (want[q] is not None), q
            assert (firing._exists(*q) is not None) == found, q
    guarded_first = sorted(queries, key=lambda q: q[3] == PRECEDES)
    for order in (queries, guarded_first):
        answers = {}
        for q in order:
            assert strict(can_cause(*q, answers)) == want[q], q


def assert_same_verdicts(sigma, rng, seen):
    """_passes, the judge, on the step's image that _step_image builds,
    against ref_holds on every (b, B) that the candidate generators yield
    for every pair of sigma and every guard, an accepted b resolved by its
    witness's step. The generators leave the settled, new and copying
    checks to the judge, so it has candidates of each kind to reject. An a
    that _step_image skips must be one that oracles.no_step names, and the
    step it returns with the image must be oracles.ref_step's. seen counts
    the verdicts and the skipped a, so the caller can see that both
    answers, settled candidates and skipped a occurred."""
    cases = [(frozenset(), PRECEDES)] + [(P, PRECEDES_P) for P in guards(sigma, rng)]
    for alpha in sigma:
        for beta in sigma:
            named = firing._named_constants(alpha, beta)
            for P, mode in cases:
                no_null_b = firing._no_null_vars(beta, P, mode)
                for a, pool, fc in firing._alpha_assignments(
                        alpha, named, firing._no_null_vars(alpha, P, mode)):
                    image = _step_image(alpha, a)
                    assert (image is None) == oracles.no_step(alpha, a), (
                        alpha, a)
                    if image is None:
                        seen["no step"] += 1
                        continue
                    base, _, step = image
                    assert strict(step) == strict(oracles.ref_step(alpha, a))
                    candidates = (firing._tgd_candidates if alpha.kind == TGD
                                  else firing._egd_candidates)
                    for b, B in candidates(image, beta, pool, named, fc,
                                           no_null_b):
                        I = instance(base | B)
                        got = None
                        images = {alpha.body_key(a): image}
                        accepted = _passes(alpha, a, images, beta, b, B, P,
                                           mode)
                        if accepted is not None:
                            assert strict(accepted) == strict(I)
                            # the step resolves b, for the accepted b alone
                            w = _witness(accepted, alpha, a, beta, b)
                            got = {Variable(name): val
                                   for name, val in w.assignment_b}
                        want = oracles.ref_holds(I, alpha, a, beta, b, P, mode)
                        want = want and want[0]  # the judge builds no J
                        assert strict(got) == strict(want), (
                            alpha, a, beta, b, I)
                        settled = oracles.settled_trigger(alpha, a, beta, b)
                        assert not (settled and got), (alpha, a, beta, b, I)
                        seen[got is not None, settled] += 1


@pytest.mark.parametrize("egd_rate", [0.25, 0.75])
def test_judge_agrees_on_every_candidate(egd_rate):
    seen = collections.Counter()
    for seed in range(25):
        rng = random.Random(f"firing-oracle/verdicts/{egd_rate}/{seed}")
        sigma = generators.random_constraints(rng, egd_rate=egd_rate)
        assert_same_verdicts(sigma, rng, seen)
        I = generators.random_instance(rng, max_facts=6, n_constants=2)
        assert_same_verdicts(sigma + [constraint_from_instance(I)], rng, seen)
    assert seen[True, False] and seen[False, True] and seen["no step"], seen


@pytest.mark.parametrize("egd_rate", [0.25, 0.75])
def test_random_sets(egd_rate):
    for seed in range(50):
        rng = random.Random(f"firing-oracle/{egd_rate}/{seed}")
        sigma = generators.random_constraints(rng, egd_rate=egd_rate)
        assert_same_witnesses(sigma, rng)


def test_feedback_fixtures(feedback_sigma, seeded_feedback_sigma):
    assert_same_witnesses(feedback_sigma, random.Random("feedback"))
    assert_same_witnesses(seeded_feedback_sigma, random.Random("seeded"))


def test_travel_fixture(travel_sigma):
    assert_same_witnesses(travel_sigma, random.Random("travel"))


def test_travel_fixture_with_its_instances(travel_sigma, oneway_instance,
                                           roundtrip_instance):
    for I in (oneway_instance, roundtrip_instance):
        sigma = travel_sigma + [constraint_from_instance(I)]
        assert_same_witnesses(sigma, random.Random("travel/alpha_I"))


@pytest.mark.parametrize("egd_rate", [0.25, 0.75])
def test_random_sets_with_an_instance(egd_rate):
    for seed in range(25):
        rng = random.Random(f"firing-oracle/alpha_I/{egd_rate}/{seed}")
        sigma = generators.random_constraints(rng, egd_rate=egd_rate)
        I = generators.random_instance(rng, max_facts=6, n_constants=2)
        assert_same_witnesses(sigma + [constraint_from_instance(I)], rng)


@pytest.mark.parametrize("egd_rate", [0.25, 0.75])
def test_random_sets_with_named_constants(egd_rate):
    for seed in range(25):
        rng = random.Random(f"firing-oracle/named/{egd_rate}/{seed}")
        sigma = generators.random_constraints(rng, egd_rate=egd_rate,
                                              constant_rate=0.3)
        assert_same_witnesses(sigma, rng)


@pytest.mark.parametrize("egd_rate", [0.25, 0.75])
def test_every_brute_force_scenario_has_a_witness(egd_rate):
    # oracles.bf_firing plants facts instead of enumerating candidates, so
    # it can see a witness that the canonical enumeration and ref_search
    # both miss
    found = collections.Counter()
    for seed in range(12):
        rng = random.Random(f"firing-oracle/bf/{egd_rate}/{seed}")
        sigma = generators.random_constraints(rng, egd_rate=egd_rate)
        I = generators.random_instance(rng, max_facts=4, n_constants=2)
        sigma = sigma + [constraint_from_instance(I)]
        cases = [(frozenset(), PRECEDES)] + [(P, PRECEDES_P)
                                             for P in guards(sigma, rng)]
        for alpha in sigma:
            for beta in sigma:
                for P, mode in cases:
                    scenario = oracles.bf_firing(alpha, beta, P, mode)
                    if scenario is not None:
                        assert can_cause(alpha, beta, P, mode), (alpha, beta, P, mode)
                    found[scenario is not None] += 1
    assert found[True] and found[False], found


def test_three_planted_facts_complete_a_three_atom_body():
    # beta's body shares no relation with the key EGD's, so every atom of
    # it is planted: only a cap of three lets bf_firing see the merge that
    # completes it
    (key,) = parse_constraints("k: K(X, Y), K(X, Z) -> Y = Z.").constraints
    xs = [Variable(f"X{i}") for i in range(1, 4)]
    found = collections.Counter()
    for seed in range(8):
        rng = random.Random(f"firing-oracle/bf3/{seed}")
        body = [Atom(rel, tuple(rng.choice(xs) for _ in range(n)))
                for rel, n in (("S", 1), ("T", 2), ("U", 1))]
        beta = tgd("b", body, [Atom("W", (rng.choice(body).args[0],))])
        guard = key.positions | beta.body_positions
        for P, mode in ((frozenset(), PRECEDES), (guard, PRECEDES_P)):
            scenario = oracles.bf_firing(key, beta, P, mode, cap=3)
            if scenario is not None:
                assert can_cause(key, beta, P, mode), (beta, P, mode)
            found[scenario is not None] += 1
    assert found[True], found


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rotation_fixtures(k):
    _, sigma = rotation_family(k)
    assert_same_witnesses(sigma, random.Random(f"rotation/{k}"))


@pytest.mark.parametrize("n", [3, 4])
def test_width_family(n):
    assert_same_witnesses(generators.width_family(n), random.Random(f"width/{n}"))


def test_target_without_frontier_has_no_guarded_edge(monkeypatch):
    # r3 copies no body value into its head, so no b puts a null there;
    # r4 has an unguarded edge into r3, so the guarded "no" is the
    # frontier's alone
    sigma = parse_constraints("""
        r1: R(X3, X1), S(X1), R(X2, X3) -> X3 = X1.
        r2: T(X3, X1), S(X2) -> X1 = X3.
        r3: T(X2, X3) -> S(Y2), S(Y1).
        r4: R(X1, X2) -> T(X1, X2).
    """).constraints
    beta = sigma[2]
    passes, judged = firing._passes, []

    def counting_passes(*args):
        judged.append(args)
        return passes(*args)

    monkeypatch.setattr(firing, "_passes", counting_passes)
    for alpha in sigma:
        for P in guards(sigma, random.Random(f"frontier/{alpha.id}")):
            assert can_cause(alpha, beta, P, PRECEDES_P) is None
            assert oracles.ref_search(alpha, beta, P, PRECEDES_P) is None
    assert judged == []
    assert any(can_cause(alpha, beta, mode=PRECEDES) for alpha in sigma)


def assert_same_graphs(sigma):
    """The chase graph and the minimal restriction system, their witnesses
    built on demand, against the eager copies in oracles, compared
    strictly: each alone over a fresh table, and analyze's over one table
    against the copies over one table, the chase graph first."""
    assert strict(chase_graph(sigma)) == strict(oracles.ref_chase_graph(sigma))
    assert (strict(minimal_restriction_system(sigma))
            == strict(oracles.ref_minimal_restriction_system(sigma)))
    report, answers = analyze(sigma), {}
    assert strict(report.chase_graph) == strict(
        oracles.ref_chase_graph(sigma, answers))
    assert strict(report.restriction_system) == strict(
        oracles.ref_minimal_restriction_system(sigma, answers))


def test_graphs_on_the_travel_fixture_with_its_instances(
        travel_sigma, oneway_instance, roundtrip_instance):
    for I in (oneway_instance, roundtrip_instance):
        assert_same_graphs(travel_sigma + [constraint_from_instance(I)])


def test_graphs_on_the_feedback_fixtures(feedback_sigma, seeded_feedback_sigma):
    assert_same_graphs(feedback_sigma)
    assert_same_graphs(seeded_feedback_sigma)


@pytest.mark.parametrize("egd_rate", [0.25, 0.75])
def test_graphs_on_random_sets(egd_rate):
    for seed in range(40):
        rng = random.Random(f"firing-oracle/graphs/{egd_rate}/{seed}")
        sigma = generators.random_constraints(rng, max_atoms=3,
                                              egd_rate=egd_rate)
        assert_same_graphs(sigma)
