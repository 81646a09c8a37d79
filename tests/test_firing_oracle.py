"""The pruned firing search against the unpruned enumerator it replaced.

tests.oracles.ref_search hands every candidate of the old restricted-growth
enumeration to oracles.ref_holds, the judge as it was before it ran its
checks cheapest first, built with the search's old unifier, grounding and
instance builder, which the package replaced with model._bind,
model.instantiate and model.instance. can_cause skips only candidates that
the judge must reject, so it has to return the same first witness, compared
strictly: nulls by name and creation index, so a witness that merely looks
the same does not pass. The search must also skip every candidate that
its "new" prune names: no assignment without placeholders whose body
image lies in the candidate instance may reach the judge. A weaker prune
would still find the same witnesses. The sets with an instance's alpha_I
appended hold the pairs that dynamic.irrelevant_constraints searches,
body-less targets among them.
"""

import random

import pytest

from chaseterm import firing
from chaseterm.dynamic import constraint_from_instance
from chaseterm.firing import PRECEDES, PRECEDES_P, can_cause
from chaseterm.fixtures import rotation_family
from chaseterm.model import position_key

from . import generators, oracles
from .oracles import strict


@pytest.fixture(autouse=True)
def judge_sees_only_new_triggers(monkeypatch):
    holds = firing._holds

    def checked_holds(I, alpha, a, beta, b, P, mode):
        assert not oracles.old_trigger(I, beta, b), (alpha, a, beta, b, I)
        return holds(I, alpha, a, beta, b, P, mode)

    monkeypatch.setattr(firing, "_holds", checked_holds)
    firing._search.cache_clear()


def guards(sigma, rng):
    """The empty guard, all body positions of sigma, and three seeded
    random subsets of them."""
    body = sorted({p for c in sigma for p in c.body_positions}, key=position_key)
    return ([frozenset(), frozenset(body)]
            + [frozenset(p for p in body if rng.random() < 0.5) for _ in range(3)])


def assert_same_witnesses(sigma, rng):
    cases = [(frozenset(), PRECEDES)] + [(P, PRECEDES_P) for P in guards(sigma, rng)]
    for alpha in sigma:
        for beta in sigma:
            for P, mode in cases:
                got = can_cause(alpha, beta, P, mode)
                want = oracles.ref_search(alpha, beta, P, mode)
                assert strict(got) == strict(want), (alpha, beta, P, mode)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rotation_fixtures(k):
    _, sigma = rotation_family(k)
    assert_same_witnesses(sigma, random.Random(f"rotation/{k}"))


@pytest.mark.parametrize("n", [3, 4])
def test_width_family(n):
    assert_same_witnesses(generators.width_family(n), random.Random(f"width/{n}"))
