"""The run's own monitor graph against the replayed reference.

tests.oracles keeps the monitor as it was before each run owned one graph:
a persistent graph that every step copied, built again after the run by
replaying its steps. A monitored run's graph must equal that replay in
nodes, edges, the live index and the chains, with nulls compared by name
and creation index. After every step, is_k_cyclic must give the
reference's answer and witness at every depth up to one past the longest
chain.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chaseterm.chase import ChasePolicy, chase
from chaseterm.fixtures import rotation_family
from chaseterm.model import egd, instance, tgd
from chaseterm.monitor import is_k_cyclic

from . import generators, oracles
from .conftest import A, C, N, V, monitor_steps
from .oracles import strict

DEEP = 1000  # deeper than any chain these runs build: the monitor never trips


def policies(max_steps):
    """det watched at depth 2 (most runs here trip it) and unwatched in
    effect; rand with seeds 0-2."""
    return ([ChasePolicy(max_steps=max_steps, monitor_k=k) for k in (2, DEEP)]
            + [ChasePolicy(order="rand", seed=s, max_steps=max_steps,
                           monitor_k=DEEP) for s in range(3)])


def graph_fields(G):
    return tuple(strict(getattr(G, f)) for f in ("nodes", "edges", "live", "chains"))


def assert_same_graphs(I, sigma, max_steps=30):
    for policy in policies(max_steps):
        res = chase(I, sigma, policy)
        ref = oracles.ref_build_monitor(res.steps, sigma)
        assert graph_fields(res.monitor) == graph_fields(ref), policy
        depth = max((len(c) for c in ref.chains.values()), default=0)
        assert res.monitor.longest == depth
        for G, R in zip(monitor_steps(res.steps, sigma),
                        oracles.ref_monitor_trace(res.steps, sigma)):
            # plain equality: strict() on every prefix would dominate the run
            assert (G.nodes, G.edges, G.live, G.chains) == (
                R.nodes, R.edges, R.live, R.chains), policy
            for k in range(1, depth + 2):
                assert (strict(is_k_cyclic(G, k))
                        == strict(oracles.ref_is_k_cyclic(R, k))), (policy, k)


def test_travel_fixtures(travel_sigma, oneway_instance, roundtrip_instance):
    assert_same_graphs(oneway_instance, travel_sigma)
    assert_same_graphs(roundtrip_instance, travel_sigma)


def test_feedback_fixtures(feedback_sigma, seeded_feedback_sigma):
    I = instance([A("S", C("a")), A("E", C("a"), N("u", 1)), A("E", N("u", 1), C("b"))])
    assert_same_graphs(I, feedback_sigma)
    assert_same_graphs(instance([]), seeded_feedback_sigma)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_rotation_fixtures(k):
    I, sigma = rotation_family(k)
    assert_same_graphs(I, sigma)


def test_merges_of_monitored_nulls():
    # t and t2 create two nulls under each P/Q value, e merges them, and g
    # starts the next round from the survivor: an endless run in which
    # monitored nulls merge between the steps that extend the chains
    x, y, z = V("X"), V("Y"), V("Z")
    t = tgd("t", [A("P", x)], [A("R", x, y), A("T", y)])
    t2 = tgd("t2", [A("Q", x)], [A("R", x, z), A("U", z)])
    e = egd("e", [A("R", x, V("Y1")), A("R", x, V("Y2"))], V("Y1"), V("Y2"))
    g = tgd("g", [A("T", x), A("U", x)], [A("S", x, y), A("P", y), A("Q", y)])
    assert_same_graphs(instance([A("P", C("a")), A("Q", C("a"))]), [t, t2, e, g])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_sets_and_instances(seed):
    rng = random.Random(seed)
    sigma = generators.random_constraints(rng, max_constraints=4, egd_rate=0.5)
    names = [f"n{k}" for k in rng.sample(range(1, 9), 3)]
    I = generators.random_instance(rng, n_constants=rng.randint(1, 2),
                                   null_names=names)
    assert_same_graphs(I, sigma, max_steps=20)
