"""Each constraint's compiled forms against the generic code they replace.

The key programs against instantiate, the chase's violation test on keys
against head_holds, its watch-list delta against the semi-naive delta of
tests.oracles, and each value's order against the value_key it replaced.
Constraints, instances and assignments come from tests.generators and
seeded draws, so hypothesis steers the seeds while any failure reproduces
from its seed alone.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from chaseterm.chase import _feed, _violation_test, _watch_list
from chaseterm.model import (
    TGD, Atom, Constant, FactIndex, LabeledNull, _new, body_matches,
    head_holds, instantiate, value_key,
)

from . import generators, oracles
from .oracles import strict

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _sigma(rng):
    return generators.random_constraints(
        rng, max_constraints=4, max_atoms=3, egd_rate=rng.choice([0.25, 0.75]),
        constant_rate=rng.choice([0.0, 0.3]))


def _instance(rng):
    names = [f"n{k}" for k in rng.sample(range(1, 9), 3)]
    return generators.random_instance(rng, max_facts=14,
                                      n_constants=rng.randint(1, 2),
                                      null_names=names)


def _values(rng, I):
    """I's values in value_key order, a named constant of the generators
    and a null that I does not hold."""
    return (sorted(I.domain(), key=value_key)
            + [generators.NAMED[0], LabeledNull("fresh", 40 + rng.randrange(9))])


class _Recorder(list):
    """A stand-in for a pending set that keeps every key added, repeats
    included."""

    add = list.append


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_key_programs_are_instantiate(seed):
    rng = random.Random(seed)
    values = _values(rng, _instance(rng))
    for c in _sigma(rng):
        a = {v: rng.choice(values) for v in c.body_vars + c.existential_vars}
        key = c.body_key(a)
        assert strict(key) == strict(tuple(a[v] for v in c.body_vars))
        if c.kind != TGD:
            left, right = c.equated_slots
            assert strict((key[left], key[right])) == strict(
                tuple(a[v] for v in c.equated))
            continue
        ext = key + tuple(a[v] for v in c.existential_vars)
        got = frozenset(_new(Atom, (rel, args(ext)))
                        for rel, args in c.head_key_program)
        assert strict(got) == strict(instantiate(c.head, a))


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_violation_test_is_head_holds(seed):
    rng = random.Random(seed)
    I = _instance(rng)
    index = FactIndex(I.facts)
    values = _values(rng, I)
    for c in _sigma(rng):
        violated = _violation_test(c, index)
        keys = set(body_matches(index, c))
        keys.update(tuple(rng.choice(values) for _ in c.body_vars)
                    for _ in range(5))
        for key in keys:
            want = not head_holds(index, c, dict(zip(c.body_vars, key)))
            assert violated(key) == want, (c, key)


def _assert_delta(sigma, index, new):
    recorders = [_Recorder() for _ in sigma]
    _feed(_watch_list(sigma, recorders), index, new)
    for c, got in zip(sigma, recorders):
        want = oracles.ref_delta_matches(index, c, new)
        assert Counter(map(strict, got)) == Counter(map(strict, want)), c


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_watch_list_delta_is_the_semi_naive_delta(seed):
    rng = random.Random(seed)
    sigma = _sigma(rng)
    I = _instance(rng)
    index = FactIndex(I.facts)
    values = _values(rng, I)
    # a TGD step adds facts, some of them already present
    extra = [Atom(rel, tuple(rng.choice(values) for _ in range(arity)))
             for rel, arity in rng.choices(generators.SCHEMA, k=rng.randint(1, 4))]
    _assert_delta(sigma, index, index.add(extra))
    # an EGD step renames a null, to a constant or to another null
    nulls = sorted({t for f in index.facts for t in f.args
                    if t.__class__ is LabeledNull}, key=value_key)
    if nulls:
        loser = rng.choice(nulls)
        survivor = rng.choice([v for v in values if v != loser])
        _assert_delta(sigma, index, index.rename(loser, survivor))


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=4), st.integers(min_value=0, max_value=10**9))
def test_order_is_the_old_value_key(name, index):
    for v in (Constant(name), LabeledNull(name), LabeledNull(name, index)):
        assert v.order == oracles.old_value_key(v) == value_key(v)
