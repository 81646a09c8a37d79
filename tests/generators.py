"""Seeded random fixtures for the property suites.

Sizes are deliberately tiny: the ladder checks run a firing-witness search
per constraint pair, so three binary relations and two or three atoms per
rule keep whole-suite sweeps under a second while still covering body-less
rules, shared variables, existential chains and EGDs.
"""

import random
from typing import List, Optional, Sequence, Tuple

from chaseterm.chase import ChaseFailed, chase_step
from chaseterm.model import (
    Atom, Constant, Constraint, Instance, LabeledNull, Variable, egd,
    find_violations, instance, position_key, tgd,
)
from chaseterm.static import is_inductively_restricted

SCHEMA = (("S", 1), ("R", 2), ("T", 2))


# Constants that rules drawn with a constant_rate name. "c0" is also the
# first symbol the firing search would invent, so it must step aside.
NAMED = (Constant("c0"), Constant("d"))


def _random_atom(rng: random.Random, vars_pool: List[Variable],
                 constant_rate: float = 0.0) -> Atom:
    rel, arity = rng.choice(SCHEMA)
    return Atom(rel, tuple(
        rng.choice(NAMED) if constant_rate and rng.random() < constant_rate
        else rng.choice(vars_pool) for _ in range(arity)))


def random_constraint(rng: random.Random, cid: str, max_atoms: int = 2,
                      max_vars: int = 3, allow_egds: bool = True,
                      egd_rate: float = 0.25,
                      constant_rate: float = 0.0) -> Constraint:
    """Each argument is one of NAMED with probability constant_rate; at the
    default 0 no draw is spent on it, so the sets are those drawn before
    the option existed."""
    vars_pool = [Variable(f"X{i}") for i in range(1, max_vars + 1)]
    body = [_random_atom(rng, vars_pool, constant_rate)
            for _ in range(rng.randint(0, max_atoms))]
    body_vars = sorted({t for a in body for t in a.args
                        if isinstance(t, Variable)}, key=lambda v: v.name)
    if allow_egds and len(body_vars) >= 2 and rng.random() < egd_rate:
        left, right = rng.sample(body_vars, 2)
        return egd(cid, body, left, right)
    # head may reuse body variables or introduce existential ones
    head_pool = vars_pool + [Variable(f"Y{i}") for i in range(1, 3)]
    head = [_random_atom(rng, head_pool, constant_rate)
            for _ in range(rng.randint(1, max_atoms))]
    return tgd(cid, body, head)


def random_constraints(rng: random.Random, max_constraints: int = 3,
                       max_atoms: int = 2, max_vars: int = 3,
                       allow_egds: bool = True, egd_rate: float = 0.25,
                       constant_rate: float = 0.0) -> List[Constraint]:
    n = rng.randint(1, max_constraints)
    return [random_constraint(rng, f"d{i}", max_atoms, max_vars, allow_egds,
                              egd_rate, constant_rate)
            for i in range(1, n + 1)]


def guards(sigma: Sequence[Constraint], rng: random.Random) -> List[frozenset]:
    """The empty guard, all body positions of sigma, and three seeded
    random subsets of them."""
    body = sorted({p for c in sigma for p in c.body_positions}, key=position_key)
    return ([frozenset(), frozenset(body)]
            + [frozenset(p for p in body if rng.random() < 0.5) for _ in range(3)])


def width_family(n: int) -> List[Constraint]:
    """The width family of the analyze-batch benchmark: an n-variable
    cycle of E atoms that starts a new E edge, and a feedback rule that
    reverses every edge. The cycle's E(X1, X2) already satisfies the head
    E(X1, Y), so the wide rule never fires."""
    xs = [Variable(f"X{i}") for i in range(1, n + 1)]
    body = [Atom("E", (xs[i], xs[(i + 1) % n])) for i in range(n)]
    x, y = Variable("X"), Variable("Y")
    return [tgd(f"w{n}", body, [Atom("E", (xs[0], y))]),
            tgd("fb", [Atom("E", (x, y))], [Atom("E", (y, x))])]


def wide_sets() -> List[List[Constraint]]:
    """The "w/6/9" draw: 8 sets of 4 rules with up to 6 atoms and 9
    variables each. Set 4, counted from 0, holds the EGD r4, which cannot
    cause r2 under its three-position guard; the canonical enumeration
    alone takes more than 15 minutes to find that out."""
    rng = random.Random("w/6/9")
    return [[random_constraint(rng, f"r{j}", max_atoms=6, max_vars=9)
             for j in range(1, 5)] for _ in range(8)]


def sparse_sets(n: int) -> List[Constraint]:
    """The sparse set of n rules, r1 to r<n>, over n // 2 relations p0, p1,
    ... of arity 1 to 3: one or two atoms a side, and about a tenth of the
    rules EGDs. Drawn from the seed f"onto/{n}/{n // 2}", so each n has one
    set."""
    rng = random.Random(f"onto/{n}/{n // 2}")
    schema = [(f"p{i}", rng.randint(1, 3)) for i in range(max(1, n // 2))]
    xs = [Variable(f"X{i}") for i in range(1, 4)]

    def atoms(pool: List[Variable]) -> List[Atom]:
        return [Atom(rel, tuple(rng.choice(pool) for _ in range(arity)))
                for rel, arity in (rng.choice(schema)
                                   for _ in range(rng.randint(1, 2)))]

    out = []
    for j in range(1, n + 1):
        body = atoms(xs)
        body_vars = sorted({t for a in body for t in a.args}, key=lambda v: v.name)
        if rng.random() < 0.1 and len(body_vars) >= 2:
            out.append(egd(f"r{j}", body, *rng.sample(body_vars, 2)))
        else:
            out.append(tgd(f"r{j}", body, atoms(xs + [Variable("Y1"), Variable("Y2")])))
    return out


def random_instance(rng: random.Random, max_facts: int = 10,
                    n_constants: int = 1, n_nulls: int = 3,
                    null_names: Optional[Sequence[str]] = None) -> Instance:
    """Null i (from 1) has creation index i and is named u<i>, or the i-th
    of null_names when given."""
    names = null_names or [f"u{i}" for i in range(1, n_nulls + 1)]
    values = ([Constant(f"c{i}") for i in range(1, n_constants + 1)]
              + [LabeledNull(name, i) for i, name in enumerate(names, 1)])
    facts = set()
    for _ in range(rng.randint(1, max_facts)):
        rel, arity = rng.choice(SCHEMA)
        facts.add(Atom(rel, tuple(rng.choice(values) for _ in range(arity))))
    return instance(facts)


def sized_instance(rng: random.Random, n_values: int, max_facts: int) -> Instance:
    """An instance whose active domain has exactly n_values distinct values."""
    values = [Constant(f"c{i}") for i in range(1, n_values + 1)]
    facts = set()
    for v in values:  # every value occurs at least once
        facts.add(Atom("S", (v,)))
    while len(facts) < max_facts:
        rel, arity = rng.choice(SCHEMA)
        facts.add(Atom(rel, tuple(rng.choice(values) for _ in range(arity))))
    return instance(facts)


def ir_fixtures(seed: int, count: int, max_constraints: int = 4,
                max_facts: int = 10) -> List[Tuple[Instance, List[Constraint]]]:
    """Rejection-sample constraint sets until inductively restricted, then
    pair each with a one-constant instance (a single constant cannot clash,
    so every chase of these fixtures terminates cleanly)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sigma = random_constraints(rng, max_constraints)
        if not is_inductively_restricted(sigma):
            continue
        out.append((random_instance(rng, max_facts, n_constants=1), sigma))
    return out


def fired_in_some_order(I: Instance, sigma, depth: int) -> frozenset:
    """Constraint ids that fire in at least one chase sequence of length at
    most depth, by exhaustive exploration of every (constraint, violation)
    choice. A step that fails (EGD constant clash) still counts as fired."""
    fired = set()
    best_budget = {}

    def go(inst: Instance, budget: int):
        if budget == 0 or len(fired) == len(sigma):
            return
        key = inst.facts
        if best_budget.get(key, -1) >= budget:
            return
        best_budget[key] = budget
        for c in sigma:
            for a in find_violations(inst, c):
                fired.add(c.id)
                try:
                    nxt, _ = chase_step(inst, c, a)
                except ChaseFailed:
                    continue
                go(nxt, budget - 1)

    go(I, depth)
    return frozenset(fired)
