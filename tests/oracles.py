"""Independent reference implementations used to pin expected values.

Everything here trades efficiency for obviousness: exhaustive products
instead of backtracking joins, subset enumeration instead of fixpoints.
The main suite asserts library outputs against these on small inputs and
freezes the agreed values. Four sections are different in kind: they keep
the chase engine the package had before its run-scoped index (and the
semi-naive delta and value order from before the chase compiled them), the
firing-witness search as it was before it pruned, the firing graphs as they
were before their witnesses were built on demand, and the monitor graph as
it was before each run owned one graph, for differential tests that compare
results with strict(). One more keeps the graph toolkit's Tarjan components
and level-by-level shortest path from before one breadth-first search served
them. Another keeps the character-by-character tokenizer and the parser
from before one regular expression scanned the text, for differential
tests on rule and instance texts. Another keeps the report JSON as the
standard library writes it, and the chase report as the dict it was before
its steps were written straight from their records, for byte comparisons
with the package's own writers. The last one keeps a constraint's shape as its fields were
computed one by one, each with its own walk over the atoms, before one walk
filled them all.
"""

import dataclasses
import json
import random
from collections.abc import Mapping
from itertools import combinations, product
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from chaseterm.chase import (
    ABORTED, FAILED, K_CYCLIC, STEP_LIMIT, TERMINATED, ChaseFailed,
    ChasePolicy, ChaseResult, ChaseStepRecord, chase_step,
)
from chaseterm.firing import (
    _PLACEHOLDER_BASE, PRECEDES, PRECEDES_P, ChaseGraph, Witness,
    _is_placeholder, _named_constants, _new_symbols, can_cause,
)
from chaseterm.model import (
    EGD, TGD, Atom, Constant, Constraint, Instance, LabeledNull, ModelError,
    Position, Variable, _bind, check_arities, egd, fact_key,
    instance, instantiate, join, replace_value, satisfies, tgd, value_key,
)
from chaseterm.monitor import (
    MonitorEdge, MonitorGraph, MonitorNode, edge_class, edge_key,
)
from chaseterm.static import RestrictionSystem, aff_cl
from chaseterm.syntax import ConstraintDocument, ParseError


def strict(x):
    """x as plain tuples, keeping what equality drops: a null's creation
    index. Sets become sorted tuples, so the form is order-free. A record
    keeps its class name in front: the package's classes are named one by
    one, and NamedTuple records are caught before the plain-tuple branch,
    which would drop the name."""
    if isinstance(x, LabeledNull):
        return ("null", x.name, x.creation_index)
    if isinstance(x, Constant):
        return ("const", x.name)
    if isinstance(x, Variable):
        return ("var", x.name)
    if isinstance(x, Position):
        return ("pos", x.relation, x.index)
    if isinstance(x, Atom):
        return ("atom", x.relation, strict(x.args))
    if isinstance(x, Constraint):
        return ("Constraint",) + strict((x.id, x.kind, x.body, x.head, x.equated))
    if isinstance(x, Instance):
        return ("Instance",) + strict((x.facts, x.null_counter))
    if isinstance(x, MonitorGraph):
        return ("MonitorGraph",) + strict(
            (x.nodes, x.edges, x.live, x.chains, x.longest))
    if isinstance(x, tuple) and hasattr(x, "_fields"):  # a NamedTuple record
        return (type(x).__name__,) + tuple(strict(v) for v in x)
    if dataclasses.is_dataclass(x):  # RefMonitorGraph below
        return (type(x).__name__,) + tuple(
            strict(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (set, frozenset)):
        return ("set",) + tuple(sorted((strict(v) for v in x), key=repr))
    if isinstance(x, Mapping):  # a dict, or a graph's witnesses
        return ("dict",) + tuple(sorted(((strict(k), strict(v)) for k, v in x.items()),
                                        key=repr))
    if isinstance(x, (tuple, list)):
        return tuple(strict(v) for v in x)
    return x


def bf_satisfies(I, c, a):
    """Satisfaction by exhaustive enumeration of existential extensions."""
    body = instantiate(c.body, a)
    if not body <= I.facts:
        return True
    if c.kind == EGD:
        left, right = c.equated
        return a[left] == a[right]
    dom = sorted(I.domain(), key=lambda v: repr(v))
    exist = list(c.existential_vars)
    for combo in product(dom, repeat=len(exist)):
        ext = dict(a)
        ext.update(dict(zip(exist, combo)))
        if instantiate(c.head, ext) <= I.facts:
            return True
    # with no existential variables the loop above runs once with ext == a
    return False


def bf_violations(I, c):
    """All violating assignments by exhaustive enumeration over the domain."""
    dom = sorted(I.domain(), key=lambda v: repr(v))
    vs = list(c.body_vars)
    out = []
    if not vs:
        if not bf_satisfies(I, c, {}):
            out.append({})
        return out
    for combo in product(dom, repeat=len(vs)):
        a = dict(zip(vs, combo))
        if instantiate(c.body, a) <= I.facts and not bf_satisfies(I, c, a):
            out.append(a)
    return out


def bf_homomorphism(source, target):
    """Homomorphism search by exhaustive enumeration of null images."""
    nulls = sorted((v for v in source.domain() if not isinstance(v, Constant)),
                   key=lambda v: repr(v))
    dom = sorted(target.domain(), key=lambda v: repr(v))
    consts = [v for v in source.domain() if isinstance(v, Constant)]
    for combo in product(dom, repeat=len(nulls)):
        h = dict(zip(nulls, combo))
        for cst in consts:
            h[cst] = cst
        image = set()
        for f in source.facts:
            image.add(type(f)(f.relation, tuple(h[t] for t in f.args)))
        if image <= target.facts:
            return h
    return None


def _head_positions(c):
    return {p for a in c.head for p in a.positions}


def _closed_under_affectedness(S, constraints):
    """Is S closed under the two affectedness rules (TGDs only)?"""
    for c in constraints:
        if c.kind != TGD:
            continue
        exist = set(c.existential_vars)
        body_occ = {}
        for a in c.body:
            for i, t in enumerate(a.args):
                if isinstance(t, Variable):
                    body_occ.setdefault(t, set()).add(Position(a.relation, i + 1))
        for a in c.head:
            for i, t in enumerate(a.args):
                if not isinstance(t, Variable):
                    continue
                pos = Position(a.relation, i + 1)
                if t in exist and pos not in S:
                    return False
                if t not in exist:
                    occ = body_occ.get(t, set())
                    if occ and occ <= S and pos not in S:
                        return False
    return True


def affected_oracle(constraints):
    """Least affected-position set, as the intersection of every closed set.

    Affectedness is a closure: the two rules are monotone, so the least
    fixpoint equals the intersection of all rule-closed subsets. Enumerate
    the subsets outright; the golden sets have at most a dozen positions.
    """
    universe = sorted({p for c in constraints for p in c.positions},
                      key=lambda p: (p.relation, p.index))
    n = len(universe)
    assert n <= 16, "oracle is for small schemas only"
    best = None
    for mask in range(1 << n):
        S = {universe[i] for i in range(n) if mask >> i & 1}
        if _closed_under_affectedness(S, constraints):
            best = S if best is None else best & S
    return frozenset(best if best is not None else set())


# ---------------------------------------------------------------------------
# The chase engine as it was before the run-scoped index: every pass rescans
# every constraint with a fresh per-relation grouping of the whole instance,
# and every step rebuilds the instance. Matching and the homomorphism search
# recurse once per atom.
# ---------------------------------------------------------------------------


def term_positions(atoms, t):
    """The positions at which the term t occurs in atoms, one term at a
    time: the reference for occurrences below."""
    return frozenset(Position(a.relation, i + 1)
                     for a in atoms for i, u in enumerate(a.args) if u == t)


def _facts_by_relation(I):
    by_rel = {}
    for f in I.facts:
        by_rel.setdefault(f.relation, []).append(f)
    for fs in by_rel.values():
        fs.sort(key=fact_key)
    return by_rel


def ref_match_conjunction(atoms, I, binding=None):
    """Recursive backtracking join over the facts, grouped by relation."""
    by_rel = _facts_by_relation(I)

    def extend(i, b):
        if i == len(atoms):
            yield dict(b)
            return
        at = atoms[i]
        for f in by_rel.get(at.relation, ()):
            if len(f.args) != len(at.args):
                continue
            nb = dict(b)
            ok = True
            for pat, val in zip(at.args, f.args):
                if isinstance(pat, Variable):
                    bound = nb.get(pat)
                    if bound is None:
                        nb[pat] = val
                    elif bound != val:
                        ok = False
                        break
                elif pat != val:
                    ok = False
                    break
            if ok:
                yield from extend(i + 1, nb)

    yield from extend(0, binding or {})


def ref_satisfies(I, c, a):
    body = instantiate(c.body, a)
    if not body <= I.facts:
        return True
    if c.kind == EGD:
        left, right = c.equated
        return a[left] == a[right]
    base = {v: a[v] for v in c.body_vars if v in a}
    for _ in ref_match_conjunction(c.head, I, base):
        return True
    return False


def ref_find_violations(I, c):
    seen = set()
    out = []
    candidates = ref_match_conjunction(c.body, I) if c.body else iter([{}])
    for a in candidates:
        key = tuple(a[v] for v in c.body_vars)
        if key in seen:
            continue
        seen.add(key)
        if not ref_satisfies(I, c, a):
            out.append(a)
    out.sort(key=lambda a: tuple(value_key(a[v]) for v in c.body_vars))
    return out


def ref_delta_matches(facts, c, new):
    """The semi-naive delta as model.body_matches computed it before the
    chase compiled it into a watch list: the body matches of c in facts
    that map some body atom onto a fact of new, as value tuples over
    c.body_vars, with repeats. Body atom by body atom, each new fact of its
    relation and arity is bound to it and the rest joined in facts."""
    for i, at in enumerate(c.body):
        rest = c.body[:i] + c.body[i + 1:]
        for f in new:
            if f.relation != at.relation or len(f.args) != len(at.args):
                continue
            b = {}
            if _bind(at.args, f.args, b, Variable) is None:
                continue
            for m in join(rest, facts, b):
                yield tuple(m[v] for v in c.body_vars)


def old_value_key(v):
    """value_key as it was before each value carried its order."""
    if isinstance(v, Constant):
        return (0, v.name)
    if isinstance(v, LabeledNull):
        return (1, v.creation_index, v.name)
    raise ValueError(f"not a value: {v!r}")


def ref_chase_step(I, c, a):
    recorded = tuple((v.name, a[v]) for v in c.body_vars)
    if c.kind == TGD:
        used = {t.name for f in I.facts for t in f.args
                if isinstance(t, LabeledNull)}
        counter = I.null_counter
        ext = dict(a)
        fresh = []
        for v in c.existential_vars:
            while f"n{counter}" in used:
                counter += 1
            n = LabeledNull(f"n{counter}", counter)
            used.add(n.name)
            counter += 1
            ext[v] = n
            fresh.append(n)
        added = instantiate(c.head, ext)
        fresh_with_pos = tuple(
            (n, frozenset(Position(f.relation, i + 1)
                          for f in added for i, t in enumerate(f.args) if t == n))
            for n in fresh)
        return (Instance(I.facts | added, counter),
                ChaseStepRecord(0, c.id, recorded, added, None, fresh_with_pos))
    left, right = c.equated
    u, v = a[left], a[right]
    if u == v:
        raise ValueError("chase_step called on a satisfied equality")
    if isinstance(u, Constant) and isinstance(v, Constant):
        raise ChaseFailed(u, v)
    survivor, loser = sorted((u, v), key=value_key)
    return (Instance(replace_value(I.facts, loser, survivor), I.null_counter),
            ChaseStepRecord(0, c.id, recorded, frozenset(), (survivor, loser), ()))


def ref_chase(I, sigma, policy=ChasePolicy()):
    """Full rescan per step: det takes the least violation of the first
    constraint (round-robin) that has one, rand draws from every violation.
    A monitored run carries the graph that replaying its steps builds."""
    res = _ref_chase_run(I, sigma, policy)
    if policy.monitor_k is None:
        return res
    return res._replace(monitor=library_graph(ref_build_monitor(res.steps, sigma)))


def _ref_chase_run(I, sigma, policy):
    monitor = None
    if policy.monitor_k is not None:
        monitor = RefMonitorGraph.empty()
    rng = random.Random(policy.seed) if policy.order == "rand" else None
    sigma = list(sigma)
    current = I
    steps = []
    pointer = 0
    while True:
        if rng is None:
            pick = None
            for off in range(len(sigma)):
                idx = (pointer + off) % len(sigma)
                vs = ref_find_violations(current, sigma[idx])
                if vs:
                    pick = idx, vs[0]
                    break
        else:
            pool = [(idx, a) for idx, c in enumerate(sigma)
                    for a in ref_find_violations(current, c)]
            pick = pool[rng.randrange(len(pool))] if pool else None
        if pick is None:
            return ChaseResult(TERMINATED, current, tuple(steps))
        if policy.max_steps is not None and len(steps) >= policy.max_steps:
            return ChaseResult(ABORTED, current, tuple(steps),
                               abort_reason=STEP_LIMIT)
        idx, a = pick
        c = sigma[idx]
        try:
            nxt, rec = ref_chase_step(current, c, a)
        except ChaseFailed as f:
            return ChaseResult(FAILED, current, tuple(steps),
                               failed_step=len(steps), clash=f.clash)
        rec = ChaseStepRecord(len(steps), rec.constraint_id, rec.assignment,
                              rec.added_facts, rec.merged_pair, rec.fresh_nulls)
        steps.append(rec)
        if monitor is not None:
            monitor = ref_monitor_update(monitor, rec, instantiate(c.body, a))
            cyc, chain = ref_is_k_cyclic(monitor, policy.monitor_k)
            if cyc:
                return ChaseResult(ABORTED, nxt, tuple(steps),
                                   abort_reason=K_CYCLIC, abort_k=policy.monitor_k,
                                   kcyclic_chain=chain)
        current = nxt
        pointer = (idx + 1) % len(sigma)


def ref_find_homomorphism(source, target):
    """Recursive backtracking over the source facts in fact order."""
    by_rel = _facts_by_relation(target)
    facts = sorted(source.facts, key=fact_key)

    def extend(i, h):
        if i == len(facts):
            return dict(h)
        f = facts[i]
        for g in by_rel.get(f.relation, ()):
            if len(g.args) != len(f.args):
                continue
            nh = dict(h)
            ok = True
            for s, t in zip(f.args, g.args):
                if isinstance(s, Constant):
                    if s != t:
                        ok = False
                        break
                else:
                    bound = nh.get(s)
                    if bound is None:
                        nh[s] = t
                    elif bound != t:
                        ok = False
                        break
            if ok:
                res = extend(i + 1, nh)
                if res is not None:
                    return res
        return None

    h = extend(0, {})
    if h is None:
        return None
    for v in source.domain():
        if isinstance(v, Constant):
            h[v] = v
        else:
            h.setdefault(v, v)
    return h


# ---------------------------------------------------------------------------
# The firing-witness search as it was before it pruned: every restricted-
# growth assignment of alpha, then of beta, reaches ref_holds, the judge as
# it was before it ran its checks cheapest first and on bare fact sets. The
# pruned search must find the same first witness. It keeps the search's own
# unifier and instance builder, which the package replaced with
# model._bind and model.instance.
# ---------------------------------------------------------------------------


def old_trigger(I, beta, b):
    """Does b hold no placeholder and map beta's body into I? The judge
    must reject every such b (see "new")."""
    return (not any(_is_placeholder(v) for v in b.values())
            and instantiate(beta.body, b) <= I.facts)


def ref_step(alpha, a):
    """The step of alpha under a, without taking it: for a TGD alpha the
    instantiated head in fact order, existential i replaced by the
    placeholder null of creation index _PLACEHOLDER_BASE + i, and for an
    EGD alpha (survivor, loser), the one of lower sort key surviving."""
    if alpha.kind == TGD:
        ext = dict(a)
        for i, v in enumerate(ref_shape(alpha)["existential_vars"]):
            ext[v] = LabeledNull(f"~f{i}", _PLACEHOLDER_BASE + i)
        return sorted({_ground(at, ext) for at in alpha.head}, key=fact_key)
    left, right = alpha.equated
    return tuple(sorted((a[left], a[right]), key=value_key))


def settled_trigger(alpha, a, beta, b):
    """Does beta's head under b hold in the step's image of alpha's body
    image: for a TGD alpha the body image plus the added facts, with
    placeholders for the fresh nulls, and for an EGD alpha the body image
    with the loser renamed to the survivor? The judge must reject every
    such b (see "settled")."""
    base = {_ground(at, a) for at in alpha.body}
    if alpha.kind == TGD:
        image = base | set(ref_step(alpha, a))
    else:
        survivor, loser = ref_step(alpha, a)
        image = replace_value(base, loser, survivor)
    if beta.kind == EGD:
        left, right = beta.equated
        return b[left] == b[right]
    bound = {v: b[v] for v in beta.body_vars}
    matches = ref_match_conjunction(beta.head, Instance(frozenset(image)), bound)
    return next(matches, None) is not None


def no_step(alpha, a):
    """Is a no violation of alpha in any instance that holds its body
    image, or does its step fail? For a TGD alpha, does the head hold in
    the body image alone; for an EGD alpha, are the equated values equal,
    or two constants? The search must skip exactly these a."""
    if alpha.kind == EGD:
        u, v = (a[x] for x in alpha.equated)
        return u == v or isinstance(u, Constant) and isinstance(v, Constant)
    base = Instance(frozenset(_ground(at, a) for at in alpha.body))
    bound = {v: a[v] for v in alpha.body_vars}
    return next(ref_match_conjunction(alpha.head, base, bound), None) is not None


def ref_holds(I, alpha, a, beta, b, P, mode):
    """Check all conditions concretely. b may still contain placeholders for
    alpha's fresh nulls; returns the resolved (b, J) on success."""
    if mode == PRECEDES_P:
        for f in I.facts:
            for i, t in enumerate(f.args):
                if isinstance(t, LabeledNull) and Position(f.relation, i + 1) not in P:
                    return None
    if satisfies(I, alpha, a):
        return None
    try:
        J, rec = chase_step(I, alpha, a)
    except (ChaseFailed, ValueError):
        return None
    fresh = [n for n, _ in rec.fresh_nulls]
    rb = {}
    for var, val in b.items():
        if _is_placeholder(val):
            val = fresh[val.creation_index - _PLACEHOLDER_BASE]
        rb[var] = val
    if not satisfies(I, beta, rb):
        return None
    if satisfies(J, beta, rb):
        return None
    if mode == PRECEDES_P:
        if not any(isinstance(rb[v], LabeledNull)
                   for v in head_vars(beta) if v in rb):
            return None
    return rb, J


def _unify(pattern, fact, bound):
    if pattern.relation != fact.relation or len(pattern.args) != len(fact.args):
        return None
    b = dict(bound)
    for t, val in zip(pattern.args, fact.args):
        if isinstance(t, Variable):
            if t in b:
                if b[t] != val:
                    return None
            else:
                b[t] = val
        elif t != val:
            return None
    return b


def _subset_matches(atoms, facts):
    """Every way to match a non-empty subset of atoms into facts; yields the
    bindings and the unmatched remainder."""

    def go(i, bound, deferred, matched):
        if i == len(atoms):
            if matched:
                yield bound, deferred
            return
        at = atoms[i]
        yield from go(i + 1, bound, deferred + [at], matched)
        for f in facts:
            b2 = _unify(at, f, bound)
            if b2 is not None:
                yield from go(i + 1, b2, deferred, True)

    yield from go(0, {}, [], False)


def _mk_instance(facts):
    counter = 1
    for f in facts:
        for t in f.args:
            if isinstance(t, LabeledNull):
                counter = max(counter, t.creation_index + 1)
    return Instance(facts, counter)


def _ground(atom, b):
    args = tuple(b[t] if isinstance(t, Variable) else t for t in atom.args)
    return Atom(atom.relation, args)


def _ref_extensions(vars_seq, bound, pool, named, fresh_count):
    if not vars_seq:
        yield bound, pool, fresh_count
        return
    v, rest = vars_seq[0], vars_seq[1:]
    if v in bound:
        yield from _ref_extensions(rest, bound, pool, named, fresh_count)
        return
    options = []
    for val in pool + named:
        if val not in options:
            options.append(val)
    for val in options:
        yield from _ref_extensions(rest, {**bound, v: val}, pool, named, fresh_count)
    taken = frozenset(c.name for c in named)
    for val in _new_symbols(fresh_count, taken):
        yield from _ref_extensions(rest, {**bound, v: val}, pool + (val,), named,
                                   fresh_count + 1)


def _ref_tgd_candidates(alpha, a, beta, pool, named, fresh_count):
    pattern = ref_step(alpha, a)
    for b0, deferred in _subset_matches(list(beta.body), pattern):
        remaining = [v for v in beta.body_vars if v not in b0]
        for b, _, _ in _ref_extensions(remaining, b0, pool, named, fresh_count):
            B = set()
            ok = True
            for at in deferred:
                f = _ground(at, b)
                if any(_is_placeholder(t) for t in f.args):
                    ok = False
                    break
                B.add(f)
            if ok:
                yield b, frozenset(B)


def _ref_egd_candidates(alpha, a, beta, pool, named, fresh_count):
    left, right = alpha.equated
    u, v = a[left], a[right]
    if u == v or (isinstance(u, Constant) and isinstance(v, Constant)):
        return
    survivor, loser = sorted((u, v), key=value_key)
    for b, _, _ in _ref_extensions(list(beta.body_vars), {}, pool, named, fresh_count):
        if loser in b.values():
            continue
        image = sorted(instantiate(beta.body, b), key=fact_key)
        per_atom = []
        for f in image:
            slots = [i for i, t in enumerate(f.args) if t == survivor]
            choices = []
            for picks in product((survivor, loser), repeat=len(slots)):
                args = list(f.args)
                for slot, val in zip(slots, picks):
                    args[slot] = val
                choices.append(Atom(f.relation, tuple(args)))
            per_atom.append(choices)
        for combo in product(*per_atom):
            yield b, frozenset(combo)


def _ref_alpha_assignments(alpha, named):
    """Every restricted-growth assignment of alpha; then, for an EGD alpha,
    each of them that equates two distinct nulls again, with those two
    nulls exchanged, so that the other one survives the merge."""
    yield from _ref_extensions(list(alpha.body_vars), {}, (), named, 0)
    if alpha.kind == TGD:
        return
    left, right = alpha.equated
    for a, pool, fc in _ref_extensions(list(alpha.body_vars), {}, (), named, 0):
        u, v = a[left], a[right]
        if u != v and isinstance(u, LabeledNull) and isinstance(v, LabeledNull):
            swap = {u: v, v: u}
            yield {x: swap.get(val, val) for x, val in a.items()}, pool, fc


def ref_search(alpha, beta, P, mode):
    """The first witness of the unpruned enumeration, or None; P is used
    as given, so callers pass frozenset() under PRECEDES."""
    if alpha.kind == TGD:
        added = {f.relation for f in alpha.head}
        if not any(f.relation in added for f in beta.body):
            return None
    named = _named_constants(alpha, beta)
    for a, pool, fc in _ref_alpha_assignments(alpha, named):
        base = instantiate(alpha.body, a)
        if alpha.kind == TGD:
            candidates = _ref_tgd_candidates(alpha, a, beta, pool, named, fc)
        else:
            candidates = _ref_egd_candidates(alpha, a, beta, pool, named, fc)
        for b, B in candidates:
            I = _mk_instance(base | B)
            got = ref_holds(I, alpha, a, beta, b, P, mode)
            if got is None:
                continue
            rb, J = got
            return Witness(
                alpha.id, beta.id, I,
                tuple((v.name, a[v]) for v in alpha.body_vars),
                tuple((v.name, rb[v]) for v in beta.body_vars),
                J)
    return None


def ref_egd_exists(alpha, beta, P, mode):
    """A firing scenario (I, a, b, J) of an EGD alpha built from a merge
    unifier, or None: the reference for the existence check, which tries
    only the largest loser slot set. Each choice fixes the survivor's
    variable among alpha's equated pair, the survivor (a fresh null, a
    fresh constant, or a constant of beta's body), a set M of beta's body
    variables that take the survivor, and a non-empty set L of the slots
    of beta's body that hold the survivor under b, where I holds the
    loser instead. Every other variable of the two rules takes a value of
    its own, a null exactly when all its positions in I lie in P. Each
    candidate goes to ref_holds. P is used as given."""
    named = sorted({t for at in beta.body for t in at.args
                    if isinstance(t, Constant)}, key=value_key)
    loser = LabeledNull("q_loser", 2)
    for keep, lose in (alpha.equated, alpha.equated[::-1]):
        for survivor in [LabeledNull("q_survivor", 1), Constant("q_survivor")] + named:
            for k in range(len(beta.body_vars) + 1):
                for M in combinations(beta.body_vars, k):
                    slots = [(j, i) for j, at in enumerate(beta.body)
                             for i, t in enumerate(at.args)
                             if t in M or t == survivor]
                    for n in range(1, len(slots) + 1):
                        for L in combinations(slots, n):
                            got = _ref_merge_candidate(alpha, beta, P, mode, keep,
                                                       lose, survivor, loser, M, L)
                            if got is not None:
                                return got
    return None


def _ref_merge_candidate(alpha, beta, P, mode, keep, lose, survivor, loser, M, L):
    """The candidate of one choice of ref_egd_exists, judged by ref_holds."""
    # I's atoms, each term a constant, the loser or a tagged variable
    atoms = [(at.relation, [("a", t) if isinstance(t, Variable) else t
                            for t in at.args]) for at in alpha.body]
    atoms += [(at.relation, [loser if (j, i) in L
                             else ("b", t) if isinstance(t, Variable) else t
                             for i, t in enumerate(at.args)])
              for j, at in enumerate(beta.body)]
    value = {("a", keep): survivor, ("a", lose): loser}
    value.update((("b", v), survivor) for v in M)
    where = {}
    for rel, terms in atoms:
        for i, t in enumerate(terms):
            if isinstance(t, tuple):
                where.setdefault(t, set()).add(Position(rel, i + 1))
    for n, (t, ps) in enumerate(where.items(), 3):
        if t not in value:
            value[t] = LabeledNull(f"q{n}", n) if ps <= P else Constant(f"q{n}")
    I = _mk_instance(frozenset(
        Atom(rel, tuple(value[t] if isinstance(t, tuple) else t for t in terms))
        for rel, terms in atoms))
    a = {v: value[("a", v)] for v in alpha.body_vars}
    b = {v: value[("b", v)] for v in beta.body_vars}
    got = ref_holds(I, alpha, a, beta, b, P, mode)
    return None if got is None else (I, a, got[0], got[1])


# A firing scenario found by planting facts, with no canonical enumeration.
BF_DOMAIN = (Constant("k1"), Constant("k2"), LabeledNull("m1", 1),
             LabeledNull("m2", 2))


def bf_firing(alpha, beta, P, mode, cap=2):
    """A firing scenario (I, a, b, J) found by brute force, or None.

    a ranges over every assignment of alpha's body into BF_DOMAIN plus the
    constants the two rules name. I is a's body image plus extra facts over
    the relations of beta's body: a scenario keeps every condition when I
    loses the facts that b's body does not use, and b's body needs at most
    one extra per atom, one fewer for a TGD alpha, whose step adds at least
    one of its facts. Capped at cap, two by default, which covers bodies
    of up to two atoms. The step is ref_chase_step, every b is a body match
    of beta in J (ref_match_conjunction), and each condition is checked
    with bf_satisfies. P is used as given."""
    named = {t for c in (alpha, beta) for f in c.body + c.head for t in f.args
             if isinstance(t, Constant)}
    dom = list(BF_DOMAIN) + sorted(named - set(BF_DOMAIN), key=value_key)
    guarded = mode == PRECEDES_P

    def allowed(facts):
        return not guarded or all(
            Position(f.relation, i + 1) in P for f in facts
            for i, t in enumerate(f.args) if isinstance(t, LabeledNull))

    rels = sorted({(f.relation, len(f.args)) for f in beta.body})
    facts = (Atom(rel, args) for rel, n in rels for args in product(dom, repeat=n))
    extras = [f for f in facts if allowed([f])]
    most = max(0, min(cap, len(beta.body) - (alpha.kind == TGD)))
    frontier = [v for v in head_vars(beta) if v in beta.body_vars]
    for vals in product(dom, repeat=len(alpha.body_vars)):
        a = dict(zip(alpha.body_vars, vals))
        base = instantiate(alpha.body, a)
        if not allowed(base):
            continue
        for k in range(most + 1):
            for extra in combinations(extras, k):
                I = _mk_instance(base | frozenset(extra))
                if bf_satisfies(I, alpha, a):
                    continue
                try:
                    J, _ = ref_chase_step(I, alpha, a)
                except ChaseFailed:
                    continue
                for b in ref_match_conjunction(beta.body, J):
                    if (not bf_satisfies(J, beta, b) and bf_satisfies(I, beta, b)
                            and (not guarded or any(isinstance(b[v], LabeledNull)
                                                    for v in frontier))):
                        return I, a, b, J
    return None


# ---------------------------------------------------------------------------
# The chase graph and the minimal restriction system as they were before
# witnesses were built on demand: each edge's witness is built through
# can_cause as the edge is found, and kept in a plain dict.
# ---------------------------------------------------------------------------


def ref_chase_graph(sigma, answers=None) -> ChaseGraph:
    sigma = tuple(sigma)
    witnesses = {}
    for a in sigma:
        for b in sigma:
            w = can_cause(a, b, mode=PRECEDES, answers=answers)
            if w is not None:
                witnesses[(a.id, b.id)] = w
    return ChaseGraph(sigma, tuple(sorted(witnesses)), witnesses)


def ref_minimal_restriction_system(sigma, answers=None) -> RestrictionSystem:
    answers = {} if answers is None else answers
    by_id = {c.id: c for c in sigma}
    f = {c.id: frozenset() for c in sigma}
    witnesses = {}
    changed = True
    while changed:
        changed = False
        for a in sigma:
            for b in sigma:
                if (a.id, b.id) in witnesses:
                    continue
                w = can_cause(a, b, f[a.id], PRECEDES_P, answers)
                if w is not None:
                    witnesses[(a.id, b.id)] = w
                    changed = True
        for (aid, bid) in sorted(witnesses):
            a = by_id[aid]
            add = aff_cl(a, f[aid]) if a.kind == TGD else f[aid]
            add &= by_id[bid].body_positions
            if not add <= f[bid]:
                f[bid] |= add
                changed = True
    return RestrictionSystem(tuple(sigma), tuple(sorted(witnesses)), f, witnesses)


# ---------------------------------------------------------------------------
# The monitor as it was before each run owned one graph. The graph was
# persistent and every step copied it. A step found its source nulls by
# scanning every live null. The command built the graph a second time after
# the run, by replaying its steps. The node and edge classes and their keys
# are the package's own.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RefMonitorGraph:
    nodes: frozenset
    edges: frozenset
    live: Dict[LabeledNull, MonitorNode]   # current null -> its node
    chains: Dict[Tuple, Tuple[MonitorEdge, ...]]  # (node, class) -> longest chain ending there

    @classmethod
    def empty(cls) -> "RefMonitorGraph":
        return cls(frozenset(), frozenset(), {}, {})


def ref_monitor_update(G: RefMonitorGraph, step: ChaseStepRecord,
                       body_instantiation) -> RefMonitorGraph:
    """Fold one chase step into the monitor graph."""
    if step.merged_pair is not None:
        survivor, loser = step.merged_pair
        node = G.live.get(loser) if isinstance(loser, LabeledNull) else None
        if node is None:
            return G
        live = dict(G.live)
        del live[loser]
        if isinstance(survivor, LabeledNull) and survivor not in live:
            live[survivor] = node
        return dataclasses.replace(G, live=live)
    if not step.fresh_nulls:
        return G

    new_nodes = [MonitorNode(n, ps) for n, ps in step.fresh_nulls]
    sources = []
    for null, node in G.live.items():
        occ = term_positions(body_instantiation, null)
        if occ:
            sources.append((node, occ))

    new_edges = [
        MonitorEdge(src, step.constraint_id, occ, tgt)
        for src, occ in sources for tgt in new_nodes]

    live = dict(G.live)
    for node in new_nodes:
        live[node.null] = node
    chains = dict(G.chains)
    for e in sorted(new_edges, key=edge_key):
        key = edge_class(e)
        prefix = chains.get((e.source, key), ())
        chain = prefix + (e,)
        if len(chain) > len(chains.get((e.target, key), ())):
            chains[(e.target, key)] = chain
    return RefMonitorGraph(G.nodes | frozenset(new_nodes),
                           G.edges | frozenset(new_edges), live, chains)


def ref_is_k_cyclic(G, k: int) -> Tuple[bool, Optional[Tuple[MonitorEdge, ...]]]:
    """Is there a consecutive chain of k distinct same-class edges? Returns
    the offending chain when so."""
    if k < 1:
        raise ValueError("k must be at least 1")
    best = None
    for chain in G.chains.values():
        if len(chain) >= k:
            witness = chain[-k:]
            if best is None or tuple(map(edge_key, witness)) < tuple(map(edge_key, best)):
                best = witness
    return (best is not None), best


def ref_monitor_trace(steps: Sequence[ChaseStepRecord],
                      sigma: Sequence[Constraint]) -> Iterator[RefMonitorGraph]:
    """Fold recorded steps in, yielding the monitor graph after each one."""
    by_id = {c.id: c for c in sigma}
    G = RefMonitorGraph.empty()
    for rec in steps:
        c = by_id[rec.constraint_id]
        a = {Variable(name): val for name, val in rec.assignment}
        G = ref_monitor_update(G, rec, instantiate(c.body, a))
        yield G


def ref_build_monitor(steps: Sequence[ChaseStepRecord],
                      sigma: Sequence[Constraint]) -> RefMonitorGraph:
    """The monitor graph of a completed run."""
    G = RefMonitorGraph.empty()
    for G in ref_monitor_trace(steps, sigma):
        pass
    return G


def library_graph(G: RefMonitorGraph) -> MonitorGraph:
    """G as the package's graph type, with `longest` read off its chains,
    so that strict() compares it with a run's own graph."""
    return MonitorGraph(set(G.nodes), set(G.edges), dict(G.live), dict(G.chains),
                        max((len(c) for c in G.chains.values()), default=0))


# ---------------------------------------------------------------------------
# The graph toolkit as it was before one breadth-first search served it:
# Tarjan's algorithm, iterative, over a deduplicated adjacency, and a
# shortest path found level by level.
# ---------------------------------------------------------------------------


def adjacency(nodes, edges):
    adj = {u: [] for u in nodes}
    seen = set()
    for u, v in edges:
        if (u, v) in seen:
            continue
        seen.add((u, v))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, [])
    return adj


def strongly_connected_components(nodes, edges):
    """Tarjan's algorithm, iterative. Components come out in reverse
    topological order of the condensation."""
    adj = adjacency(nodes, edges)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0

    for root in list(adj):
        if root in index:
            continue
        # frames: (node, iterator over successors)
        frames = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while frames:
            u, it = frames[-1]
            advanced = False
            for v in it:
                if v not in index:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack.add(v)
                    frames.append((v, iter(adj[v])))
                    advanced = True
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[u])
            if low[u] == index[u]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == u:
                        break
                components.append(frozenset(comp))
    return components


def ref_nontrivial_components(nodes, edges):
    edge_set = set(edges)
    return [comp for comp in strongly_connected_components(nodes, edge_set)
            if len(comp) > 1 or any((u, u) in edge_set for u in comp)]


def ref_shortest_path(start, goal, edges):
    """A shortest path from start to goal, or None; ties break by edge
    order."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    prev = {}
    seen = {start}
    queue = [start]
    while queue:
        nxt = []
        for u in queue:
            if u == goal:
                path = [u]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    prev[v] = u
                    nxt.append(v)
        queue = nxt
    return None


def ref_cycle_through(edges, marked):
    all_edges = list(edges)
    for u, v in marked:
        if u == v:
            return [u, u]
        p = ref_shortest_path(v, u, all_edges)
        if p is not None:
            return [u] + p
    return None


# ---------------------------------------------------------------------------
# The parser as it was before one regular expression scanned the text: a
# character loop that tracks line and column by hand, and a second
# validation pass over the parsed instance.
# ---------------------------------------------------------------------------

class _RefToken(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_REF_PUNCT = {"(": "(", ")": ")", ",": ",", "=": "=", ".": ".", ":": ":"}


def _ref_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _ref_tokenize(text: str) -> List[_RefToken]:
    toks: List[_RefToken] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(_RefToken("->", "->", line, col))
            i += 2
            col += 2
        elif ch in _REF_PUNCT:
            toks.append(_RefToken(_REF_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
        elif ch == "?":
            j = i + 1
            while j < n and _ref_ident_char(text[j]):
                j += 1
            if j == i + 1:
                raise ParseError("'?' must be followed by a null name", line, col)
            toks.append(_RefToken("null", text[i + 1:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and _ref_ident_char(text[j]):
                j += 1
            toks.append(_RefToken("ident", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_RefToken("eof", "", line, col))
    return toks


class _RefParser:
    def __init__(self, text: str):
        self.toks = _ref_tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> _RefToken:
        return self.toks[self.pos]

    def peek(self, ahead: int = 1) -> _RefToken:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> _RefToken:
        t = self.cur
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _RefToken:
        if self.cur.kind != kind:
            self.fail(f"expected {what}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def fail(self, msg: str):
        raise ParseError(msg, self.cur.line, self.cur.col)

    def atom(self, term) -> Atom:
        rel = self.expect("ident", "a relation name")
        self.expect("(", "'('")
        args = [term()]
        while self.cur.kind == ",":
            self.advance()
            args.append(term())
        self.expect(")", "')'")
        return Atom(rel.text, tuple(args))

    def atoms(self, term) -> List[Atom]:
        out = [self.atom(term)]
        while self.cur.kind == ",":
            self.advance()
            out.append(self.atom(term))
        return out


def _ref_rule_term(p: _RefParser):
    if p.cur.kind == "null":
        p.fail("nulls cannot occur in rules")
    t = p.expect("ident", "a variable or constant")
    if t.text[0].isupper():
        return Variable(t.text)
    return Constant(t.text)


def ref_parse_constraints(text: str) -> ConstraintDocument:
    p = _RefParser(text)
    out: List[Constraint] = []
    arities: Dict[str, int] = {}
    used = set()
    serial = 0
    while p.cur.kind != "eof":
        start = p.cur
        label = None
        if p.cur.kind == "ident" and p.peek().kind == ":":
            label = p.advance().text
            p.advance()
        if p.cur.kind == "ident" and p.cur.text == "true" and p.peek().kind == "->":
            p.advance()
            body: List[Atom] = []
        else:
            body = p.atoms(lambda: _ref_rule_term(p))
        p.expect("->", "'->'")
        if label is None:
            serial += 1
            label = f"c{serial}"
        if label in used:
            raise ParseError(f"duplicate rule label {label!r}", start.line, start.col)
        used.add(label)
        if p.cur.kind == "ident" and p.peek().kind == "=":
            left = p.advance()
            p.advance()
            right = p.expect("ident", "a variable")
            for side in (left, right):
                if not side.text[0].isupper():
                    raise ParseError("an equality must relate two variables",
                                     side.line, side.col)
            maker = lambda: egd(label, body, Variable(left.text), Variable(right.text))
        else:
            head = p.atoms(lambda: _ref_rule_term(p))
            maker = lambda: tgd(label, body, head)
        p.expect(".", "'.'")
        try:
            c = maker()
            arities = check_arities(tuple(c.body) + tuple(c.head), arities)
        except ModelError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
        out.append(c)
    return ConstraintDocument(tuple(out))


def ref_parse_instance(text: str, as_query: bool = False) -> Instance:
    p = _RefParser(text)
    nulls: Dict[str, LabeledNull] = {}

    def null_for(name: str) -> LabeledNull:
        if name not in nulls:
            nulls[name] = LabeledNull(name, len(nulls) + 1)
        return nulls[name]

    def term():
        if p.cur.kind == "null":
            return null_for(p.advance().text)
        t = p.expect("ident", "a constant or null")
        if t.text[0].isupper():
            if not as_query:
                raise ParseError(
                    f"variable {t.text} in an instance (write ?{t.text.lower()},"
                    " or read the file as a query)", t.line, t.col)
            return null_for(t.text)
        return Constant(t.text)

    facts: List[Atom] = []
    arities: Dict[str, int] = {}
    while p.cur.kind != "eof":
        start = p.cur
        facts.append(p.atom(term))
        p.expect(".", "'.'")
        try:
            arities = check_arities(facts[-1:], arities)
        except ModelError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
    return instance(facts)


# ---------------------------------------------------------------------------
# Report JSON as the standard library writes it
# ---------------------------------------------------------------------------

def ref_to_json(payload) -> str:
    """The text reports.to_json must give for payload, byte for byte."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def ref_fact_key(a: Atom) -> Tuple:
    """fact_key as it was: the values' orders in a tuple of their own."""
    return (a.relation, len(a.args), tuple(map(value_key, a.args)))


def _ref_facts(facts) -> List[str]:
    return list(map(repr, sorted(facts, key=ref_fact_key)))


def ref_step_dict(rec: ChaseStepRecord) -> dict:
    """One step of a chase report as a dict."""
    return {
        "index": rec.index,
        "constraint": rec.constraint_id,
        "assignment": {name: repr(v) for name, v in rec.assignment},
        "added": _ref_facts(rec.added_facts),
        "merged": (None if rec.merged_pair is None
                   else list(map(repr, rec.merged_pair))),
    }


def ref_chase_report(res: ChaseResult, include_trace: bool = True) -> dict:
    """What reports.chase_report renders, as plain JSON-ready values."""
    out = {
        "outcome": res.outcome,
        "steps": len(res.steps),
        "final": _ref_facts(res.final.facts),
        "failed_step": res.failed_step,
        "clash": (None if res.clash is None
                  else list(map(repr, res.clash))),
        "abort_reason": res.abort_reason,
        "abort_k": res.abort_k,
    }
    if include_trace:
        out["trace"] = [ref_step_dict(rec) for rec in res.steps]
    return out


# ---------------------------------------------------------------------------
# A constraint's shape as it was computed before one walk filled it: each
# field walked the atoms on its own, on its first read.
# ---------------------------------------------------------------------------


def conjunction_vars(atoms):
    """Variables of a conjunction in first-occurrence order."""
    return list(dict.fromkeys(t for a in atoms for t in a.args
                              if t.__class__ is Variable))


def occurrences(atoms, kind):
    """Each term of class kind in atoms, mapped to the positions at which it
    occurs, in first-occurrence order and without repeats."""
    out = {}
    for a in atoms:
        for i, t in enumerate(a.args):
            if t.__class__ is kind:
                out.setdefault(t, {})[Position(a.relation, i + 1)] = None
    return {t: tuple(ps) for t, ps in out.items()}


def head_vars(c):
    """c's head variables in first-occurrence order; an EGD's equated pair."""
    return c.equated if c.kind == EGD else tuple(conjunction_vars(c.head))


def ref_shape(c):
    """Every shape field of c, by its old definition."""
    body_vars = tuple(conjunction_vars(c.body))
    bv = set(body_vars)
    existential_vars = () if c.kind != TGD else tuple(
        v for v in conjunction_vars(c.head) if v not in bv)
    head_occ = occurrences(c.head, Variable)
    body_positions = frozenset(p for a in c.body for p in a.positions)
    positions = set(body_positions)
    for a in c.head:
        positions.update(a.positions)
    return {
        "body_vars": body_vars,
        "body_var_names": tuple(v.name for v in body_vars),
        "existential_vars": existential_vars,
        "existential_positions": frozenset(
            p for v in existential_vars for p in head_occ[v]),
        "frontier": tuple(v for v in head_vars(c) if v in bv),
        "equated_slots": None if c.kind == TGD else (
            body_vars.index(c.equated[0]), body_vars.index(c.equated[1])),
        "constants": tuple(sorted({t for a in c.body + c.head for t in a.args
                                   if t.__class__ is Constant}, key=value_key)),
        "body_positions": body_positions,
        "positions": frozenset(positions),
        "body_var_positions": occurrences(c.body, Variable),
        "head_var_positions": head_occ,
        "atom_positions": {a: a.positions for a in c.body + c.head},
    }


def ref_never_violated(c):
    """Does c's head map into its own body, body variables fixed? Decided
    by the join alone."""
    if c.kind != TGD:
        return False
    frozen = {v: LabeledNull(v.name) for v in conjunction_vars(c.body)}
    image = Instance(instantiate(c.body, frozen))
    return next(ref_match_conjunction(c.head, image, frozen), None) is not None
