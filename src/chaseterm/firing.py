"""The firing relation between constraints.

can_cause(alpha, beta, P, mode) asks: is there an instance I and assignments
a, b such that applying alpha on (I, a) yields a J in which b newly violates
beta? Six conditions define the positive answer: (a is a violation of alpha
in I; b is not one in I; the step applies; b violates beta in J; and, in the
position-guarded mode, nulls of I sit only in positions from P and b puts a
null into beta's head). chase_graph tabulates the relation over every pair
of a set, the chase graph of Deutsch, Nash and Remmel ("The chase
revisited", PODS 2008).

The search enumerates candidates and hands each to a concrete validator,
the judge, that checks every condition with the ordinary satisfaction test,
so the enumeration may overapproximate freely. Candidates are built
canonically: assignment values are either constants named in the two
constraints or pool symbols introduced in first-use order, each new symbol
tried both as a constant and as a null (a restricted-growth enumeration, so
isomorphic candidates are generated once). For a TGD alpha the candidate
instance is a's body image plus the beta-body atoms not matched into the
step's added facts; matching into added facts uses placeholder nulls that
stand for the step's fresh nulls. For an EGD alpha the extra atoms range
over the pre-images of b's body image under the merge, which is where a
merge can complete a previously absent body.

Orientation. A merge of two nulls keeps the one of lower creation index,
and the restricted-growth order gives the pool null introduced first the
lower index, so in the canonical pass the null of alpha's earlier variable
always survives. Where that pass finds no witness for an EGD alpha, a
second pass runs over those of the same assignments that equate two
nulls, each with the two exchanged wherever they occur, so that the other
one survives. Its candidates read survivor and loser off the same
order that the step reads, so the step of its witness merges the way they
assumed. A witness of the first pass ends the search before the second
pass starts, so the second changes no witness the first finds.

The judge takes no step. The candidate generators build the step's image
of alpha's body image base once per assignment a: for a TGD alpha, base
plus the instantiated head with placeholders for the fresh nulls; for an
EGD alpha, base with the loser renamed to the survivor. "b violates beta
in J" is checked on that image plus B, for an EGD alpha plus B renamed,
with b unresolved. This is exact. For an EGD alpha the set is J itself,
since the renaming distributes over base | B. For a TGD alpha, J is
I = base | B plus the added facts, and the set is I plus the added facts
with placeholders. Mapping placeholder i to the step's fresh null i maps
one onto the other and fixes every value of I, since neither kind of null
occurs in I: B never holds a placeholder, and the step's nulls are new. It
is an isomorphism, so b violates beta in the image exactly when the b it
resolves to violates beta in J. Only the accepted candidate takes the real
step, once, with chase_step: its record's fresh nulls resolve b, and its
successor is the witness's.

An analysis keeps its answers in one table, Answers, keyed (alpha, beta)
plus the guard and mode the query reads (_normalised). An entry is one of
three kinds: None, no edge; a Witness; or EDGE, the edge mark, which says
that the existence check (see "exists") found an edge, for a TGD or an
EGD alpha, and no witness is built yet. chase_graph and
minimal_restriction_system decide edges from the table and leave marks
alone. Their witnesses mappings build a witness on first read, under the
exact key under which the edge was found, and the witness replaces the
mark in the table. can_cause returns the built witness. So a command that
prints no witness, termcheck, irrelevant or a bare is_* check, runs no
enumeration at all. A mark whose enumeration finds no witness is a fault
of the search, and raises.

Reuse. A PRECEDES_P mark takes the pair's built PRECEDES witness if it
passes the guard and null-copying: the guarded enumeration is the
unguarded one, in its order, with only subtrees cut that fail those two
tests, and its judge adds just them, so that witness is its first.

Ten prunes skip whole subtrees of the enumeration, or the whole search,
in which every candidate fails a check of the validator. They never skip a
candidate the validator would accept, and they keep the order of the rest,
so the first witness found is the one the unpruned enumeration finds.

  guard     Under PRECEDES_P, a variable with a body position outside P never
            takes a null, in alpha's enumeration or in beta's. Every such
            null would sit outside P in the candidate instance I: alpha's
            body image is in I; a beta variable the added facts leave
            unbound occurs only in beta-body atoms that go into I; and a
            merge pre-image keeps a null in every slot where b's body
            image has one, since a null survivor means a null loser.
  satisfied For a TGD alpha, an assignment a whose body image already
            satisfies alpha's head is skipped: each I contains that image,
            so alpha is satisfied in I and a is no violation.
  never     A pair whose alpha or beta is a TGD with a head that maps into
            its own body, body variables fixed, has no witness: the map
            satisfies that head wherever the body image lies, so alpha
            never fires and beta is satisfied in every J.
  body-less A pair whose beta has no body has no witness, whatever alpha
            is. A step maps I into J by a homomorphism: a TGD only adds
            facts, and an EGD renames a null to its survivor (a constant
            always survives; two constants fail the step). So beta's head
            image in I, composed with the step, lies in J, and a beta that
            holds in I holds in J.
  new       A candidate (b, B) whose beta-body image under b already lies in
            I = base | B is skipped: b is not new, whatever the step does.
            If b violates beta in I, it is no witness. Otherwise
            it stays satisfied in J, since the step maps I into J by a
            homomorphism that fixes b's values: the identity for a TGD
            alpha, and for an EGD alpha a renaming of the loser, which b
            never holds. For a TGD alpha the images of the beta atoms
            matched into the added facts are fixed before B is chosen: if
            one holds a placeholder, nothing is skipped; otherwise, with
            old the images outside base, a subtree with no old image is
            skipped whole, and else each B that contains them all. For an
            EGD alpha, each pre-image B that contains the part of b's
            body image outside base is skipped.
  unguarded A PRECEDES_P query is answered None at once when the table
            of the analysis asking (see can_cause) already holds None for
            the same pair under PRECEDES. The unpruned enumeration is the
            same in both modes, and the PRECEDES_P validator checks every
            PRECEDES condition plus the guard and null-copying, so it
            accepts no candidate that the PRECEDES one rejects. The query
            only reads that answer: it never computes a missing one, and
            any other entry leaves it to its own existence check. analyze
            builds the chase graph before the restriction system, over one
            table, so the answer is there when it helps, and a bare
            restriction-system call searches no PRECEDES pair.
  copying   Under PRECEDES_P, a b that puts no null on beta's frontier,
            the head variables of beta that occur in its body, is skipped
            before its instance is built: the null-copying check reads b
            alone, and counts a placeholder as the null it resolves to.
            A beta with no frontier variable has no edge at all.
  settled   A b under which beta's head already holds in the step's image
            of alpha's body image is skipped. For a TGD alpha that image
            is base plus the added facts, placeholders in place of the
            fresh nulls; for an EGD alpha it is base with the loser
            renamed to the survivor. Every J holds the image: resolving
            the placeholders to the step's fresh nulls, in b and in the
            image alike, maps it into J, and a merge fixes b, which never
            holds the loser. So the resolved b satisfies beta in J and
            the validator rejects it. An EGD beta is settled by a b that
            equates a value with itself. The check runs against one index
            built per a, before b's B is built. The enumeration for an EGD
            alpha leaves it to "held": J holds the merged base, and a
            head that holds in a set of facts holds in every superset.
  held      For an EGD alpha, every pre-image B of one b has the same J:
            the merged base plus B renamed, which is b's body image. So
            when beta's head holds in that J under b, every pre-image of
            b is skipped: the validator asks each of them whether b
            violates beta in J, on that same set, and rejects it. The
            check runs once per b, before its pre-images are built.
  exists    In both modes, the search first decides whether any witness
            exists, and answers None at once when none does; otherwise it
            answers EDGE, and the enumeration runs, unchanged, when the
            witness is read. For a TGD alpha it enumerates
            the piece unifiers of a non-empty subset Q of beta's body with
            alpha's head (Baget et al., "On rules with existential
            variables: Walking the decidability line", AIJ 2011): an
            existential of alpha may not unify with a constant, another
            existential or a body variable of alpha, and the beta variables
            it binds may not occur in beta's other atoms, the rest. Each
            unifier has one most general candidate: a class holding a
            constant takes it, an existential's class takes its
            placeholder, and every other class a distinct fresh value, a
            null exactly when all its positions in I = base | B lie in P
            (never under PRECEDES, where P is empty), else a constant. The
            candidate passes the satisfied, copying, new and settled
            filters, which drop only what the validator rejects, before
            the validator judges it.
            Complete: take a witness (I, a, b). Dropping from I every fact
            outside base and the body image of b keeps each condition
            (alpha's head and beta's head fail in less, b's body image still
            leaves I, the guard reads fewer facts), so I = base | B. Let Q
            be the atoms of beta whose image is outside I: they map into
            the added facts, the rest into B, which holds no fresh null, so
            a, b and the fresh nulls unify Q with alpha's head as a piece
            unifier, and h, sending each class to its value in the witness,
            maps that unifier's most general candidate onto (I, a, b) and
            its successor onto J. Each condition the validator checks
            holds for the candidate by construction (alpha's body image
            lies in I, b's in J) or is the negation of a positive formula
            that h preserves (a body image inside a fact set, a head
            holding, two values being equal), so it holds for the
            candidate as it does for the witness. The guard holds by
            construction, and null-copying carries over because
            positions(v, I_gen) is a subset of positions(h(v), I): a null
            of the witness has all its positions in P, so its class is a
            null of the candidate. The candidate is a witness itself, so
            the enumeration then finds one.
            For an EGD alpha, whose step renames its loser l to its
            survivor s, it enumerates merge unifiers: b newly violates
            beta only through slots of beta's body that hold s in J and l
            in I (Deutsch, Nash and Remmel's chase graph over TGDs and
            EGDs). A merge unifier fixes which of alpha's equated variables
            survives (both orientations), the survivor (a fresh value or a
            constant of beta's body), and a set M of beta's body variables
            joined to the merged class. Its most general candidate gives
            the loser's variable a null, l, and the survivor's the
            survivor, s, a null of lower creation index than l or a
            constant; M takes s, and every other variable of the two rules
            a distinct fresh value, a null exactly when all its positions
            in I lie in P. A fresh s is a null by the same rule; an
            orientation whose l has a position of alpha's body outside P
            has no candidate under PRECEDES_P. I is alpha's body image
            plus beta's body image with l in the loser slots L: every slot
            of M, and of that constant, at a position the guard allows
            (every one under PRECEDES). A choice with no loser slot has
            b's body image in I and is skipped (see "new"). The candidate
            passes the copying, new and settled filters before the judge.
            Complete: take a witness (I, a, b) with survivor s' and loser
            l', and drop from I every fact outside base and one pre-image
            of each atom of b's body image, as above. Take the orientation
            of a, the survivor s' when it is a constant of beta's body and
            a fresh value otherwise, M the variables that b sends to s',
            and L' the slots whose pre-image holds l'. Built with L' in
            place of L, the candidate is mapped by h, sending each class
            to its value in the witness, onto the witness's I, and
            merge∘h maps its J into the witness's J and its b onto b, so
            every condition carries over as for a TGD alpha. L' lies
            within L, since l' is a null, in P under the guard. J does not
            depend on the slot set; "new" only gains atoms outside I as
            the set grows; the guard holds by construction; and
            null-copying only gains nulls, as s loses positions. So the
            candidate with L passes too, and the enumeration, which runs
            both orientations (see "orientation"), then finds a witness.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from chaseterm.chase import ChaseFailed, _merged_pair, chase_step
from chaseterm.model import (
    TGD, Assignment, Atom, Constant, Constraint, Instance, LabeledNull,
    Position, Value, Variable, _bind, check_ids, fact_key, head_holds, instance,
    instantiate, replace_value, satisfies, value_key,
)

PRECEDES = "precedes"        # the firing conditions alone
PRECEDES_P = "precedes_p"    # plus the null-position guard and null-copying

_PLACEHOLDER_BASE = 1_000_000


class Witness(NamedTuple):
    """A concrete firing scenario: alpha applied on (instance, assignment_a)
    yields successor, where assignment_b newly violates beta."""

    alpha_id: str
    beta_id: str
    instance: Instance
    assignment_a: Tuple[Tuple[str, Value], ...]
    assignment_b: Tuple[Tuple[str, Value], ...]
    successor: Instance


def _named_constants(alpha: Constraint, beta: Constraint) -> Tuple[Constant, ...]:
    """The constants of alpha and beta, by name: a merge of their two
    cached runs."""
    return tuple(dict.fromkeys(sorted(alpha.constants + beta.constants,
                                      key=value_key)))


_POOL: Dict[int, Tuple[Constant, LabeledNull]] = {}


def _new_symbols(index: int, taken: frozenset) -> Tuple[Constant, LabeledNull]:
    """Pool symbol pair index: the constant c<index> and the null u<index>,
    of creation index index + 1. Each pair is built on first use and kept
    for the process in a table indexed by index; it depends on index alone,
    and setdefault keeps one pair per index even under threads. A constant
    whose name is in taken, the named constants' names, gets "c_" prefixes
    until it is free, and is built on each call."""
    pair = _POOL.get(index)
    if pair is None:
        pair = _POOL.setdefault(index, (Constant(f"c{index}"),
                                        LabeledNull(f"u{index}", index + 1)))
    const, null = pair
    name = const.name
    if name in taken:
        while name in taken:
            name = "c_" + name
        const = Constant(name)
    return const, null


def _depth_first(n: int, start, branches) -> Iterator:
    """The nodes n levels below start, depth first: branches(i, node)
    yields the children of a node i levels down, in order. The search keeps
    one stack level per level, so a deep tree cannot exhaust the recursion
    limit."""
    if not n:
        yield start
        return
    stack = [branches(0, start)]
    while stack:
        for node in stack[-1]:
            break
        else:
            stack.pop()
            continue
        if len(stack) < n:
            stack.append(branches(len(stack), node))
        else:
            yield node


def _extensions(vars_seq: Sequence[Variable], bound: Assignment,
                pool: Tuple[Value, ...], named: Tuple[Constant, ...],
                fresh_count: int, no_null: frozenset,
                ) -> Iterator[Tuple[Assignment, Tuple[Value, ...], int]]:
    """Canonical completions of bound over vars_seq, depth first. Each
    unbound variable reuses an available value or introduces the next pool
    symbol; a variable in no_null skips every null, so its subtrees holding
    one are never built."""
    todo = [v for v in vars_seq if v not in bound]
    taken = frozenset(c.name for c in named)

    def branches(i: int, node):
        b, pool, fresh_count = node
        v = todo[i]
        nulls_ok = v not in no_null
        for val in dict.fromkeys(pool + named):
            if nulls_ok or val.__class__ is Constant:
                yield {**b, v: val}, pool, fresh_count
        const, null = _new_symbols(fresh_count, taken)
        for val in (const, null) if nulls_ok else (const,):
            yield {**b, v: val}, pool + (val,), fresh_count + 1

    return _depth_first(len(todo), (bound, pool, fresh_count), branches)


def _no_null_vars(c: Constraint, P: frozenset, mode: str) -> frozenset:
    """Under PRECEDES_P, the variables of c with a body position outside P.
    Every candidate instance holds c's body image at such a position (see
    the module docstring), so a null there fails the position guard."""
    if mode != PRECEDES_P:
        return frozenset()
    return frozenset(v for v, occ in c.body_var_positions.items()
                     if not P.issuperset(occ))


def _is_placeholder(v: Value) -> bool:
    return isinstance(v, LabeledNull) and v.creation_index >= _PLACEHOLDER_BASE


def _copies_null(b: dict, frontier: Sequence) -> bool:
    """Does b put a null, a placeholder included, on a frontier variable?
    b and frontier name the variables alike: as Variables, or by name."""
    return any(isinstance(b[v], LabeledNull) for v in frontier)


_PLACEHOLDERS: Dict[int, LabeledNull] = {}


def _placeholder(i: int) -> LabeledNull:
    """The stand-in for the null a TGD step creates for its i-th
    existential. Placeholder i is built on first use and kept for the
    process in a table indexed by i, so every call returns the same object,
    as _new_symbols does."""
    p = _PLACEHOLDERS.get(i)
    if p is None:
        p = _PLACEHOLDERS.setdefault(i, LabeledNull(f"~f{i}", _PLACEHOLDER_BASE + i))
    return p


def _added(alpha: Constraint, a: Assignment) -> frozenset:
    """Alpha's instantiated head with placeholder nulls for the existentials."""
    ext = dict(a)
    for i, v in enumerate(alpha.existential_vars):
        ext[v] = _placeholder(i)
    return instantiate(alpha.head, ext)


def _added_pattern(alpha: Constraint, a: Assignment) -> List[Atom]:
    """_added in fact order, the order the enumeration matches into."""
    return sorted(_added(alpha, a), key=fact_key)


def _subset_matches(atoms: Sequence[Atom], targets: Sequence[Atom], match,
                    start) -> Iterator[Tuple[object, List[Atom], List[Atom]]]:
    """Every way to match a non-empty subset of atoms into targets. Atom by
    atom, in order, each is first left out, then matched into each target
    of its relation and arity in turn; match(atom, target, state) returns
    the extended state, or None. Yields the final state, the atoms left out
    and the targets matched into."""
    def branches(i: int, node):
        state, deferred, hit = node
        at = atoms[i]
        yield state, deferred + [at], hit
        for t in targets:
            if t.relation == at.relation and len(t.args) == len(at.args):
                extended = match(at, t, state)
                if extended is not None:
                    yield extended, deferred, hit + [t]

    return (node for node in _depth_first(len(atoms), (start, [], []), branches)
            if node[2])


def _bound(at: Atom, f: Atom, b: Assignment) -> Optional[Assignment]:
    """b extended so that at maps onto the fact f, or None."""
    b = dict(b)
    return b if _bind(at.args, f.args, b, Variable) is not None else None


def _guarded(I: Instance, P: frozenset) -> bool:
    """Does every null of I sit at a position in P?"""
    for f in I.facts:
        for i, t in enumerate(f.args):
            if isinstance(t, LabeledNull) and Position(f.relation, i + 1) not in P:
                return False
    return True


def _holds(I: Instance, after: frozenset, alpha: Constraint, a: Assignment,
           beta: Constraint, b: Assignment, P: frozenset, mode: str) -> bool:
    """Do all conditions hold for the candidate (I, a, b)? after is the
    step's image: J with placeholders for the fresh nulls, which b may
    still hold (see the module docstring).

    The checks are pure and all must pass, so they run in the order that
    rejects soonest: the guard scan and the null-copying test, which read I
    and b alone; "beta violated in J", read on after; "alpha violated in I".
    The judge takes no step: the search takes the accepted candidate's,
    once. An a that is no violation gives an image all the same; the last
    check rejects it.

    The judge leaves out "beta not violated in I": the "new" filters drop
    every b whose body image lies in I before it is judged, and a b
    holding a placeholder has a fresh null of the step, which is not in I,
    in its body image. verify_witness, which judges witnesses from
    elsewhere, checks it itself. A placeholder is a null that resolves to
    a null, so b answers the null-copying test as the resolved b does."""
    if mode == PRECEDES_P:
        if not _guarded(I, P) or not _copies_null(b, beta.frontier):
            return False
    if satisfies(Instance(after), beta, b):
        return False
    return not satisfies(I, alpha, a)


def _witness(I: Instance, alpha: Constraint, a: Assignment, beta: Constraint,
             b: Assignment) -> Witness:
    """The witness of a candidate the judge accepted: the step, taken once,
    gives the successor, and its fresh nulls resolve b's placeholders."""
    J, rec = chase_step(I, alpha, a)
    fresh = {_placeholder(i): n for i, (n, _) in enumerate(rec.fresh_nulls)}
    return Witness(alpha.id, beta.id, I,
                   tuple((v.name, a[v]) for v in alpha.body_vars),
                   tuple((v.name, fresh.get(b[v], b[v])) for v in beta.body_vars),
                   J)


def _tgd_candidates(alpha: Constraint, a: Assignment, base: frozenset,
                    beta: Constraint, pool: Tuple[Value, ...],
                    named: Tuple[Constant, ...], fresh_count: int,
                    no_null: frozenset, copying: bool,
                    ) -> Iterator[Tuple[Assignment, frozenset, frozenset]]:
    """(b, B, after) for a TGD alpha: b matches part of beta's body into the
    step's added facts, B holds the rest, to be planted in I = base | B,
    and after is the step's image of I, the judge's J (see the module
    docstring).
    A match that binds a variable of the rest to a placeholder is dropped
    with its whole subtree: the placeholders come from the match alone, so
    every B below it would hold a fresh null of the step, which no I holds.
    A b whose body image lies in I is skipped (see "new"), so is one whose
    beta head holds in base plus the added facts (see "settled"), and,
    when copying is set, so is one with no null on beta's frontier (see
    "copying")."""
    pattern = _added_pattern(alpha, a)
    fresh = {f for f in pattern if any(_is_placeholder(t) for t in f.args)}
    after = Instance(base.union(pattern))
    for b0, deferred, hit in _subset_matches(beta.body, pattern, _bound, {}):
        if any(_is_placeholder(b0.get(t)) for at in deferred for t in at.args):
            continue  # every B of this subtree holds a fresh null
        # hit is the body image of the matched atoms, fixed by b0
        if fresh.intersection(hit):
            old = None  # a fact with a placeholder is never in I
        else:
            old = frozenset(hit) - base
            if not old:
                continue  # every b of this subtree has its body image in I
        remaining = [v for v in beta.body_vars if v not in b0]
        for b, _, _ in _extensions(remaining, b0, pool, named, fresh_count,
                                   no_null):
            if copying and not _copies_null(b, beta.frontier):
                continue
            if head_holds(after, beta, b):
                continue
            B = instantiate(deferred, b)
            if old is not None and old <= B:
                continue
            yield b, B, after.facts | B


def _egd_candidates(alpha: Constraint, a: Assignment, base: frozenset,
                    beta: Constraint, pool: Tuple[Value, ...],
                    named: Tuple[Constant, ...], fresh_count: int,
                    no_null: frozenset, copying: bool,
                    ) -> Iterator[Tuple[Assignment, frozenset, frozenset]]:
    """(b, B, after) for an EGD alpha: B ranges over the pre-images of b's
    body image under the merge, so the merge itself can complete beta's
    body, and after is the step's image of I = base | B, the merged base
    plus b's body image, which is B renamed.
    A b whose body image lies in I = base | B is skipped (see "new"), so
    is one whose beta head holds in J (see "held"), and, when copying is
    set, so is one with no null on beta's frontier (see "copying")."""
    try:
        survivor, loser = _merged_pair(alpha, a)
    except (ChaseFailed, ValueError):
        return  # the step does not apply
    after = Instance(replace_value(base, loser, survivor))
    for b, _, _ in _extensions(list(beta.body_vars), {}, pool, named,
                               fresh_count, no_null):
        if loser in b.values():
            continue
        if copying and not _copies_null(b, beta.frontier):
            continue
        image = instantiate(beta.body, b)
        J = after.facts | image
        if head_holds(Instance(J), beta, b):
            continue  # see "held"
        old = image - base
        per_atom: List[List[Atom]] = []
        for f in sorted(image, key=fact_key):
            slots = [i for i, t in enumerate(f.args) if t == survivor]
            choices = []
            for picks in itertools.product((survivor, loser), repeat=len(slots)):
                args = list(f.args)
                for slot, val in zip(slots, picks):
                    args[slot] = val
                choices.append(Atom(f.relation, tuple(args)))
            per_atom.append(choices)
        for combo in itertools.product(*per_atom):
            B = frozenset(combo)
            if not old <= B:
                yield b, B, J


def _unify(at: Atom, hd: Atom, parent: Dict) -> Optional[Dict]:
    """parent, a union-find over terms, extended so that beta's atom at and
    alpha's head atom hd become equal; None when two constants clash. A
    beta variable v is the term (1, v) and an alpha variable (0, v), so a
    constraint paired with itself keeps two sets of variables. A class that
    holds a constant has it as its representative."""
    parent = dict(parent)
    for s, t in zip(at.args, hd.args):
        s = _find(parent, (1, s) if s.__class__ is Variable else s)
        t = _find(parent, (0, t) if t.__class__ is Variable else t)
        if s == t:
            continue
        if s.__class__ is Constant:
            if t.__class__ is Constant:
                return None
            parent[t] = s
        else:
            parent[s] = t
    return parent


def _find(parent: Dict, t):
    while t in parent:
        t = parent[t]
    return t


def _most_general(alpha: Constraint, beta: Constraint, parent: Dict,
                  deferred: List[Atom], P: frozenset, taken: frozenset,
                  existentials: Dict,
                  ) -> Optional[Tuple[Assignment, Assignment]]:
    """The most general candidate (a, b) of the unifier parent of beta's
    body less deferred with alpha's head, or None when it is no piece
    unifier (see "exists"). existentials maps each existential v of alpha,
    as the term (0, v), to its index. Only those that parent touches are
    read: any other is a class of its own, which no body variable joins."""
    value: Dict = {}  # class representative -> the candidate's value
    for t in dict.fromkeys((*parent, *parent.values())):
        i = existentials.get(t)
        if i is None:
            continue
        r = _find(parent, t)
        if r in value or r.__class__ is Constant:
            return None  # two existentials, or an existential and a constant
        value[r] = _placeholder(i)
    a_reps = [_find(parent, (0, v)) for v in alpha.body_vars]
    where: Dict = {}  # representative -> its positions in I
    for v, r in zip(alpha.body_vars, a_reps):
        where.setdefault(r, set()).update(alpha.body_var_positions[v])
    for at in deferred:
        for t, p in zip(at.args, beta.atom_positions[at]):
            if t.__class__ is Variable:
                where.setdefault(_find(parent, (1, t)), set()).add(p)
    if any(r in value for r in where):
        return None  # an existential joined to alpha's body or to deferred
    b_reps = [_find(parent, (1, v)) for v in beta.body_vars]
    for r in a_reps + b_reps:
        if r not in value:
            if r.__class__ is Constant:
                value[r] = r
            else:
                const, null = _new_symbols(len(value), taken)
                value[r] = null if where[r] <= P else const
    return ({v: value[r] for v, r in zip(alpha.body_vars, a_reps)},
            {v: value[r] for v, r in zip(beta.body_vars, b_reps)})


def _passes(alpha: Constraint, a: Assignment, base: frozenset, after: Instance,
            beta: Constraint, b: Assignment, B: frozenset, P: frozenset,
            mode: str) -> bool:
    """Does the most general candidate (I = base | B, a, b) pass the "new"
    and "settled" filters, then the judge? after is the step's image of
    base; the judge's J is after plus b's body image, which for a TGD alpha
    is after plus B, as the rest of that image lies in the added facts."""
    image = instantiate(beta.body, b)
    facts = base | B
    if image <= facts:
        return False  # see "new"
    if head_holds(after, beta, b):
        return False  # see "settled"
    return _holds(instance(facts), after.facts | image, alpha, a, beta, b,
                  P, mode)


def _has_edge(alpha: Constraint, beta: Constraint, P: frozenset,
              mode: str) -> bool:
    """For a TGD alpha: does the most general candidate of some piece
    unifier of beta's body with alpha's head pass the judge? See "exists"."""
    copying = mode == PRECEDES_P
    taken = frozenset(c.name for c in _named_constants(alpha, beta))
    existentials = {(0, v): i for i, v in enumerate(alpha.existential_vars)}
    # a's values -> (base, the step's image of it), or None when a is no
    # violation (see "satisfied"). A body-less alpha has one a, {}, whose
    # entry no beta changes: its table is kept in alpha's instance dict, as
    # Instance.candidates keeps its buckets, so that pruning builds alpha_I's
    # image once, not once per beta
    images: Dict[Tuple, Optional[Tuple[frozenset, Instance]]] = (
        alpha.__dict__.setdefault("_images", {}) if not alpha.body else {})
    for parent, deferred, _ in _subset_matches(beta.body, alpha.head, _unify, {}):
        candidate = _most_general(alpha, beta, parent, deferred, P, taken,
                                  existentials)
        if candidate is None:
            continue
        a, b = candidate
        if copying and not _copies_null(b, beta.frontier):
            continue  # see "copying"
        key = tuple(a.values())
        if key not in images:
            base = instantiate(alpha.body, a)
            images[key] = None if head_holds(Instance(base), alpha, a) else (
                base, Instance(base | _added(alpha, a)))
        image = images[key]
        if image is None:
            continue  # see "satisfied"
        base, after = image
        if _passes(alpha, a, base, after, beta, b, instantiate(deferred, b),
                   P, mode):
            return True
    return False


def _merge_unifiers(alpha: Constraint, beta: Constraint, P: frozenset,
                    guarded: bool) -> Iterator[Tuple]:
    """(keep, lose, const, joined, lost) for each merge unifier of an EGD
    alpha with beta that has a loser slot (see "exists"): keep survives,
    lose is the loser's variable, const the constant survivor or None,
    joined the class that takes the survivor, and lost, atom by atom of
    beta's body, which slots hold the loser."""
    consts = sorted({t for at in beta.body for t in at.args
                     if t.__class__ is Constant})
    free = [[not guarded or p in P for p in beta.atom_positions[at]]
            for at in beta.body]
    for keep, lose in (alpha.equated, alpha.equated[::-1]):
        if guarded and not P.issuperset(alpha.body_var_positions[lose]):
            continue  # the loser, a null, would sit outside P
        for const in [None] + consts:
            for k in range(const is None, len(beta.body_vars) + 1):
                for M in itertools.combinations(beta.body_vars, k):
                    joined = {const, *M}
                    lost = [[t in joined and ok for t, ok in zip(at.args, oks)]
                            for at, oks in zip(beta.body, free)]
                    if any(map(any, lost)):  # else b's body image lies in I
                        yield keep, lose, const, joined, lost


def _has_merge_edge(alpha: Constraint, beta: Constraint, P: frozenset,
                    mode: str) -> bool:
    """For an EGD alpha: does the most general candidate of some merge
    unifier pass the judge? See "exists"."""
    guarded = mode == PRECEDES_P
    taken = frozenset(c.name for c in _named_constants(alpha, beta))
    a_where, b_where = alpha.body_var_positions, beta.body_var_positions
    others = [v for v in alpha.body_vars if v not in alpha.equated]
    loser = _new_symbols(1, taken)[1]

    def fresh(index: int, where) -> Value:
        const, null = _new_symbols(index, taken)
        return null if P.issuperset(where) else const

    for keep, lose, const, joined, lost in _merge_unifiers(alpha, beta, P, guarded):
        survivor = const
        if const is None:
            survivor = fresh(0, set(a_where[keep]).union(
                p for at, xs in zip(beta.body, lost)
                for p, t, x in zip(beta.atom_positions[at], at.args, xs)
                if t in joined and not x))
        a = {keep: survivor, lose: loser}
        a.update((v, fresh(i, a_where[v])) for i, v in enumerate(others, 2))
        b = {v: survivor if v in joined else fresh(i, b_where[v])
             for i, v in enumerate(beta.body_vars, len(a))}
        if guarded and not _copies_null(b, beta.frontier):
            continue  # see "copying"
        base = instantiate(alpha.body, a)
        B = frozenset(Atom(at.relation, tuple(loser if x else b.get(t, t)
                                              for t, x in zip(at.args, xs)))
                      for at, xs in zip(beta.body, lost))
        merged = Instance(replace_value(base, loser, survivor))
        if _passes(alpha, a, base, merged, beta, b, B, P, mode):
            return True
    return False


class _EdgeMark:
    """The entry EDGE of an answer table (see the module docstring)."""

    def __repr__(self) -> str:
        return "EDGE"


EDGE = _EdgeMark()

Key = Tuple[Constraint, Constraint, frozenset, str]
# One analysis's firing answers, keyed (alpha, beta) + _normalised(P, mode)
Answers = Dict[Key, Union[None, Witness, _EdgeMark]]


def _exists(alpha: Constraint, beta: Constraint, P: frozenset,
            mode: str) -> Optional[_EdgeMark]:
    """The existence part of the search: EDGE when a witness exists, else
    None (see "exists")."""
    if not beta.body:
        return None  # see "body-less" in the module docstring
    if mode == PRECEDES_P and not beta.frontier:
        return None  # see "copying"
    if alpha.never_violated or beta.never_violated:
        return None
    has_edge = _has_edge if alpha.kind == TGD else _has_merge_edge
    return EDGE if has_edge(alpha, beta, P, mode) else None


def _alpha_assignments(alpha: Constraint, named: Tuple[Constant, ...],
                       no_null: frozenset,
                       ) -> Iterator[Tuple[Assignment, Tuple[Value, ...], int]]:
    """Alpha's assignments in enumeration order: the canonical pass, then,
    for an EGD alpha, each of its assignments that equates two nulls, with
    the two exchanged wherever they occur, so that the merge goes the
    other way (see "orientation")."""
    yield from _extensions(list(alpha.body_vars), {}, (), named, 0, no_null)
    if alpha.kind == TGD:
        return
    for a, pool, fc in _extensions(list(alpha.body_vars), {}, (), named, 0,
                                   no_null):
        u, v = (a[x] for x in alpha.equated)
        if u != v and u.__class__ is LabeledNull and v.__class__ is LabeledNull:
            swap = {u: v, v: u}
            yield {x: swap.get(val, val) for x, val in a.items()}, pool, fc


def _enumerate(alpha: Constraint, beta: Constraint, P: frozenset,
               mode: str) -> Optional[Witness]:
    """The canonical enumeration: its first witness, or None."""
    copying = mode == PRECEDES_P
    named = _named_constants(alpha, beta)
    no_null_b = _no_null_vars(beta, P, mode)
    for a, pool, fc in _alpha_assignments(alpha, named,
                                          _no_null_vars(alpha, P, mode)):
        base = instantiate(alpha.body, a)
        if alpha.kind == TGD:
            if head_holds(Instance(base), alpha, a):
                continue  # alpha is satisfied in every I containing base
            candidates = _tgd_candidates(alpha, a, base, beta, pool, named, fc,
                                         no_null_b, copying)
        else:
            candidates = _egd_candidates(alpha, a, base, beta, pool, named, fc,
                                         no_null_b, copying)
        for b, B, after in candidates:
            I = instance(base | B)
            if _holds(I, after, alpha, a, beta, b, P, mode):
                return _witness(I, alpha, a, beta, b)
    return None


def _built(answers: Answers, key: Key) -> Optional[Witness]:
    """answers[key], an EDGE replaced for good by the witness that the
    enumeration under key finds (see "reuse"). An EDGE whose enumeration
    finds nothing is an internal error."""
    if answers[key] is EDGE:
        alpha, beta, P, mode = key
        w = answers.get((alpha, beta, frozenset(), PRECEDES))
        if not (mode == PRECEDES_P and isinstance(w, Witness)
                and _guarded(w.instance, P) and _copies_null(
                    dict(w.assignment_b), [v.name for v in beta.frontier])):
            w = _enumerate(*key)
        if w is None:
            raise RuntimeError(f"internal error: the existence check found an "
                               f"edge under {key!r} that the enumeration misses")
        answers[key] = w
    return answers[key]


def find_edge(alpha: Constraint, beta: Constraint, P: frozenset, mode: str,
              answers: Answers) -> Optional[Key]:
    """The key of answers under which firing alpha can newly violate beta,
    or None when it cannot. Fills the table and builds no witness."""
    key = (alpha, beta) + _normalised(P, mode)
    if key not in answers:
        unguarded = (alpha, beta, frozenset(), PRECEDES)
        if mode == PRECEDES_P and answers.get(unguarded, EDGE) is None:
            answers[key] = None  # see "unguarded"
        else:
            answers[key] = _exists(*key)
    return None if answers[key] is None else key


def can_cause(alpha: Constraint, beta: Constraint, P=frozenset(),
              mode: str = PRECEDES_P,
              answers: Optional[Answers] = None) -> Optional[Witness]:
    """A witness that firing alpha can newly violate beta, or None.

    Mode PRECEDES_P enforces the position guard P and null-copying; mode
    PRECEDES drops both, and P is then ignored. answers, the asking analysis's
    table, keeps every answer and may settle a query (see "unguarded").
    """
    answers = {} if answers is None else answers
    key = find_edge(alpha, beta, P, mode, answers)
    return None if key is None else _built(answers, key)


class Witnesses(Mapping):
    """A graph's witnesses by edge (alpha id, beta id), read-only. Each is
    built on first read, under the key of answers under which its edge was
    found (see the module docstring)."""

    def __init__(self, answers: Answers, keys: Dict[Tuple[str, str], Key]):
        self._answers, self._keys = answers, keys

    def __getitem__(self, edge: Tuple[str, str]) -> Witness:
        return _built(self._answers, self._keys[edge])

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class ChaseGraph(NamedTuple):
    """All-pairs firing graph: an edge means the source's application can
    newly violate the target. Each witness is built when it is read."""

    constraints: Tuple[Constraint, ...]
    edges: Tuple[Tuple[str, str], ...]
    witnesses: Mapping[Tuple[str, str], Witness]


def chase_graph(sigma: Sequence[Constraint], answers: Optional[Answers] = None) -> ChaseGraph:
    sigma = tuple(sigma)
    check_ids(sigma)
    answers = {} if answers is None else answers
    keys: Dict[Tuple[str, str], Key] = {}
    for a in sigma:
        for b in sigma:
            key = find_edge(a, b, frozenset(), PRECEDES, answers)
            if key is not None:
                keys[(a.id, b.id)] = key
    return ChaseGraph(sigma, tuple(sorted(keys)), Witnesses(answers, keys))


def _normalised(P, mode: str) -> Tuple[frozenset, str]:
    """The guard mode reads, and mode: P under PRECEDES_P, nothing under
    PRECEDES. Any other mode raises ValueError."""
    if mode == PRECEDES:
        return frozenset(), mode
    if mode == PRECEDES_P:
        return frozenset(P), mode
    raise ValueError(f"unknown mode {mode!r}")


def verify_witness(alpha: Constraint, beta: Constraint, w: Witness,
                   P=frozenset(), mode: str = PRECEDES_P) -> bool:
    """Recheck a witness from scratch against the defining conditions. The
    step is taken once, and every condition is checked on its J."""
    P, mode = _normalised(P, mode)
    if w.alpha_id != alpha.id or w.beta_id != beta.id:
        return False
    assignments = []
    for c, pairs in ((alpha, w.assignment_a), (beta, w.assignment_b)):
        by_name = {v.name: v for v in c.body_vars}
        if sorted(name for name, _ in pairs) != sorted(by_name):
            return False
        assignments.append({by_name[name]: val for name, val in pairs})
    a, b = assignments
    I = w.instance
    if mode == PRECEDES_P and not (_copies_null(b, beta.frontier)
                                   and _guarded(I, P)):
        return False
    if satisfies(I, alpha, a) or not satisfies(I, beta, b):
        return False  # a is no violation in I, or b is one already
    try:
        J, _ = chase_step(I, alpha, a)
    except (ChaseFailed, ValueError):
        return False
    return not satisfies(J, beta, b) and J == w.successor
