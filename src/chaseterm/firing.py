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
the judge, that checks every condition on the candidate's facts, so the
enumeration may overapproximate freely. Candidates are built
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

The judge, _passes, takes no step. _step_image builds the step's image
of alpha's body image base once per assignment a: for a TGD alpha, base
plus the instantiated head with placeholders for the fresh nulls; for an
EGD alpha, base with the loser renamed to the survivor. It returns the
step too, the added facts in fact order or (survivor, loser), which the
candidate generators read. The judge finds a's image in a table keyed by
alpha.body_key(a), and builds it there after null-copying. It checks "b
violates beta in J" on that image plus b's body image, with b
unresolved. This is exact. For an EGD alpha the set is J itself, since
the renaming distributes over base | B and maps B onto b's body image.
For a TGD alpha, b's body image is B plus facts of the image, J is
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

The judge runs one chain of checks, cheapest first, for both searches,
the existence check and the enumeration: copying; satisfied; new and
settled, which read b, base | B and the step's image; then the guard scan
of I; then "b violates beta in J"; then "a violates alpha in I". Every
other entry below skips a whole subtree of the enumeration, or the whole
search, in which the judge rejects every candidate: the guard, satisfied
(an a with no image), never, body-less, unguarded, held and exists, and
the two subtree cuts named under "new". So does one more cut for an EGD
alpha: a b that holds the loser, whose body image no J holds. They never
skip a candidate the judge would accept, and they keep the order of the
rest, so the first witness found is the one the unpruned enumeration
finds.

  guard     Under PRECEDES_P, a variable with a body position outside P never
            takes a null, in alpha's enumeration or in beta's. Every such
            null would sit outside P in the candidate instance I: alpha's
            body image is in I; a beta variable the added facts leave
            unbound occurs only in beta-body atoms that go into I; and a
            merge pre-image keeps a null in every slot where b's body
            image has one, since a null survivor means a null loser.
  satisfied For a TGD alpha, an assignment a whose body image already
            satisfies alpha's head has no step image: each I contains
            that image, so alpha is satisfied in I and a is no violation.
            Nor has an a of an EGD alpha whose step does not apply, one
            that equates a value with itself or two constants. The judge
            rejects its candidates, and the enumeration skips the a.
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
  new       The judge rejects a candidate (b, B) whose beta-body image
            under b already lies in I = base | B: b is not new, whatever
            the step does. If b violates beta in I, it is no witness.
            Otherwise it stays satisfied in J, since the step maps I into
            J by a homomorphism that fixes b's values: the identity for a
            TGD alpha, and for an EGD alpha a renaming of the loser, which
            b never holds. For a TGD alpha the images of the beta atoms
            matched into the added facts are fixed before B is chosen, so
            the generator cuts two subtrees whole: one whose match binds a
            variable of an unmatched atom to a placeholder, since its B
            would hold a fresh null of the step, which no I holds; and one
            whose matched images hold no placeholder and all lie in base,
            since every b below it has its body image in I.
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
  copying   Under PRECEDES_P, the judge rejects a b that puts no null on
            beta's frontier, the head variables of beta that occur in its
            body, first, before it builds a's step image: the check reads
            b alone, and counts a placeholder as the null it resolves to.
            A beta with no frontier variable has no edge at all.
  settled   The judge rejects a b under which beta's head already holds in
            the step's image of alpha's body image. For a TGD alpha that
            image is base plus the added facts, placeholders in place of
            the fresh nulls; for an EGD alpha it is base with the loser
            renamed to the survivor. Every J holds the image: resolving
            the placeholders to the step's fresh nulls, in b and in the
            image alike, maps it into J, and a merge fixes b, which never
            holds the loser. So the resolved b satisfies beta in J, and
            the check spares "b violates beta in J" a fact set per
            candidate: it reads the one index built per a. An EGD beta is
            settled by a b that equates a value with itself. For an EGD
            alpha, "held" has already cut every such b: J holds the
            merged base, and a head that holds in a set of facts holds in
            every superset.
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
            judge gets every candidate, and rejects one whose a has no
            step image (see "satisfied").
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
            goes to the judge.
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


def _guarded(facts: frozenset, P: frozenset) -> bool:
    """Does every null of facts sit at a position in P?"""
    for f in facts:
        for i, t in enumerate(f.args):
            if isinstance(t, LabeledNull) and Position(f.relation, i + 1) not in P:
                return False
    return True


Image = Tuple[frozenset, Instance, Union[List[Atom], Tuple[Value, Value]]]


def _step_image(alpha: Constraint, a: Assignment) -> Optional[Image]:
    """(base, after, step): alpha's body image base under a, the step's
    image of it, after (see the module docstring), and the step: for a TGD
    alpha the added facts in fact order, the order the enumeration matches
    into, for an EGD alpha (survivor, loser). None when a is no violation
    in any I that holds base (see "satisfied"), or when the step does not
    apply: an EGD alpha whose equated values are equal, or two constants."""
    base = instantiate(alpha.body, a)
    if alpha.kind == TGD:
        if head_holds(Instance(base), alpha, a):
            return None  # see "satisfied"
        added = sorted(_added(alpha, a), key=fact_key)
        return base, Instance(base.union(added)), added
    try:
        survivor, loser = _merged_pair(alpha, a)
    except (ChaseFailed, ValueError):
        return None
    return (base, Instance(replace_value(base, loser, survivor)),
            (survivor, loser))


def _passes(alpha: Constraint, a: Assignment,
            images: Dict[Tuple, Optional[Image]], beta: Constraint,
            b: Assignment, B: frozenset, P: frozenset,
            mode: str) -> Optional[Instance]:
    """The judge: the candidate's I = base | B when (I, a, b) is a witness,
    else None. images maps alpha.body_key(a) to a's step image, built
    there after null-copying if missing (see _step_image). b may still
    hold placeholders, and each answers null-copying as the null it
    resolves to. The checks run cheapest first (see the module docstring).
    Each head is tested on a set that holds its body image, so head_holds
    decides it. "new" stands in for "beta not violated in I": a b whose
    body image is not inside I satisfies beta there, and a b with a
    placeholder has a fresh null of the step in its body image;
    verify_witness, which judges witnesses from elsewhere, checks that
    condition itself. The judge takes no step: the search takes the
    accepted candidate's, once."""
    if mode == PRECEDES_P and not _copies_null(b, beta.frontier):
        return None  # see "copying"
    key = alpha.body_key(a)
    if key not in images:
        images[key] = _step_image(alpha, a)
    if images[key] is None:
        return None  # see "satisfied"
    base, after, _ = images[key]
    image = instantiate(beta.body, b)
    facts = base | B
    if image <= facts:
        return None  # see "new"
    if head_holds(after, beta, b):
        return None  # see "settled"
    if mode == PRECEDES_P and not _guarded(facts, P):
        return None
    if head_holds(Instance(after.facts | image), beta, b):
        return None  # b does not violate beta in J
    I = instance(facts)
    return None if head_holds(I, alpha, a) else I


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


def _tgd_candidates(image: Image, beta: Constraint, pool: Tuple[Value, ...],
                    named: Tuple[Constant, ...], fresh_count: int,
                    no_null: frozenset,
                    ) -> Iterator[Tuple[Assignment, frozenset]]:
    """(b, B) for a TGD alpha, whose step image is image: b matches part
    of beta's body into the step's added facts, and B holds the rest, to
    be planted in I = base | B. Two cuts drop a match with its whole
    subtree: one that binds a variable of the rest to a placeholder, since
    the placeholders come from the match alone, so every B below it would
    hold a fresh null of the step, which no I holds; and one whose matched
    atoms hold no placeholder and all lie in base, since every b below it
    then has its body image in I (see "new")."""
    base, _, added = image
    fresh = {f for f in added if any(_is_placeholder(t) for t in f.args)}
    for b0, deferred, hit in _subset_matches(beta.body, added, _bound, {}):
        if any(_is_placeholder(b0.get(t)) for at in deferred for t in at.args):
            continue
        if not fresh.intersection(hit) and base.issuperset(hit):
            continue
        remaining = [v for v in beta.body_vars if v not in b0]
        for b, _, _ in _extensions(remaining, b0, pool, named, fresh_count,
                                   no_null):
            yield b, instantiate(deferred, b)


def _egd_candidates(image: Image, beta: Constraint, pool: Tuple[Value, ...],
                    named: Tuple[Constant, ...], fresh_count: int,
                    no_null: frozenset,
                    ) -> Iterator[Tuple[Assignment, frozenset]]:
    """(b, B) for an EGD alpha, whose step image is image: B ranges over
    the pre-images of b's body image under the merge, so the merge itself
    can complete beta's body. A b that holds the loser is skipped, since
    no J does, and so are the pre-images of a b whose beta head holds in J
    (see "held")."""
    _, after, (survivor, loser) = image
    for b, _, _ in _extensions(list(beta.body_vars), {}, pool, named,
                               fresh_count, no_null):
        if loser in b.values():
            continue
        b_image = instantiate(beta.body, b)
        if head_holds(Instance(after.facts | b_image), beta, b):
            continue  # see "held"
        per_atom: List[List[Atom]] = []
        for f in sorted(b_image, key=fact_key):
            slots = [i for i, t in enumerate(f.args) if t == survivor]
            choices = []
            for picks in itertools.product((survivor, loser), repeat=len(slots)):
                args = list(f.args)
                for slot, val in zip(slots, picks):
                    args[slot] = val
                choices.append(Atom(f.relation, tuple(args)))
            per_atom.append(choices)
        for combo in itertools.product(*per_atom):
            yield b, frozenset(combo)


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


def _piece_candidates(alpha: Constraint, beta: Constraint, P: frozenset,
                      ) -> Iterator[Tuple[Assignment, Assignment, frozenset]]:
    """For a TGD alpha: (a, b, B), the most general candidate of each piece
    unifier of beta's body with alpha's head (see "exists")."""
    taken = frozenset(c.name for c in _named_constants(alpha, beta))
    existentials = {(0, v): i for i, v in enumerate(alpha.existential_vars)}
    for parent, deferred, _ in _subset_matches(beta.body, alpha.head, _unify, {}):
        candidate = _most_general(alpha, beta, parent, deferred, P, taken,
                                  existentials)
        if candidate is not None:
            a, b = candidate
            yield a, b, instantiate(deferred, b)


def _merge_candidates(alpha: Constraint, beta: Constraint, P: frozenset,
                      guarded: bool,
                      ) -> Iterator[Tuple[Assignment, Assignment, frozenset]]:
    """For an EGD alpha: (a, b, B), the most general candidate of each
    merge unifier that has a loser slot (see "exists"). A unifier is keep,
    the variable that survives; lose, the loser's; const, the constant
    survivor or None; joined, the class that takes the survivor; and lost,
    atom by atom of beta's body, the slots that hold the loser."""
    taken = frozenset(c.name for c in _named_constants(alpha, beta))
    a_where, b_where = alpha.body_var_positions, beta.body_var_positions
    others = [v for v in alpha.body_vars if v not in alpha.equated]
    loser = _new_symbols(1, taken)[1]
    consts = sorted({t for at in beta.body for t in at.args
                     if t.__class__ is Constant})
    free = [[not guarded or p in P for p in beta.atom_positions[at]]
            for at in beta.body]

    def fresh(index: int, where) -> Value:
        const, null = _new_symbols(index, taken)
        return null if P.issuperset(where) else const

    unifiers = ((keep, lose, const, {const, *M})
                for keep, lose in (alpha.equated, alpha.equated[::-1])
                # else the loser, a null, would sit outside P
                if not guarded or P.issuperset(a_where[lose])
                for const in [None] + consts
                for k in range(const is None, len(beta.body_vars) + 1)
                for M in itertools.combinations(beta.body_vars, k))
    for keep, lose, const, joined in unifiers:
        lost = [[t in joined and ok for t, ok in zip(at.args, oks)]
                for at, oks in zip(beta.body, free)]
        if not any(map(any, lost)):
            continue  # b's body image lies in I
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
        yield a, b, frozenset(
            Atom(at.relation, tuple(loser if x else b.get(t, t)
                                    for t, x in zip(at.args, xs)))
            for at, xs in zip(beta.body, lost))


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
    if alpha.kind == TGD:
        candidates = _piece_candidates(alpha, beta, P)
    else:
        candidates = _merge_candidates(alpha, beta, P, mode == PRECEDES_P)
    # a's body key -> its step image. A body-less alpha has one a, {},
    # whose entry no beta changes: its table is kept in alpha's instance
    # dict, as Instance.candidates keeps its buckets, so that pruning
    # builds alpha_I's image once, not once per beta
    images = alpha.__dict__.setdefault("_images", {}) if not alpha.body else {}
    for a, b, B in candidates:
        if _passes(alpha, a, images, beta, b, B, P, mode) is not None:
            return EDGE
    return None


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
    """The canonical enumeration: its first witness, or None. The judge
    reads a one-entry image table per a, so no image outlives its a."""
    named = _named_constants(alpha, beta)
    no_null_b = _no_null_vars(beta, P, mode)
    candidates = _tgd_candidates if alpha.kind == TGD else _egd_candidates
    for a, pool, fc in _alpha_assignments(alpha, named,
                                          _no_null_vars(alpha, P, mode)):
        image = _step_image(alpha, a)
        if image is None:
            continue
        images = {alpha.body_key(a): image}
        for b, B in candidates(image, beta, pool, named, fc, no_null_b):
            I = _passes(alpha, a, images, beta, b, B, P, mode)
            if I is not None:
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
                and _guarded(w.instance.facts, P) and _copies_null(
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
                                   and _guarded(I.facts, P)):
        return False
    if satisfies(I, alpha, a) or not satisfies(I, beta, b):
        return False  # a is no violation in I, or b is one already
    try:
        J, _ = chase_step(I, alpha, a)
    except (ChaseFailed, ValueError):
        return False
    return not satisfies(J, beta, b) and J == w.successor
