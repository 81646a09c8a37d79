"""The firing relation between constraints.

can_cause(alpha, beta, P, mode) asks: is there an instance I and assignments
a, b such that applying alpha on (I, a) yields a J in which b newly violates
beta? Six conditions define the positive answer: (a is a violation of alpha
in I; b is not one in I; the step applies; b violates beta in J; and, in the
position-guarded mode, nulls of I sit only in positions from P and b puts a
null into beta's head).

The search enumerates candidates and hands each to a concrete validator that
takes the step and checks every condition with the ordinary satisfaction
test, so the enumeration may overapproximate freely. Candidates are built
canonically: assignment values are either constants named in the two
constraints or pool symbols introduced in first-use order, each new symbol
tried both as a constant and as a null (a restricted-growth enumeration, so
isomorphic candidates are generated once). For a TGD alpha the candidate
instance is a's body image plus the beta-body atoms not matched into the
step's added facts; matching into added facts uses placeholder nulls that
are resolved against the real fresh nulls once the step has run. For an EGD
alpha the extra atoms range over the pre-images of b's body image under the
merge, which is where a merge can complete a previously absent body.

Eight prunes skip whole subtrees of the enumeration, or the whole search,
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
            If b violates beta in I, the validator rejects it. Otherwise
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
            only reads that answer and never computes a missing one:
            analyze builds the chase graph before the restriction system,
            over one table, so the answer is there when it helps, and a
            bare restriction-system call searches no PRECEDES pair.
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
            built per a, after the placeholder and "new" checks; for an
            EGD alpha it reads b alone, so it runs before b's pre-images
            are built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from chaseterm.chase import ChaseFailed, _merged_pair, _tgd_added, chase_step
from chaseterm.model import (
    TGD, Assignment, Atom, Constant, Constraint, FactSet, Instance,
    LabeledNull, Position, Value, Variable, _bind, fact_key, head_holds,
    instance, instantiate, replace_value, satisfies, term_positions,
)

PRECEDES = "precedes"        # the firing conditions alone
PRECEDES_P = "precedes_p"    # plus the null-position guard and null-copying

_PLACEHOLDER_BASE = 1_000_000


@dataclass(frozen=True)
class Witness:
    """A concrete firing scenario: alpha applied on (instance, assignment_a)
    yields successor, where assignment_b newly violates beta."""

    alpha_id: str
    beta_id: str
    instance: Instance
    assignment_a: Tuple[Tuple[str, Value], ...]
    assignment_b: Tuple[Tuple[str, Value], ...]
    successor: Instance


def _named_constants(alpha: Constraint, beta: Constraint) -> Tuple[Constant, ...]:
    out = set()
    for c in (alpha, beta):
        for f in tuple(c.body) + tuple(c.head):
            for t in f.args:
                if isinstance(t, Constant):
                    out.add(t)
    return tuple(sorted(out, key=lambda c: c.name))


def _new_symbols(index: int, taken: frozenset) -> Tuple[Constant, LabeledNull]:
    name = f"c{index}"
    while name in taken:
        name = "c_" + name
    return Constant(name), LabeledNull(f"u{index}", index + 1)


def _extensions(vars_seq: Sequence[Variable], bound: Assignment,
                pool: Tuple[Value, ...], named: Tuple[Constant, ...],
                fresh_count: int, no_null: frozenset,
                ) -> Iterator[Tuple[Assignment, Tuple[Value, ...], int]]:
    """Canonical completions of bound over vars_seq. Each unbound variable
    reuses an available value or introduces the next pool symbol; a variable
    in no_null skips every null, so its subtrees holding one are never built."""
    if not vars_seq:
        yield bound, pool, fresh_count
        return
    v, rest = vars_seq[0], vars_seq[1:]
    if v in bound:
        yield from _extensions(rest, bound, pool, named, fresh_count, no_null)
        return
    nulls_ok = v not in no_null
    options: List[Value] = []
    for val in pool + named:
        if val not in options and (nulls_ok or isinstance(val, Constant)):
            options.append(val)
    for val in options:
        yield from _extensions(rest, {**bound, v: val}, pool, named, fresh_count,
                               no_null)
    const, null = _new_symbols(fresh_count, frozenset(c.name for c in named))
    for val in (const, null) if nulls_ok else (const,):
        yield from _extensions(rest, {**bound, v: val}, pool + (val,), named,
                               fresh_count + 1, no_null)


def _no_null_vars(c: Constraint, P: frozenset, mode: str) -> frozenset:
    """Under PRECEDES_P, the variables of c with a body position outside P.
    Every candidate instance holds c's body image at such a position (see
    the module docstring), so a null there fails the position guard."""
    if mode != PRECEDES_P:
        return frozenset()
    return frozenset(v for v in c.body_vars
                     if not term_positions(c.body, v) <= P)


def _is_placeholder(v: Value) -> bool:
    return isinstance(v, LabeledNull) and v.creation_index >= _PLACEHOLDER_BASE


def _copies_null(b: Assignment, frontier: Sequence[Variable]) -> bool:
    """Does b put a null, a placeholder included, on a frontier variable?"""
    return any(isinstance(b[v], LabeledNull) for v in frontier)


def _added_pattern(alpha: Constraint, a: Assignment) -> List[Atom]:
    """Alpha's instantiated head with placeholder nulls for the existentials."""
    ext = dict(a)
    for i, v in enumerate(alpha.existential_vars):
        ext[v] = LabeledNull(f"~f{i}", _PLACEHOLDER_BASE + i)
    return sorted(instantiate(alpha.head, ext), key=fact_key)


def _subset_matches(atoms: Sequence[Atom], facts: Sequence[Atom],
                    ) -> Iterator[Tuple[Assignment, List[Atom], List[Atom]]]:
    """Every way to match a non-empty subset of atoms into facts; yields the
    bindings, the unmatched remainder and the facts matched into."""

    def go(i: int, bound: Assignment, deferred: List[Atom], hit: List[Atom],
           ) -> Iterator[Tuple[Assignment, List[Atom], List[Atom]]]:
        if i == len(atoms):
            if hit:
                yield bound, deferred, hit
            return
        at = atoms[i]
        yield from go(i + 1, bound, deferred + [at], hit)
        for f in facts:
            if f.relation != at.relation or len(f.args) != len(at.args):
                continue
            b2 = dict(bound)
            if _bind(at.args, f.args, b2, Variable) is not None:
                yield from go(i + 1, b2, deferred, hit + [f])

    yield from go(0, {}, [], [])


def _holds(I: Instance, alpha: Constraint, a: Assignment, beta: Constraint,
           b: Assignment, P: frozenset, mode: str):
    """Check all conditions concretely. b may still contain placeholders for
    alpha's fresh nulls; returns the resolved (b, J) on success.

    The checks are pure and all must pass, so they run in the order that
    rejects soonest: the guard scan and the null-copying test, which read I
    and b alone; the step; "beta violated in J"; "beta not violated in I";
    "alpha violated in I". The step computes J's facts as a plain set, its
    fresh nulls named as chase_step names them, and the three satisfaction
    checks read bare fact sets; the step record and the Instance J are
    built only for a candidate that passes them all. Over the seed-1
    analyze-batch inputs the search judged 483 candidates, down from 1,623
    before the "settled" prune: 11 failed before the step, 230 the J
    check, none the I check of beta and 42 the I check of alpha, and 200
    were accepted; verify_witness judged another 200. Inside the search
    the "new" prune leaves the I check of beta nothing to reject; it
    guards verify_witness. A step taken for an a that is no violation
    does no harm: the last check rejects it.

    A placeholder is a null that resolves to a null, so b answers the
    null-copying test as the resolved b does, and equals it without one.
    A b holding a placeholder needs no "not violated in I" check: the
    placeholder resolves to a fresh null of the step, which is not in I,
    so b's body image is not in I and beta holds there vacuously."""
    if mode == PRECEDES_P:
        for f in I.facts:
            for i, t in enumerate(f.args):
                if isinstance(t, LabeledNull) and Position(f.relation, i + 1) not in P:
                    return None
        if not _copies_null(b, beta.frontier):
            return None
    fresh: List[LabeledNull] = []
    try:
        if alpha.kind == TGD:
            added, fresh, _ = _tgd_added(alpha, a, I.null_counter, I.null_names())
            after = I.facts | added
        else:
            survivor, loser = _merged_pair(alpha, a)
            after = replace_value(I.facts, loser, survivor)
    except (ChaseFailed, ValueError):
        return None
    rb: Assignment = {}
    for var, val in b.items():
        if _is_placeholder(val):
            val = fresh[val.creation_index - _PLACEHOLDER_BASE]
        rb[var] = val
    if satisfies(FactSet(after), beta, rb):
        return None
    before = FactSet(I.facts)
    if (not any(_is_placeholder(val) for val in b.values())
            and not satisfies(before, beta, b)):
        return None
    if satisfies(before, alpha, a):
        return None
    J, _ = chase_step(I, alpha, a)
    return rb, J


def _tgd_candidates(alpha: Constraint, a: Assignment, base: frozenset,
                    beta: Constraint, pool: Tuple[Value, ...],
                    named: Tuple[Constant, ...], fresh_count: int,
                    no_null: frozenset, copying: bool,
                    ) -> Iterator[Tuple[Assignment, frozenset]]:
    """(b, B) pairs for a TGD alpha: b matches part of beta's body into the
    step's added facts, B holds the rest, to be planted in I = base | B.
    A b whose body image lies in I is skipped (see "new"), so is one whose
    beta head holds in base plus the added facts (see "settled"), and,
    when copying is set, so is one with no null on beta's frontier (see
    "copying")."""
    pattern = _added_pattern(alpha, a)
    fresh = {f for f in pattern if any(_is_placeholder(t) for t in f.args)}
    after = FactSet(base.union(pattern))
    for b0, deferred, hit in _subset_matches(list(beta.body), pattern):
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
            B = instantiate(deferred, b)
            if any(_is_placeholder(t) for f in B for t in f.args):
                continue
            if old is not None and old <= B:
                continue
            if head_holds(after, beta, b):
                continue
            yield b, B


def _egd_candidates(alpha: Constraint, a: Assignment, base: frozenset,
                    beta: Constraint, pool: Tuple[Value, ...],
                    named: Tuple[Constant, ...], fresh_count: int,
                    no_null: frozenset, copying: bool,
                    ) -> Iterator[Tuple[Assignment, frozenset]]:
    """(b, B) pairs for an EGD alpha: B ranges over the pre-images of b's
    body under the merge, so the merge itself can complete beta's body.
    A b whose body image lies in I = base | B is skipped (see "new"), so
    is one whose beta head holds in the merged base (see "settled"), and,
    when copying is set, so is one with no null on beta's frontier (see
    "copying")."""
    try:
        survivor, loser = _merged_pair(alpha, a)
    except (ChaseFailed, ValueError):
        return  # the step does not apply
    after = FactSet(replace_value(base, loser, survivor))
    for b, _, _ in _extensions(list(beta.body_vars), {}, pool, named,
                               fresh_count, no_null):
        if loser in b.values():
            continue
        if copying and not _copies_null(b, beta.frontier):
            continue
        if head_holds(after, beta, b):
            continue
        image = instantiate(beta.body, b)
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
                yield b, B


# One analysis's firing answers, keyed (alpha, beta) + _normalised(P, mode)
Answers = Dict[Tuple[Constraint, Constraint, frozenset, str], Optional[Witness]]


def _search(alpha: Constraint, beta: Constraint, P: frozenset,
            mode: str) -> Optional[Witness]:
    if not beta.body:
        return None  # see "body-less" in the module docstring
    copying = mode == PRECEDES_P
    if copying and not beta.frontier:
        return None  # see "copying"
    if alpha.kind == TGD:
        # a TGD step only adds facts, so an assignment that newly violates
        # beta must match part of beta's body into them; no shared relation,
        # no edge
        added = {f.relation for f in alpha.head}
        if not any(f.relation in added for f in beta.body):
            return None
    if alpha.never_violated or beta.never_violated:
        return None
    named = _named_constants(alpha, beta)
    no_null_b = _no_null_vars(beta, P, mode)
    for a, pool, fc in _extensions(list(alpha.body_vars), {}, (), named, 0,
                                   _no_null_vars(alpha, P, mode)):
        base = instantiate(alpha.body, a)
        if alpha.kind == TGD:
            if head_holds(FactSet(base), alpha, a):
                continue  # alpha is satisfied in every I containing base
            candidates = _tgd_candidates(alpha, a, base, beta, pool, named, fc,
                                         no_null_b, copying)
        else:
            candidates = _egd_candidates(alpha, a, base, beta, pool, named, fc,
                                         no_null_b, copying)
        for b, B in candidates:
            I = instance(base | B)
            got = _holds(I, alpha, a, beta, b, P, mode)
            if got is None:
                continue
            rb, J = got
            return Witness(
                alpha.id, beta.id, I,
                tuple((v.name, a[v]) for v in alpha.body_vars),
                tuple((v.name, rb[v]) for v in beta.body_vars),
                J)
    return None


def can_cause(alpha: Constraint, beta: Constraint, P=frozenset(),
              mode: str = PRECEDES_P,
              answers: Optional[Answers] = None) -> Optional[Witness]:
    """A witness that firing alpha can newly violate beta, or None.

    Mode PRECEDES_P enforces the position guard P and null-copying; mode
    PRECEDES drops both, and P is then ignored. answers, the asking analysis's
    table, keeps every answer and may settle a query (see "unguarded").
    """
    key = (alpha, beta) + _normalised(P, mode)
    answers = {} if answers is None else answers
    if key not in answers:
        no_edge = answers.get((alpha, beta, frozenset(), PRECEDES), False) is None
        answers[key] = None if no_edge and mode == PRECEDES_P else _search(*key)
    return answers[key]


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
    """Recheck a witness from scratch against the defining conditions."""
    P, mode = _normalised(P, mode)
    if w.alpha_id != alpha.id or w.beta_id != beta.id:
        return False
    for c, pairs in ((alpha, w.assignment_a), (beta, w.assignment_b)):
        if sorted(name for name, _ in pairs) != sorted(v.name for v in c.body_vars):
            return False
    a = {Variable(name): val for name, val in w.assignment_a}
    b = {Variable(name): val for name, val in w.assignment_b}
    got = _holds(w.instance, alpha, a, beta, b, P, mode)
    if got is None:
        return False
    rb, J = got
    return rb == b and J == w.successor
