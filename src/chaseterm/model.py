"""Terms, atoms, constraints, instances and the operations shared by everything else.

The data model is deliberately small. Three disjoint kinds of term exist:
constants, labeled nulls and variables. Instances are finite sets of ground
atoms over constants and nulls; constraint bodies and heads are conjunctions
of atoms over variables and constants. A constraint is either a TGD
(body -> head, head variables missing from the body are existential) or an
EGD (body -> x = y).

Terms, atoms, constraints and instances are immutable values, so the rest of
the package can memoize and share them freely. Terms are built, hashed and
compared by the million, in the chase and in the firing search, so a term is
a str: one control character that tags its kind (U+0001 constant, U+0002
null, U+0003 variable) followed by its name. str caches the hash, and
hashing, dict and set lookups and == run in C with no Python frame; as no
name can change the first character, two terms are equal exactly when kind
and name agree. The name, and a null's creation index, live in the instance
dict. So a term also equals its tagged string and orders under < like one;
no code may rely on either. str() and format() give the same text as repr(),
and the repr of a term or an atom is its surface syntax: `syntax` prints
rules and instances, and `reports` writes facts, values and positions as repr.
Each constant and null also carries its order, its value_key tuple, built
in __new__: (0, name) for a constant, (1, creation index, name) for a null.
So value_key, fact_key and the chase's sort keys read one attribute per
value, with no class test. A copy or an unpickled term is rebuilt from its
name, and a null's creation index, so it carries its order too.
Positions and atoms are NamedTuples over (relation, index) and
(relation, args), for the same reason: tuple's hash, == and set and dict
lookups run in C. tuple does not cache its hash, but hashing an atom only
combines the cached hashes of its relation and terms. A position or an
atom hashes as the plain tuple of its fields, so it also equals that tuple
and orders under < like it; no code may rely on either. An atom never
equals a position: args is a tuple and index an int. Code on the hot paths
tells term kinds apart by class identity rather than isinstance.
Constraints and instances build on _Frozen. A constraint computes its hash
once, and keeps an instance dict for its shape, filled by one walk over
its atoms on the first read of any shape field (never when it is built):
its variables on each side with the positions each holds, the body
variables' names, the existential variables and the head positions they
hold, the frontier, the constants, each atom's positions, and an EGD's
equated_slots, its two variables' places in the body key. Beside the
shape sit three cached properties. never_violated is one join of the head
into the body, which stands for its own image. The other two are the
compiled forms, slot programs (_program), each a callable that maps a
source to an atom's arguments, an operator.itemgetter when all of them are
variables and there are at least two, a template of slots and constants
otherwise. body_key reads a body key, the tuple of a match's values over
body_vars, off a match; head_key_program builds the head from a body key
followed by any existentials' values. So the chase tests and fires a key
without building a dict. The hot paths build atoms with tuple.__new__,
with no NamedTuple frame. An instance hashes on demand: the firing search
builds throwaway instances by the thousand and hashes few of them.
The one mutable structure is FactIndex, the run-scoped index a chase keeps
for its whole run: facts by relation and by (relation, position, value),
plus the null names in use. A TGD step adds facts to it and an EGD step
rewrites only the facts holding the losing value; the run freezes it into an
Instance once, at the end.

One matcher, join(), serves conjunction matching, satisfaction, violations
and homomorphisms. It backtracks with an explicit stack, so deep searches
cannot overflow the interpreter's recursion limit, and takes each atom's
candidates from the narrowest bucket the already-bound arguments select.
Only FactIndex buckets keep an order: fact_key order, then the order facts
are added in, so a chase or a homomorphism search never depends on hash
order. A frozen Instance offers only relation buckets, built once per
instance on first use and in no fixed order, so building them sorts
nothing: positional buckets do not pay for themselves on the throwaway
instances of the firing search, whose checks are yes-or-no questions, and
find_violations sorts what it finds.

A note on equality: nulls compare by name only. The creation index a null
carries is bookkeeping for the chase (freshness, merge tie-breaking) and two
nulls with the same name are the same null regardless of it.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, itemgetter
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)


class ModelError(ValueError):
    """Raised for ill-formed atoms, constraints or instances."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_set = object.__setattr__


class _Frozen:
    """Base of the immutable constraints and instances: no field can be
    assigned or deleted, and the hash is the one __init__ stores, unless a
    subclass says otherwise. A subclass that defines __eq__ must name
    __hash__ again, or Python drops it."""

    __slots__ = ("_hash",)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash


class _Named(str):
    """A term: a str holding its kind's tag character and then its name, so
    that str's own hash and equality, which run in C, decide "same kind and
    same name". The name lives in the instance dict; str cannot take
    __slots__. Each kind sets _tag."""

    def __new__(cls, name: str):
        self = str.__new__(cls, cls._tag + name)
        self.__dict__["name"] = name
        return self

    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__

    def __str__(self) -> str:
        return self.__repr__()

    def __format__(self, spec: str) -> str:
        return format(self.__repr__(), spec)

    def __reduce__(self):
        # copy and every pickle protocol rebuild the term from its name;
        # str's own reduction would pass the tagged string, or str(self)
        return (self.__class__, (self.name,))


class Constant(_Named):
    """A constant. Its order, (0, name), is its value_key."""

    _tag = "\x01"

    def __new__(cls, name: str):
        self = _Named.__new__(cls, name)
        self.__dict__["order"] = (0, name)
        return self

    def __repr__(self) -> str:
        return self.name


class LabeledNull(_Named):
    """A labeled null. creation_index is 0 for nulls present in the initial
    instance and increases for chase-created ones; it does not take part in
    equality or hashing. Its order, (1, creation_index, name), is its
    value_key."""

    _tag = "\x02"

    def __new__(cls, name: str, creation_index: int = 0):
        self = _Named.__new__(cls, name)
        fields = self.__dict__
        fields["creation_index"] = creation_index
        fields["order"] = (1, creation_index, name)
        return self

    def __reduce__(self):
        return (self.__class__, (self.name, self.creation_index))

    def __repr__(self) -> str:
        return "?" + self.name


class Variable(_Named):
    _tag = "\x03"

    def __repr__(self) -> str:
        return self.name


Term = Union[Constant, LabeledNull, Variable]
Value = Union[Constant, LabeledNull]


def value_key(v: Value) -> Tuple:
    """Global value order: constants by name, then nulls by creation index.

    Ties between nulls of equal creation index fall back to the name. The
    order is total on values and fixes every enumeration in the package.
    Each value carries its key as its order, built with it.
    """
    try:
        return v.order
    except AttributeError:
        raise ModelError(f"not a value: {v!r}") from None


_order = attrgetter("order")


# ---------------------------------------------------------------------------
# Positions and atoms
# ---------------------------------------------------------------------------

class Position(NamedTuple):
    """Argument slot index (1-based) of a relation symbol, e.g. E^2."""

    relation: str
    index: int

    def __repr__(self) -> str:
        return f"{self.relation}^{self.index}"


def position_key(p: Position) -> Tuple[str, int]:
    return (p.relation, p.index)


class Atom(NamedTuple):
    relation: str
    args: Tuple[Term, ...]

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(map(repr, self.args))})"

    @property
    def positions(self) -> Tuple[Position, ...]:
        return tuple(Position(self.relation, i + 1) for i in range(len(self.args)))


# _new(Atom, (relation, args)) builds an atom in C, with no NamedTuple frame
_new = tuple.__new__


def check_arities(atoms: Iterable[Atom], table: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Infer relation arities on first use and fail on later mismatches."""
    table = dict(table) if table else {}
    for a in atoms:
        seen = table.get(a.relation)
        if seen is None:
            table[a.relation] = len(a.args)
        elif seen != len(a.args):
            raise ModelError(
                f"arity mismatch for {a.relation}: saw {seen}, now {len(a.args)} in {a!r}")
    return table


def _dedup(atoms: Sequence[Atom]) -> Tuple[Atom, ...]:
    # conjunctions are sets; keep first-occurrence order for determinism
    return tuple(dict.fromkeys(atoms))


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

TGD = "tgd"
EGD = "egd"


def _program(args: Sequence[Term], slot: Dict[Variable, object]):
    """A slot program for args: a callable that maps a source, an
    assignment or a key tuple, to args with each variable v replaced by
    source[slot[v]]. An itemgetter when every argument is a variable and
    there are at least two, since it then returns the tuple itself; else
    a template of slots and constants."""
    if len(args) >= 2 and all(t.__class__ is Variable for t in args):
        return itemgetter(*[slot[t] for t in args])
    template = tuple((True, slot[t]) if t.__class__ is Variable else (False, t)
                     for t in args)
    return lambda src: tuple([src[s] if var else s for var, s in template])


# A constraint's shape: what one walk over its atoms finds (see _walk)
_SHAPE = frozenset(("body_vars", "body_var_names", "existential_vars",
                    "existential_positions", "frontier", "equated_slots",
                    "constants", "body_positions", "positions",
                    "body_var_positions", "head_var_positions", "atom_positions"))


class Constraint(_Frozen):
    """A TGD or an EGD. Build through tgd() / egd(), which validate.

    For a TGD the head is non-empty and head variables absent from the body
    are existential. For an EGD the head is the equated variable pair and
    both variables occur in the body. Equal fields make equal constraints,
    hashed as the tuple of the fields. No __slots__: the shape fields (see
    _walk) and the three cached properties below, never_violated and the
    two compiled programs, live in the instance dict.
    """

    def __init__(self, id: str, kind: str, body: Tuple[Atom, ...],
                 head: Tuple[Atom, ...] = (),
                 equated: Optional[Tuple[Variable, Variable]] = None):
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "body", body)
        _set(self, "head", head)
        _set(self, "equated", equated)
        _set(self, "_hash", hash((id, kind, body, head, equated)))

    def __eq__(self, other):
        if other.__class__ is Constraint:
            return self._hash == other._hash and (
                (self.id, self.kind, self.body, self.head, self.equated)
                == (other.id, other.kind, other.body, other.head, other.equated))
        return NotImplemented

    __hash__ = _Frozen.__hash__

    def __reduce__(self):
        # copy and every pickle protocol rebuild the constraint from its
        # fields, and its cached properties on first use; the default
        # reduction would restore _hash through __setattr__, and the
        # compiled programs hold lambdas
        return (self.__class__,
                (self.id, self.kind, self.body, self.head, self.equated))

    def __repr__(self) -> str:
        return f"<{self.id}>"

    def __getattr__(self, name: str):
        # reached only when name is missing from the instance dict
        if name not in _SHAPE:
            raise AttributeError(f"Constraint has no attribute {name!r}")
        self._walk()
        return self.__dict__[name]

    def _walk(self) -> None:
        """One pass over the body, then the head, fills every shape field:
        each variable's positions on each side, first seen first; each
        atom's positions, one tuple per relation; the existential
        variables and the head positions they hold; the frontier, the head
        variables (an EGD's pair) that occur in the body; and an EGD's
        equated variables as slots of the body key (None for a TGD)."""
        atom_positions: Dict[Atom, Tuple[Position, ...]] = {}
        shared: Dict[Tuple[str, int], Tuple[Position, ...]] = {}  # by relation
        constants = set()
        body_occ, head_occ = {}, {}  # variable -> its positions on that side
        for atoms, where in ((self.body, body_occ), (self.head, head_occ)):
            for at in atoms:
                ps = shared.get((at.relation, len(at.args)))
                if ps is None:
                    ps = shared[at.relation, len(at.args)] = at.positions
                atom_positions[at] = ps
                for t, p in zip(at.args, ps):
                    if t.__class__ is Variable:
                        seen = where.get(t, ())
                        if p not in seen:
                            where[t] = seen + (p,)
                    elif t.__class__ is Constant:
                        constants.add(t)
        body_vars = tuple(body_occ)
        existential_vars = () if self.kind != TGD else tuple(
            v for v in head_occ if v not in body_occ)
        head_vars = self.equated if self.kind == EGD else head_occ
        body_positions = frozenset().union(*map(atom_positions.get, self.body))
        self.__dict__.update(
            body_vars=body_vars,
            body_var_names=tuple(v.name for v in body_vars),
            existential_vars=existential_vars,
            existential_positions=frozenset().union(
                *map(head_occ.get, existential_vars)),
            frontier=tuple(v for v in head_vars if v in body_occ),
            equated_slots=None if self.kind == TGD else tuple(
                map(body_vars.index, self.equated)),
            constants=tuple(sorted(constants, key=_order)),
            body_positions=body_positions,
            positions=body_positions.union(*map(atom_positions.get, self.head)),
            body_var_positions=body_occ,
            head_var_positions=head_occ,
            atom_positions=atom_positions)

    @cached_property
    def never_violated(self) -> bool:
        """Is this a TGD whose head maps into its own body, body variables
        fixed? Then every assignment's body image satisfies the head: it
        never fires and is never violated. One join decides it: the body is
        its own image, each variable standing for itself."""
        return self.kind == TGD and head_holds(
            Instance(frozenset(self.body)), self, {v: v for v in self.body_vars})

    # Compiled forms: what the chase reads on every step, built once per
    # constraint from its atoms.

    @cached_property
    def body_key(self):
        """The key getter: a body match, as an assignment, to its key, the
        tuple of its values over body_vars."""
        return _program(self.body_vars, {v: v for v in self.body_vars})

    @cached_property
    def head_key_program(self) -> Tuple:
        """(relation, slot program) per head atom, over the body key
        followed by the existential variables' values, in their order; a
        TGD with none reads the key alone."""
        slot = {v: i for i, v in enumerate(self.body_vars + self.existential_vars)}
        return tuple((at.relation, _program(at.args, slot)) for at in self.head)


def tgd(cid: str, body: Sequence[Atom], head: Sequence[Atom]) -> Constraint:
    body = _dedup(body)
    head = _dedup(head)
    if not head:
        raise ModelError(f"{cid}: a TGD needs a non-empty head")
    for a in list(body) + list(head):
        for t in a.args:
            if isinstance(t, LabeledNull):
                raise ModelError(f"{cid}: nulls cannot occur in constraints ({a!r})")
    check_arities(list(body) + list(head))
    return Constraint(id=cid, kind=TGD, body=body, head=head)


def egd(cid: str, body: Sequence[Atom], left: Variable, right: Variable) -> Constraint:
    body = _dedup(body)
    if not body:
        raise ModelError(f"{cid}: an EGD needs a non-empty body")
    for a in body:
        for t in a.args:
            if isinstance(t, LabeledNull):
                raise ModelError(f"{cid}: nulls cannot occur in constraints ({a!r})")
    for v in (left, right):
        if not any(v in a.args for a in body):
            raise ModelError(f"{cid}: equated variable {v.name} does not occur in the body")
    check_arities(body)
    return Constraint(id=cid, kind=EGD, body=body, equated=(left, right))


def check_ids(sigma: Sequence[Constraint]) -> None:
    """Fail when two constraints of sigma share an id: the graphs over
    sigma key their nodes and edges by id, so the two would be one node."""
    seen = set()
    for c in sigma:
        if c.id in seen:
            raise ModelError(f"two constraints share the id {c.id!r}")
        seen.add(c.id)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

class Instance(_Frozen):
    """A finite set of ground atoms plus the next free null creation index.
    Equal fields make equal instances, hashed, on demand, as the tuple of
    the fields."""

    def __init__(self, facts: frozenset, null_counter: int = 1):
        fields = self.__dict__  # writing it is about twice as fast as _set
        fields["facts"] = facts
        fields["null_counter"] = null_counter

    def __eq__(self, other):
        if other.__class__ is Instance:
            return (self.null_counter == other.null_counter
                    and self.facts == other.facts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.facts, self.null_counter))

    def __repr__(self) -> str:
        shown = ", ".join(repr(f) for f in sorted(self.facts, key=fact_key))
        return f"Instance({{{shown}}})"

    def domain(self) -> frozenset:
        return frozenset(t for a in self.facts for t in a.args)

    def null_names(self) -> frozenset:
        return frozenset(t.name for t in self.domain() if isinstance(t, LabeledNull))

    def candidates(self, at: Atom, b: Dict, var_type: type = Variable) -> List[Atom]:
        """The facts of at's relation and arity, in no fixed order. The
        buckets are built on the first call and kept in the instance dict;
        a cached_property would take a lock on that first read."""
        fields = self.__dict__
        by_rel = fields.get("_by_relation")
        if by_rel is None:
            by_rel = fields["_by_relation"] = {}
            for f in self.facts:
                by_rel.setdefault((f.relation, len(f.args)), []).append(f)
        return by_rel.get((at.relation, len(at.args)), [])


def fact_key(a: Atom) -> Tuple:
    """One flat tuple: a sort of many facts makes one key object per fact."""
    return (a.relation, len(a.args), *map(_order, a.args))


def instance(facts: Iterable[Atom]) -> Instance:
    """Build an instance, checking groundness and arity consistency. The
    null counter is one past the largest null creation index."""
    fs = frozenset(facts)
    top = 0
    for a in fs:
        for t in a.args:
            if isinstance(t, LabeledNull):
                if t.creation_index > top:
                    top = t.creation_index
            elif isinstance(t, Variable):
                raise ModelError(f"instance atoms must be ground, got {a!r}")
    check_arities(fs)
    return Instance(fs, top + 1)


def _substitute(a: Atom, old: Value, new: Value) -> Atom:
    return _new(Atom, (a.relation, tuple([new if t == old else t for t in a.args])))


def replace_value(facts: Iterable[Atom], old: Value, new: Value) -> frozenset:
    """Substitute one value for another in every fact."""
    return frozenset(_substitute(a, old, new) for a in facts)


class FactIndex:
    """A mutable fact set with hash indexes, kept for the life of one chase
    run or one search.

    Facts are bucketed by (relation, arity) and by (relation, arity, position,
    value); position is 0-based here. Buckets are insertion-ordered dicts
    used as ordered sets: the facts given at construction in fact_key order,
    later ones in the order they arrive. `nulls` holds the names of the
    labeled nulls the facts mention.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self.facts: set = set()
        self.nulls: set = set()
        self.by_relation: Dict[Tuple[str, int], Dict[Atom, None]] = {}
        self.by_position: Dict[Tuple, Dict[Atom, None]] = {}
        self.add(sorted(facts, key=fact_key))

    def add(self, facts: Iterable[Atom]) -> List[Atom]:
        """Insert facts; returns those not present before, in order."""
        new = []
        by_position = self.by_position
        for f in facts:
            if f in self.facts:
                continue
            self.facts.add(f)
            new.append(f)
            rel = (f.relation, len(f.args))
            self.by_relation.setdefault(rel, {})[f] = None
            for i, v in enumerate(f.args):
                bucket = by_position.get(rel + (i, v))
                if bucket is None:
                    by_position[rel + (i, v)] = {f: None}
                else:
                    bucket[f] = None
                if v.__class__ is LabeledNull:
                    self.nulls.add(v.name)
        return new

    def rename(self, old: Value, new: Value) -> List[Atom]:
        """Substitute new for old in the facts that hold old, and only in
        those; returns the rewritten facts not present before."""
        holding: Dict[Atom, None] = {}
        for rel, arity in self.by_relation:
            for i in range(arity):
                holding.update(self.by_position.get((rel, arity, i, old), {}))
        for f in holding:
            self.facts.remove(f)
            rel = (f.relation, len(f.args))
            del self.by_relation[rel][f]
            for i, v in enumerate(f.args):
                bucket = self.by_position[rel + (i, v)]
                del bucket[f]
                if not bucket:
                    del self.by_position[rel + (i, v)]
        if isinstance(old, LabeledNull):
            self.nulls.discard(old.name)
        return self.add([_substitute(f, old, new) for f in holding])

    def candidates(self, at: Atom, b: Dict, var_type: type = Variable):
        """The narrowest bucket that at's fixed and already-bound arguments
        select: every fact at can map to under b, and maybe more."""
        rel = (at.relation, len(at.args))
        best = self.by_relation.get(rel, ())
        for i, t in enumerate(at.args):
            if t.__class__ is var_type:
                t = b.get(t)
                if t is None:
                    continue
            bucket = self.by_position.get(rel + (i, t))
            if bucket is None:
                return ()
            if len(bucket) < len(best):
                best = bucket
        return best


# ---------------------------------------------------------------------------
# Assignments and conjunction matching
# ---------------------------------------------------------------------------

Assignment = Dict[Variable, Value]


def instantiate(conjunction: Sequence[Atom], a: Assignment) -> frozenset:
    """Apply an assignment to a conjunction, producing ground atoms.

    Constants pass through unchanged; every variable must be covered."""
    out = set()
    for at in conjunction:
        try:
            args = tuple([a[t] if t.__class__ is Variable else t for t in at.args])
        except KeyError as unbound:
            raise ModelError(
                f"unbound variable {unbound.args[0].name} in {at!r}") from None
        out.add(_new(Atom, (at.relation, args)))
    return frozenset(out)


def _bind(pattern: Sequence[Term], values: Sequence[Value], b: Dict,
          var_type: type) -> Optional[List]:
    """Extend b in place so that pattern maps onto values; returns the newly
    bound terms, or None (with b unchanged) when they do not unify."""
    new = []
    for t, v in zip(pattern, values):
        if t.__class__ is var_type:
            bound = b.get(t)
            if bound is None:
                b[t] = v
                new.append(t)
            elif bound != v:
                break
        elif t != v:
            break
    else:
        return new
    for t in new:
        del b[t]
    return None


def join(atoms: Sequence[Atom], facts, b: Dict,
         var_type: type = Variable) -> Iterator[Dict]:
    """Every extension of the binding b that maps all atoms into facts.

    facts is an Instance or a FactIndex; its candidates() picks
    the facts an atom may map to. Terms of var_type are bound, every other
    term must match exactly. Backtracking runs on an explicit stack, atom by
    atom in the given order, and b is extended in place: each solution is b
    itself, valid until the next one is requested, so callers copy what they
    keep.
    """
    n = len(atoms)
    if n == 0:
        yield b
        return
    stack = [iter(facts.candidates(atoms[0], b, var_type))]
    trail: List[List] = [[]]  # terms bound at each level
    while stack:
        i = len(stack) - 1
        for t in trail[i]:
            del b[t]
        at = atoms[i]
        for f in stack[i]:
            new = _bind(at.args, f.args, b, var_type)
            if new is not None:
                break
        else:
            stack.pop()
            trail.pop()
            continue
        trail[i] = new
        if i + 1 == n:
            yield b
        else:
            stack.append(iter(facts.candidates(atoms[i + 1], b, var_type)))
            trail.append([])


def match_conjunction(atoms: Sequence[Atom], I: Instance,
                      binding: Optional[Assignment] = None) -> Iterator[Assignment]:
    """All extensions of `binding` that map every atom into I.

    Yields each completed assignment once per derivation, in no fixed
    order; callers dedup or sort if they care.
    """
    for b in join(atoms, I, dict(binding or {})):
        yield dict(b)


# ---------------------------------------------------------------------------
# Satisfaction and violations
# ---------------------------------------------------------------------------

def head_holds(facts, c: Constraint, a: Assignment) -> bool:
    """Does a satisfy c's head in facts (an Instance or a FactIndex), the
    body being already in place? A TGD needs some extension
    over its existential variables that maps the whole head into the facts;
    an EGD needs the equated values to coincide."""
    if c.kind == EGD:
        left, right = c.equated  # type: ignore[misc]
        return a[left] == a[right]
    if not c.existential_vars:
        return instantiate(c.head, a) <= facts.facts
    base = {v: a[v] for v in c.body_vars if v in a}
    return next(join(c.head, facts, base), None) is not None


def satisfies(I: Instance, c: Constraint, a: Assignment) -> bool:
    """Does I satisfy c under assignment a?

    True when the instantiated body is not contained in I (vacuous case).
    Otherwise a TGD needs some extension of a over its existential variables
    mapping the whole head into I, and an EGD needs the equated values to
    coincide. An EGD equating a value with itself is satisfied, so it never
    fires.
    """
    body = instantiate(c.body, a)
    if not body <= I.facts:
        return True
    return head_holds(I, c, a)


def body_matches(facts, c: Constraint) -> Iterator[Tuple[Value, ...]]:
    """The body matches of c in facts (an Instance or a FactIndex), as keys,
    value tuples over c.body_vars, with repeats."""
    key = c.body_key
    for m in join(c.body, facts, {}):
        yield key(m)


def find_violations(I: Instance, c: Constraint) -> List[Assignment]:
    """All assignments whose body image lies in I but which violate c, ordered
    lexicographically by value tuple (body variables in first-occurrence
    order) under the global value order."""
    keys = sorted(set(body_matches(I, c)), key=lambda key: tuple(map(_order, key)))
    out = []
    for key in keys:
        a = dict(zip(c.body_vars, key))
        if not head_holds(I, c, a):
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

def find_homomorphism(source: Instance, target: Instance) -> Optional[Dict[Value, Value]]:
    """A mapping h on dom(source), identity on constants, with
    h(facts(source)) contained in facts(target); None if there is none.

    Backtracking over the source facts in _connected_order, with the nulls
    as the bound terms; each fact's candidates come from a positional index
    of the target. Each fact then meets an already bound null where it can,
    which keeps a null chain linear whatever order its nulls' names sort in.
    Exponential in the worst case, which is fine at the instance sizes this
    package is for.
    """
    h = next(join(_connected_order(source.facts), FactIndex(target.facts), {},
                  LabeledNull), None)
    if h is None:
        return None
    for v in source.domain():
        if isinstance(v, Constant):
            h[v] = v
        else:
            h.setdefault(v, v)
    return h


def _connected_order(facts: Iterable[Atom]) -> List[Atom]:
    """The facts in breadth-first order over shared nulls. Each connected
    part starts at its first fact in fact_key order, so every other fact
    shares a null with one placed before it."""
    ordered = sorted(facts, key=fact_key)
    holders: Dict[Value, List[Atom]] = {}
    for f in ordered:
        for t in f.args:
            if isinstance(t, LabeledNull):
                holders.setdefault(t, []).append(f)
    out: List[Atom] = []
    seen = set()
    for start in ordered:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for f in queue:
            out.append(f)
            for t in f.args:
                for g in holders.pop(t, ()):
                    if g not in seen:
                        seen.add(g)
                        queue.append(g)
    return out


def hom_equivalent(I: Instance, J: Instance) -> bool:
    """Homomorphisms both ways."""
    return find_homomorphism(I, J) is not None and find_homomorphism(J, I) is not None
