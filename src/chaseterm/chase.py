"""Chase steps and chase runs.

A step repairs one violated constraint instance: a TGD step adds the
instantiated head with fresh labeled nulls for the existential variables, an
EGD step merges the two equated values (the constant survives if there is
one, otherwise the null with the smaller creation index). Equating two
distinct constants has no repair; the run is Failed.

A run applies steps until no violation is left. The application order is a
policy: deterministic (round-robin over the constraints in the given order,
first violation in enumeration order) or randomized from a seed. Runs can be
bounded by a step limit and by cycle depth in the null-provenance graph of
the monitor module, which sits below this one: monitored_chase arms it, and
the run folds each step into one monitor graph. Both bounds produce an
Aborted result instead of looping forever.

A run never rescans the instance. It keeps one FactIndex (see model) for its
whole life, and per constraint a pending set of candidate violations, keyed
by the body values, that always contains every current violation. The sets
start as all body matches in the initial instance. After a step, a body
match that is new must map some body atom onto a fact the step added (TGD)
or rewrote (EGD): anything else was a match before the step. So joining only
those facts against the index, the semi-naive delta, finds every new match.
The old matches need no recheck, because a trigger that is satisfied stays
satisfied: a TGD step only adds facts, so a head image stays in place, and
an EGD merge renames a satisfied body together with its head image (equal
values stay equal). Pending keys that hold the merged-away value are renamed
with it. Entries are therefore validated lazily, when read, and dropped for
good once satisfied. A merge can free a null's name for a later fresh null,
which is equal to it as a key, so a leftover heap entry counts only while
its sort key, which holds the creation index, is still the live one. The
deterministic policy reads its sets in value_key
order up to the first violation, which is exactly the least violation a
full rescan finds; the randomized policy validates every set and draws from
the same ordered pool a rescan builds.

The delta runs on a watch list, built once per run: for each (relation,
arity), every body atom of every constraint over it, with the constraint's
pending set, the rest of its body and its key getter (see model's compiled
forms). A new fact is bound only against the body atoms of its own
relation, and the rest of the body joined in the index. Each constraint's
violation test on keys is built once per run too. The order in which the
delta adds keys is not observable: adding a key that is already live does
nothing, so the sets end up the same; a heap orders its entries by sort
key, which holds every value's name and creation index and so is unique
per key; and all() sorts.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from chaseterm.model import (
    EGD, TGD, Assignment, Atom, Constant, Constraint, FactIndex, Instance,
    LabeledNull, Value, Variable, _bind, _new, _order, body_matches, fact_key,
    join, replace_value, value_key,
)
from chaseterm.monitor import MonitorGraph, is_k_cyclic, monitor_update

TERMINATED = "terminated"
FAILED = "failed"
ABORTED = "aborted"

STEP_LIMIT = "step_limit"
K_CYCLIC = "k_cyclic"


class ChaseFailed(Exception):
    """Hard constraint violation: attempt to equate two distinct constants."""

    def __init__(self, left: Constant, right: Constant):
        super().__init__(f"cannot equate distinct constants {left!r} and {right!r}")
        self.clash = (left, right)


class ChaseStepRecord(NamedTuple):
    """One applied step, with enough detail to replay it exactly."""

    index: int
    constraint_id: str
    assignment: Tuple[Tuple[str, Value], ...]  # body variables in order
    added_facts: frozenset                      # TGD: instantiated head
    merged_pair: Optional[Tuple[Value, Value]]  # EGD: (survivor, removed)
    fresh_nulls: Tuple[Tuple[LabeledNull, frozenset], ...]  # null, positions in added facts


class ChasePolicy(NamedTuple):
    order: str = "det"                  # "det" or "rand"
    seed: int = 0
    max_steps: Optional[int] = None     # None: unlimited
    monitor_k: Optional[int] = None     # None: no cycle monitor


class ChaseResult(NamedTuple):
    outcome: str                        # terminated / failed / aborted
    final: Instance                     # last instance reached
    steps: Tuple[ChaseStepRecord, ...]
    failed_step: Optional[int] = None
    clash: Optional[Tuple[Constant, Constant]] = None
    abort_reason: Optional[str] = None  # step_limit / k_cyclic
    abort_k: Optional[int] = None
    kcyclic_chain: Optional[tuple] = None
    monitor: Optional[MonitorGraph] = None  # the graph of a monitored run


def _tgd_step(c: Constraint, key: Tuple[Value, ...], counter: int, taken,
              index: int) -> Tuple[ChaseStepRecord, int]:
    """The record of step number index, a TGD step on the body key key, and
    the next null counter. Each existential variable gets null n<counter>
    with creation index counter, in the order of c's existential
    variables; names in taken (those of the nulls in the current instance)
    are skipped. A fresh null sits in the added facts exactly where its
    variable sits in the head, since no value of the key is fresh, so its
    positions are read off c.head_var_positions."""
    fresh: List[LabeledNull] = []
    for _ in c.existential_vars:
        while f"n{counter}" in taken:
            counter += 1
        fresh.append(LabeledNull(f"n{counter}", counter))
        counter += 1
    ext = key + tuple(fresh)
    added = frozenset([_new(Atom, (rel, args(ext))) for rel, args in c.head_key_program])
    nulls = tuple([(n, frozenset(c.head_var_positions[v]))
                   for n, v in zip(fresh, c.existential_vars)]) if fresh else ()
    rec = ChaseStepRecord(index, c.id, tuple(zip(c.body_var_names, key)),
                          added, None, nulls)
    return rec, counter


def _merged_pair(c: Constraint, a: Assignment) -> Tuple[Value, Value]:
    """(survivor, loser) of an EGD step of c on a: the constant survives if
    there is one, otherwise the null with the smaller creation index.
    Raises ValueError on a satisfied equality and ChaseFailed on two
    distinct constants."""
    left, right = c.equated  # type: ignore[misc]
    u, v = a[left], a[right]
    if u == v:
        raise ValueError("chase_step called on a satisfied equality")
    if isinstance(u, Constant) and isinstance(v, Constant):
        raise ChaseFailed(u, v)
    survivor, loser = sorted((u, v), key=value_key)
    return survivor, loser


def _egd_step(c: Constraint, key: Tuple[Value, ...], index: int) -> ChaseStepRecord:
    """The record of step number index, an EGD step on the body key key,
    whose merged_pair is _merged_pair's (survivor, loser)."""
    return ChaseStepRecord(index, c.id, tuple(zip(c.body_var_names, key)), frozenset(),
                           _merged_pair(c, dict(zip(c.body_vars, key))), ())


def chase_step(I: Instance, c: Constraint, a: Assignment) -> Tuple[Instance, ChaseStepRecord]:
    """Apply one chase step for a violated (c, a). Raises ChaseFailed when an
    EGD would equate two distinct constants."""
    if c.kind == TGD:
        rec, _ = _tgd_step(c, c.body_key(a), I.null_counter, I.null_names(), 0)
    else:
        rec = _egd_step(c, c.body_key(a), 0)
    return apply_record(I, rec), rec


def apply_record(I: Instance, rec: ChaseStepRecord) -> Instance:
    """Replay one recorded step on an instance."""
    if rec.merged_pair is not None:
        survivor, loser = rec.merged_pair
        return Instance(replace_value(I.facts, loser, survivor), I.null_counter)
    counter = I.null_counter
    for n, _ in rec.fresh_nulls:
        counter = max(counter, n.creation_index + 1)
    return Instance(I.facts | rec.added_facts, counter)


class _Pending:
    """Candidate violations of one constraint: body matches as value tuples
    over its body variables, each with its value_key sort key. Always a
    superset of the current violations (see the module docstring); entries
    are checked only when read, and dropped for good once satisfied. The
    heap may hold stale entries; an entry is current only while `live`
    maps its key to its own sort key."""

    __slots__ = ("live", "heap")

    def __init__(self):
        self.live: Dict[Tuple[Value, ...], Tuple] = {}
        self.heap: List[Tuple[Tuple, Tuple[Value, ...]]] = []

    def add(self, key: Tuple[Value, ...]) -> None:
        if key not in self.live:
            sort_key = tuple(map(_order, key))
            self.live[key] = sort_key
            heappush(self.heap, (sort_key, key))

    def rename(self, old: Value, new: Value) -> None:
        moved = [key for key in self.live if old in key]
        for key in moved:
            del self.live[key]
        for key in moved:
            self.add(tuple(new if v == old else v for v in key))

    def first(self, violated) -> Optional[Tuple[Value, ...]]:
        """The least live key that is still a violation, or None."""
        heap, live = self.heap, self.live
        while heap:
            sort_key, key = heap[0]
            # a stale entry may hold a merged-away null whose name a fresh
            # null now has: equal as a key, but not in its sort key
            if live.get(key) == sort_key:
                if violated(key):
                    return key
                del live[key]
            heappop(heap)
        return None

    def all(self, violated) -> List[Tuple[Value, ...]]:
        """Every live key that is still a violation, in order."""
        kept = sorted((sort_key, key) for key, sort_key in self.live.items()
                      if violated(key))
        self.live = {key: sort_key for sort_key, key in kept}
        self.heap = kept  # a sorted list is a heap
        return [key for _, key in kept]


def _violation_test(c: Constraint, index: FactIndex):
    """c's violation test on keys: does the trigger of a key, a body match
    in index, violate c? It is head_holds on the key's assignment, negated
    and compiled: an EGD compares its equated slots, a TGD with no
    existential variable looks its head key program's atoms up, and only a
    TGD with one builds an assignment, to join its head in index."""
    if c.kind == EGD:
        i, j = c.equated_slots
        return lambda key: key[i] != key[j]
    if c.existential_vars:
        head, body_vars = c.head, c.body_vars
        return lambda key: next(join(head, index, dict(zip(body_vars, key))),
                                None) is None
    facts, program = index.facts, c.head_key_program

    def violated(key) -> bool:
        for rel, args in program:
            if _new(Atom, (rel, args(key))) not in facts:
                return True
        return False
    return violated


def _watch_list(sigma: Sequence[Constraint], pending: Sequence) -> Dict:
    """(relation, arity) -> [(pending set, body atom's args, rest of the
    body, key getter)], one entry per body atom of every constraint."""
    watch: Dict[Tuple[str, int], List] = {}
    for c, p in zip(sigma, pending):
        for i, at in enumerate(c.body):
            watch.setdefault((at.relation, len(at.args)), []).append(
                (p, at.args, c.body[:i] + c.body[i + 1:], c.body_key))
    return watch


def _feed(watch: Dict, index: FactIndex, new: Sequence[Atom]) -> None:
    """The semi-naive delta: bind each new fact against the body atoms of
    its relation in watch, join the rest of the body in index, and add each
    match's key to its pending set, with repeats."""
    for f in new:
        for p, args, rest, key in watch.get((f.relation, len(f.args)), ()):
            b: Dict = {}
            if _bind(args, f.args, b, Variable) is None:
                continue
            if rest:
                for m in join(rest, index, b):
                    p.add(key(m))
            else:
                p.add(key(b))


class _Run:
    """The state of one chase run: the run-scoped fact index, the next null
    creation index, one pending-violation set and one violation test per
    constraint, and the watch list that feeds the sets."""

    def __init__(self, I: Instance, sigma: Sequence[Constraint]):
        self.sigma = sigma
        self.index = FactIndex(I.facts)
        self.counter = I.null_counter
        self.pending = [_Pending() for _ in sigma]
        self.violated = [_violation_test(c, self.index) for c in sigma]
        self.watch = _watch_list(sigma, self.pending)
        for c, p in zip(sigma, self.pending):
            for key in body_matches(self.index, c):
                p.add(key)

    def instance(self) -> Instance:
        return Instance(frozenset(self.index.facts), self.counter)

    def next_det(self, pointer: int):
        """Round-robin from pointer: the least violation of the first
        constraint that has one."""
        n = len(self.sigma)
        for off in range(n):
            idx = (pointer + off) % n
            if not self.pending[idx].heap:
                continue
            key = self.pending[idx].first(self.violated[idx])
            if key is not None:
                return idx, key
        return None

    def next_rand(self, rng: random.Random):
        """A uniform draw from every violation, constraints in order."""
        pool = [(idx, key) for idx, (p, violated)
                in enumerate(zip(self.pending, self.violated))
                for key in p.all(violated)]
        if not pool:
            return None
        return pool[rng.randrange(len(pool))]

    def apply(self, c: Constraint, key: Tuple[Value, ...], index: int) -> ChaseStepRecord:
        """Apply step number index, on the body key key, to the fact index
        and feed the facts it added or rewrote to the pending sets. Raises
        ChaseFailed, leaving the run unchanged, on a constant clash."""
        if c.kind == TGD:
            rec, self.counter = _tgd_step(c, key, self.counter, self.index.nulls, index)
            new = self.index.add(sorted(rec.added_facts, key=fact_key))
        else:
            rec = _egd_step(c, key, index)
            survivor, loser = rec.merged_pair
            new = self.index.rename(loser, survivor)
            for p in self.pending:
                p.rename(loser, survivor)
        _feed(self.watch, self.index, new)
        return rec


def chase(I: Instance, sigma: Sequence[Constraint], policy: ChasePolicy = ChasePolicy()) -> ChaseResult:
    """Run the chase to completion under the given policy.

    Returns Terminated with the final instance, Failed on a constant clash,
    or Aborted when the step limit or the cycle monitor trips. A run with
    policy.monitor_k set also returns its monitor graph. A bad policy
    raises ValueError before any step.
    """
    if policy.order not in ("det", "rand"):
        raise ValueError(f"unknown chase order {policy.order!r}")
    if policy.max_steps is not None and policy.max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    if policy.monitor_k is not None and policy.monitor_k < 1:
        raise ValueError("k must be at least 1")
    monitor = None if policy.monitor_k is None else MonitorGraph()
    rng = random.Random(policy.seed) if policy.order == "rand" else None
    sigma = list(sigma)
    run = _Run(I, sigma)
    steps: List[ChaseStepRecord] = []

    def result(outcome: str, **detail) -> ChaseResult:
        return ChaseResult(outcome, run.instance(), tuple(steps),
                           monitor=monitor, **detail)

    pointer = 0
    while True:
        pick = run.next_det(pointer) if rng is None else run.next_rand(rng)
        if pick is None:
            return result(TERMINATED)
        if policy.max_steps is not None and len(steps) >= policy.max_steps:
            return result(ABORTED, abort_reason=STEP_LIMIT)
        idx, key = pick
        c = sigma[idx]
        try:
            rec = run.apply(c, key, len(steps))
        except ChaseFailed as f:
            return result(FAILED, failed_step=len(steps), clash=f.clash)
        steps.append(rec)
        if monitor is not None:
            monitor_update(monitor, rec, c)
            cyc, chain = is_k_cyclic(monitor, policy.monitor_k)
            if cyc:
                return result(ABORTED, abort_reason=K_CYCLIC,
                              abort_k=policy.monitor_k, kcyclic_chain=chain)
        pointer = (idx + 1) % len(sigma)


def monitored_chase(I: Instance, sigma: Sequence[Constraint], k: int,
                    policy: ChasePolicy = ChasePolicy()) -> ChaseResult:
    """Chase with the cycle monitor armed: aborts with reason k_cyclic the
    first time the monitor graph becomes k-cyclic. The result's `monitor`
    is the graph of the steps run. A k below 1 raises ValueError."""
    return chase(I, sigma, policy._replace(monitor_k=k))
