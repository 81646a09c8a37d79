"""Seeded inputs of the benchmark workloads and independent checks of their outputs.

Every input is written as `.rules`/`.inst` text, so the package under test
only ever sees files. The checks here read the JSON the package prints and
never import `chaseterm`: the chase result is re-checked with a naive join of
this module's own, the analysis verdicts against the order of the ladder.

Rules are kept here in a small tuple form. An atom is `(relation, args)`; an
argument starting with an uppercase letter is a variable, one starting with
`?` a labeled null, anything else a constant. A rule is
`(label, body, head)`, where `head` is a list of atoms for a TGD and a pair
`("=", (left, right))` for an EGD.
"""

from __future__ import annotations

import random

WORKLOADS = ("chase-tc", "analyze-batch", "termcheck-travel")

# Sizes per mode. "full" is what the benchmark measures: a repetition takes
# about 0.4 s (chase-tc), 2.3 s (analyze-batch) and 0.6 s (termcheck-travel)
# on a 2-core Xeon VM, so that a run holds many repetitions (see run.py on
# why). analyze-batch keeps over 100 operations, so that at least ten lie
# beyond its p90. "smoke" is small enough that the whole self-check runs in
# seconds.
SIZES = {
    "full": {"tc_edges": 10, "batch_sets": 120, "widths": (3, 4),
             "rail": 40, "airports": 10, "k": 10},
    "smoke": {"tc_edges": 6, "batch_sets": 24, "widths": (3,),
              "rail": 12, "airports": 6, "k": 4},
}

# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _atom_text(atom) -> str:
    rel, args = atom
    return f"{rel}({', '.join(args)})"


def rule_text(rule) -> str:
    label, body, head = rule
    lhs = ", ".join(_atom_text(a) for a in body) if body else "true"
    if head[0] == "=":
        rhs = f"{head[1][0]} = {head[1][1]}"
    else:
        rhs = ", ".join(_atom_text(a) for a in head)
    return f"{label}: {lhs} -> {rhs}."


def rules_text(rules) -> str:
    return "".join(rule_text(r) + "\n" for r in rules)


def facts_text(facts) -> str:
    return "".join(_atom_text(f) + ".\n" for f in facts)


# ---------------------------------------------------------------------------
# Generators. Each returns (files, spec): files maps a file name to its
# text, spec is what the child process runs and what the checks expect.
# ---------------------------------------------------------------------------

TC_RULES = (
    ("t1", [("e", ("X", "Y"))], [("t", ("X", "Y"))]),
    ("t2", [("t", ("X", "Y")), ("e", ("Y", "Z"))], [("t", ("X", "Z"))]),
    ("m1", [("e", ("X", "Y"))], [("m", ("X", "Z")), ("m", ("Y", "Z"))]),
    ("q1", [("m", ("X", "Z1")), ("m", ("X", "Z2"))], ("=", ("Z1", "Z2"))),
)


def gen_chase_tc(rng: random.Random, size: dict):
    """A path of n edges through n+1 constants in seeded order. The work is
    the same for every seed: n(n+1)/2 closure facts, n existential adds and
    n-1 merges of their nulls."""
    n = size["tc_edges"]
    names = [f"v{i}" for i in range(n + 1)]
    rng.shuffle(names)
    edges = [("e", (names[i], names[i + 1])) for i in range(n)]
    rng.shuffle(edges)
    files = {"tc.rules": rules_text(TC_RULES), "tc.inst": facts_text(edges)}
    spec = {"ops": [{"name": "chase",
                     "argv": ["chase", "tc.rules", "tc.inst", "--json"],
                     "exit": 0}],
            "path": names, "steps": n * (n + 1) // 2 + n + (n - 1)}
    return files, spec


TRAVEL_RULES = (
    ("a1", [("fly", ("X1", "X2", "Y"))],
     [("hasAirport", ("X1",)), ("hasAirport", ("X2",))]),
    ("a2", [("rail", ("X1", "X2", "Y"))], [("rail", ("X2", "X1", "Y"))]),
    ("a3", [("fly", ("X1", "X2", "Y1"))], [("fly", ("X2", "X3", "Y2"))]),
    ("e1", [("hasAirport", ("X",)), ("airportOf", ("X", "Y")),
            ("airportOf", ("X", "Z"))], ("=", ("Y", "Z"))),
)


def gen_termcheck_travel(rng: random.Random, size: dict):
    """The README travel rules on an instance that no rung of the ladder and
    no pruning can save, so termcheck runs the monitored chase until the
    flight generator a3 has chained k times. c0 holds two airports, so the
    EGD merges once. Every seed gives the same shape under other names."""
    n_rail, n_air, k = size["rail"], size["airports"], size["k"]
    cities = [f"c{i}" for i in range(1, n_rail // 2 + 1)]
    rng.shuffle(cities)
    rail = set()
    while len(rail) < n_rail:
        a, b = rng.sample(cities, 2)
        rail.add((a, b))
    facts = [("rail", (a, b, f"?r{i}")) for i, (a, b) in enumerate(sorted(rail))]
    facts += [("airportOf", ("c0", "?p0")), ("airportOf", ("c0", "?p1"))]
    facts += [("airportOf", (c, f"?p{i + 2}"))
              for i, c in enumerate(rng.sample(cities, n_air - 2))]
    facts.append(("fly", ("c0", "?x2", "?y2")))
    rng.shuffle(facts)
    files = {"travel.rules": rules_text(TRAVEL_RULES),
             "travel.inst": facts_text(facts)}
    spec = {"ops": [{"name": "termcheck",
                     "argv": ["termcheck", "travel.rules", "travel.inst",
                              "--json", "-k", str(k)],
                     "exit": 3}],
            "k": k}
    return files, spec


_SCHEMA = (("S", 1), ("R", 2), ("T", 2))


def _random_atom(rng: random.Random, pool):
    rel, arity = rng.choice(_SCHEMA)
    return (rel, tuple(rng.choice(pool) for _ in range(arity)))


def _random_rule(rng: random.Random, label: str):
    xs = ["X1", "X2", "X3"]
    body = [_random_atom(rng, xs) for _ in range(rng.randint(0, 3))]
    body_vars = sorted({t for _, args in body for t in args})
    if len(body_vars) >= 2 and rng.random() < 0.25:
        return (label, body, ("=", tuple(rng.sample(body_vars, 2))))
    head = [_random_atom(rng, xs + ["Y1", "Y2"])
            for _ in range(rng.randint(1, 3))]
    return (label, body, head)


def width_rules(n: int):
    """The cyclic-body width family: an n-variable cycle of E atoms that
    starts a new E edge, and a feedback rule that reverses every edge."""
    body = [("E", (f"X{i}", f"X{i % n + 1}")) for i in range(1, n + 1)]
    return ((f"w{n}", body, [("E", ("X1", "Y"))]),
            ("fb", [("E", ("X", "Y"))], [("E", ("Y", "X"))]))


def _rename_set(rng: random.Random, rules):
    """The same rule set under a seeded renaming: variables permuted, R and
    T swapped or not, atoms and rules reordered and rules relabelled."""
    names = {}
    for group in (["X1", "X2", "X3"], ["Y1", "Y2"]):
        names.update(zip(group, rng.sample(group, len(group))))
    if rng.random() < 0.5:
        names.update({"R": "T", "T": "R"})

    def atoms(seq):
        out = [(names.get(rel, rel), tuple(names[t] for t in args))
               for rel, args in seq]
        rng.shuffle(out)
        return out

    out = []
    for _, body, head in rng.sample(rules, len(rules)):
        if head[0] == "=":
            head = ("=", tuple(names[t] for t in head[1]))
        else:
            head = atoms(head)
        out.append((f"r{len(out) + 1}", atoms(body), head))
    return out


# The rule sets of analyze-batch are drawn once from this fixed seed; the
# workload seed renames each of them (see _rename_set). Costs of random
# sets are heavy-tailed, so fresh draws per seed would make the batch's
# total time swing by a third from seed to seed; renaming keeps the amount
# of ladder work fixed while the search still meets its candidates in a
# seed-dependent order. The sets keep their order, so that each verdict's
# cache warmth, and with it the median verdict, is the same for every seed.
BATCH_BASE_SEED = "analyze-batch/base"


def gen_analyze_batch(rng: random.Random, size: dict):
    """Random sets of one to three rules over S/1, R/2, T/2, each rule with
    up to three atoms per side and about a quarter EGDs, then the width
    family, whose firing search grows fastest with rule width."""
    base = random.Random(BATCH_BASE_SEED)
    sets = [[_random_rule(base, f"r{j}")
             for j in range(1, base.randint(1, 3) + 1)]
            for _ in range(size["batch_sets"])]
    sets = [_rename_set(rng, rules) for rules in sets]
    files = {f"set{i:03d}.rules": rules_text(rules)
             for i, rules in enumerate(sets)}
    for n in size["widths"]:
        files[f"width{n}.rules"] = rules_text(width_rules(n))
    ops = [{"name": name[:-len(".rules")], "rules": name} for name in files]
    return files, {"ops": ops}


GENERATORS = {
    "chase-tc": gen_chase_tc,
    "analyze-batch": gen_analyze_batch,
    "termcheck-travel": gen_termcheck_travel,
}


def generate(workload: str, seed: int, mode: str):
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), SIZES[mode])


# ---------------------------------------------------------------------------
# Checks. Each returns its problems as (op index, message) pairs; none
# means every output is right.
# ---------------------------------------------------------------------------


def parse_fact(text: str):
    rel, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"malformed fact {text!r}")
    return (rel, tuple(a.strip() for a in rest[:-1].split(",")))


def _is_var(term: str) -> bool:
    return term[:1].isupper()


def _join(atoms, by_rel, binding):
    """Every extension of binding that maps all atoms into the facts."""
    if not atoms:
        yield binding
        return
    (rel, args), rest = atoms[0], atoms[1:]
    for fact_args in by_rel.get(rel, ()):
        b = dict(binding)
        for t, v in zip(args, fact_args):
            if not _is_var(t):
                if t != v:
                    break
            elif b.setdefault(t, v) != v:
                break
        else:
            yield from _join(rest, by_rel, b)


def unsatisfied(rules, facts):
    """Rules the fact set violates, with one violating assignment each."""
    by_rel = {}
    for rel, args in facts:
        by_rel.setdefault(rel, []).append(args)
    out = []
    for label, body, head in rules:
        for b in _join(list(body), by_rel, {}):
            if head[0] == "=":
                ok = b[head[1][0]] == b[head[1][1]]
            else:
                ok = next(_join(list(head), by_rel, b), None) is not None
            if not ok:
                out.append(f"{label} violated under {b}")
                break
    return out


def check_chase_tc(spec, outputs):
    (out,) = outputs
    if out["outcome"] != "terminated":
        return [(0, f"outcome {out['outcome']}, expected terminated")]
    facts = {parse_fact(f) for f in out["final"]}
    problems = unsatisfied(TC_RULES, facts)
    path = spec["path"]
    closure = {(path[i], path[j]) for i in range(len(path))
               for j in range(i + 1, len(path))}
    if {args for rel, args in facts if rel == "t"} != closure:
        problems.append("t is not the transitive closure of e")
    if {(path[i], path[i + 1]) for i in range(len(path) - 1)} != {
            args for rel, args in facts if rel == "e"}:
        problems.append("e facts of the input changed")
    if out["steps"] != spec["steps"]:
        problems.append(f"{out['steps']} steps, expected {spec['steps']}")
    return [(0, p) for p in problems]


_RUNGS = ("weakly_acyclic", "safe", "stratified", "safely_restricted",
          "inductively_restricted")


def check_analyze_batch(spec, outputs):
    problems = []
    for i, out in enumerate(outputs):
        v = {k: out[k] for k in _RUNGS}
        for lo, hi in (("weakly_acyclic", "stratified"),
                       ("safe", "safely_restricted"),
                       ("safely_restricted", "inductively_restricted")):
            if v[lo] and not v[hi]:
                problems.append((i, f"{lo} without {hi}"))
        if out["terminating"] != any(v.values()):
            problems.append((i, "terminating is not the OR of the rungs"))
    return problems


def check_termcheck_travel(spec, outputs):
    (out,) = outputs
    problems = []
    run = out["monitored_chase"]
    if out["level"] != "None":
        problems.append(f"guarantee {out['level']}, expected None")
    if sorted(out["relevant"]) != ["a1", "a2", "a3", "e1"] or out["irrelevant"]:
        problems.append("pruning dropped a rule the instance reaches")
    if (run["outcome"], run["abort_reason"], run["abort_k"]) != (
            "aborted", "k_cyclic", spec["k"]):
        problems.append(f"monitored chase ended {run['outcome']}/"
                        f"{run['abort_reason']}, expected aborted/k_cyclic")
    flights = sum(1 for f in run["final"] if f.startswith("fly("))
    if flights <= spec["k"]:
        problems.append(f"{flights} fly facts cannot hold a chain of {spec['k']}")
    return [(0, p) for p in problems]


CHECKS = {
    "chase-tc": check_chase_tc,
    "analyze-batch": check_analyze_batch,
    "termcheck-travel": check_termcheck_travel,
}
