"""Core model: terms, satisfaction, violations, homomorphisms."""

import collections
import copy
import pickle
import random

import pytest

from chaseterm import firing
from chaseterm.model import (
    TGD, Atom, Constant, Constraint, LabeledNull, ModelError, Position,
    Variable, egd, find_homomorphism, find_violations,
    hom_equivalent, instance, instantiate, match_conjunction, satisfies, tgd,
    value_key,
)
from .conftest import A, C, N, V
from . import generators, oracles


class TestTerms:
    def test_kinds_are_disjoint(self):
        assert Constant("a") != LabeledNull("a")
        assert Constant("a") != Variable("a")
        assert LabeledNull("a") != Variable("a")

    def test_null_equality_ignores_creation_index(self):
        assert LabeledNull("n1", 0) == LabeledNull("n1", 7)
        assert hash(LabeledNull("n1", 0)) == hash(LabeledNull("n1", 7))
        assert LabeledNull("n1") != LabeledNull("n2")

    def test_kind_takes_part_in_equality_inside_atoms(self):
        assert A("R", C("a")) != A("R", N("a"))
        assert A("R", C("a")) != A("R", V("a"))
        assert A("R", N("a", 1)) == A("R", N("a", 2))
        assert len({A("R", C("a")), A("R", N("a")), A("R", V("a"))}) == 3

    @pytest.mark.parametrize("value, field", [
        (Constant("a"), "name"), (LabeledNull("n", 1), "name"),
        (LabeledNull("n", 1), "creation_index"), (Variable("X"), "name"),
        (Position("R", 1), "index"), (Atom("R", (Constant("a"),)), "args"),
        (Atom("R", (Constant("a"),)), "relation"),
    ],  # a term is a str, which pytest would name its case by, tag included
        ids=["value0-name", "value1-name", "value2-creation_index", "value3-name",
             "value4-index", "value5-args", "value6-relation"])
    def test_fields_cannot_be_set(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == before

    def test_reprs(self):
        assert repr(C("a")) == "a"
        assert repr(N("n1", 3)) == "?n1"
        assert repr(V("X")) == "X"
        assert repr(Position("E", 2)) == "E^2"
        assert repr(A("E", C("a"), N("n1"), V("X"))) == "E(a, ?n1, X)"

    @pytest.mark.parametrize("term", [C("a"), N("n1", 3), V("X")], ids=repr)
    def test_str_and_format_give_the_repr(self, term):
        # a term is a str underneath; its printed forms must not show that
        shown = repr(term)
        for text in (str(term), f"{term}", "%s" % term, format(term, ""),
                     "{}".format(term)):
            assert text == shown and type(text) is str
        assert f"{term:>6}" == f"{shown:>6}"

    @pytest.mark.parametrize("term", [C("a"), N("n1", 3), N("n2"), V("X")], ids=repr)
    def test_copy_and_pickle_rebuild_the_term(self, term):
        copies = [copy.copy(term), copy.deepcopy(term)]
        copies += [pickle.loads(pickle.dumps(term, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(term)
            assert twin == term and hash(twin) == hash(term)
            assert oracles.strict(twin) == oracles.strict(term)
            assert repr(twin) == repr(term)

    @pytest.mark.parametrize("value", [C("a"), N("n1", 3), N("n2")], ids=repr)
    def test_copy_and_pickle_keep_the_order_key(self, value):
        # a copy is rebuilt from the name, and a null's creation index, so
        # it carries the order key built from them, not a stale one
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert twin.order == value.order == value_key(value)
            if type(value) is LabeledNull:
                assert twin.creation_index == value.creation_index
                assert twin.order == (1, value.creation_index, value.name)

    def test_kinds_stay_disjoint_for_names_that_begin_with_a_tag(self):
        # the names are every tag and tag pair in front of "a"
        kinds = (Constant, LabeledNull, Variable)
        tags = [chr(1), chr(2), chr(3)]
        names = ["a"] + [t + "a" for t in tags] + [t + u + "a" for t in tags for u in tags]
        terms = [kind(name) for kind in kinds for name in names]
        assert len(set(terms)) == len(terms)
        for t in terms:
            for u in terms:
                assert (t == u) == (t is u)
        assert len({A("R", t) for t in terms}) == len(terms)

    def test_value_order_constants_before_nulls(self):
        vals = [N("b", 2), C("z"), N("a", 1), C("a")]
        ordered = sorted(vals, key=value_key)
        assert ordered == [C("a"), C("z"), N("a", 1), N("b", 2)]


class TestValueTypes:
    """Atoms and positions are tuples: they hash as the tuple of their
    fields, which keeps every set's and dict's iteration order."""

    ATOMS = [A("E", C("a"), N("n1", 3), V("X")), A("S"), A("R", N("n1"), N("n1"))]
    POSITIONS = [Position("E", 1), Position("E", 2), Position("S", 0)]

    def test_hash_is_the_hash_of_the_fields(self):
        for a in self.ATOMS:
            assert hash(a) == hash((a.relation, a.args))
        for p in self.POSITIONS:
            assert hash(p) == hash((p.relation, p.index))

    @pytest.mark.parametrize("value", ATOMS + POSITIONS, ids=repr)
    def test_copy_and_pickle_rebuild_the_value(self, value):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert oracles.strict(twin) == oracles.strict(value)
            assert repr(twin) == repr(value) == str(value)

    CONSTRAINTS = [
        tgd("t", [A("E", V("X"), V("Y")), A("S", C("a"))],
            [A("E", V("Y"), V("Z")), A("S", V("Z")), A("R", C("b"), V("X"))]),
        tgd("b", [], [A("R", C("a"), V("Z"))]),
        egd("e", [A("E", V("X"), V("Y")), A("E", V("X"), V("Z"))], V("Y"), V("Z")),
    ]

    @pytest.mark.parametrize("c", CONSTRAINTS, ids=repr)
    def test_copy_and_pickle_rebuild_the_constraint(self, c):
        def compiled(c):
            # the key of a match, and the head built from it
            key = c.body_key({v: C(f"k{i}") for i, v in enumerate(c.body_vars)})
            src = key + tuple(N(f"x{i}") for i in range(len(c.existential_vars)))
            return key, [(rel, program(src)) for rel, program in c.head_key_program]

        # the original's compiled forms, lambdas among them, are built first
        expected = compiled(c)
        copies = [copy.copy(c), copy.deepcopy(c)]
        copies += [pickle.loads(pickle.dumps(c, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(c)
            assert twin == c and hash(twin) == hash(c)
            assert compiled(twin) == expected
            assert twin.constants == c.constants
            if c.equated:
                assert twin.equated_slots == c.equated_slots

    def test_reprs_are_unchanged(self):
        assert [repr(a) for a in self.ATOMS] == ["E(a, ?n1, X)", "S()", "R(?n1, ?n1)"]
        assert [repr(p) for p in self.POSITIONS] == ["E^1", "E^2", "S^0"]
        assert repr((A("E", C("a")), Position("E", 1))) == "(E(a), E^1)"

    def test_an_atom_never_equals_a_position(self):
        atoms = self.ATOMS + [A("E", C("a")), Atom("E", ())]
        for a in atoms:
            for p in self.POSITIONS:
                assert a != p and not a == p
        assert len(set(atoms) | set(self.POSITIONS)) == len(atoms) + len(self.POSITIONS)

    def test_firing_symbols_are_built_once(self):
        assert firing._placeholder(3) is firing._placeholder(3)
        assert firing._placeholder(0) == LabeledNull("~f0")
        assert firing._placeholder(0).creation_index == firing._PLACEHOLDER_BASE
        const, null = firing._new_symbols(4, frozenset())
        assert firing._new_symbols(4, frozenset({"b"})) == (const, null)
        assert firing._new_symbols(4, frozenset())[0] is const
        assert (const, null, null.creation_index) == (C("c4"), N("u4"), 5)
        # a pool constant that clashes with a named one is renamed
        assert firing._new_symbols(4, frozenset({"c4", "c_c4"})) == (C("c_c_c4"), null)


class TestConstruction:
    def test_tgd_requires_head(self):
        with pytest.raises(ModelError):
            tgd("c", [A("S", V("X"))], [])

    def test_egd_requires_equated_vars_in_body(self):
        with pytest.raises(ModelError):
            egd("c", [A("R", V("X"), V("Y"))], V("X"), V("Z"))

    def test_no_nulls_inside_constraints(self):
        with pytest.raises(ModelError):
            tgd("c", [A("S", N("n"))], [A("S", V("X"))])

    def test_arity_is_consistent(self):
        with pytest.raises(ModelError):
            tgd("c", [A("R", V("X")), A("R", V("X"), V("Y"))], [A("S", V("X"))])
        with pytest.raises(ModelError):
            instance([A("R", C("a")), A("R", C("a"), C("b"))])

    def test_instance_must_be_ground(self):
        with pytest.raises(ModelError):
            instance([A("R", V("X"))])

    def test_conjunctions_are_sets(self):
        x = V("X")
        c = tgd("c", [A("S", x), A("S", x)], [A("T", x), A("T", x)])
        assert len(c.body) == 1 and len(c.head) == 1

    def test_existential_vars(self, feedback_sigma):
        a1, a2 = feedback_sigma
        assert a1.existential_vars == ()
        assert a2.existential_vars == (V("Z"),)


class TestOccurrences:
    """A constraint's occurrence maps, body_var_positions and
    head_var_positions, from its shape."""

    def test_agrees_with_term_positions(self):
        # oracles.term_positions, one term at a time, is the reference
        seen = collections.Counter()
        for seed in range(40):
            rng = random.Random(f"model/occurrences/{seed}")
            sigma = generators.random_constraints(rng, max_atoms=3,
                                                  constant_rate=0.2)
            for c in sigma:
                for atoms, got in ((c.body, c.body_var_positions),
                                   (c.head, c.head_var_positions)):
                    assert set(got) == {t for a in atoms for t in a.args
                                        if t.__class__ is Variable}
                    for t, ps in got.items():
                        assert len(ps) == len(set(ps)), (atoms, t)
                        assert frozenset(ps) == oracles.term_positions(atoms, t)
                        seen["variable"] += 1
                        if any(a.args.count(t) > 1 for a in atoms):
                            seen["repeated in one atom"] += 1
        assert seen["variable"] and seen["repeated in one atom"], seen

    def test_first_occurrence_order_without_repeats(self):
        x, y, z = V("X"), V("Y"), V("Z")
        c = Constraint("c", TGD, (A("R", x, x), A("T", y, x), A("R", x, x)),
                       (A("S", z, C("a"), x), A("S", z, C("a"), x)))
        assert list(c.body_var_positions.items()) == [
            (x, (Position("R", 1), Position("R", 2), Position("T", 2))),
            (y, (Position("T", 1),))]
        assert list(c.head_var_positions.items()) == [
            (z, (Position("S", 1),)), (x, (Position("S", 3),))]


class TestInstantiate:
    def test_direct_substitution(self):
        a = {V("X"): C("a"), V("Y"): C("b")}
        assert instantiate([A("E", V("X"), V("Y"))], a) == frozenset([A("E", C("a"), C("b"))])

    def test_empty_conjunction(self):
        assert instantiate([], {V("X"): C("a")}) == frozenset()

    def test_constants_pass_through(self):
        a = {V("X"): C("a"), V("Y"): N("n1")}
        got = instantiate([A("S", V("X")), A("E", V("X"), V("Y"))], a)
        assert got == frozenset([A("S", C("a")), A("E", C("a"), N("n1"))])

    def test_unbound_variable_is_named(self):
        with pytest.raises(ModelError, match="Y"):
            instantiate([A("E", V("X"), V("Y"))], {V("X"): C("a")})


class TestSatisfies:
    def test_fly_constraint_violated(self, travel_sigma):
        # one flight lands in b; nothing departs from b
        a3 = travel_sigma[2]
        I = instance([A("fly", C("a"), C("b"), C("d"))])
        a = {V("X1"): C("a"), V("X2"): C("b"), V("Y1"): C("d")}
        assert satisfies(I, a3, a) is False

    def test_empty_instance_vacuous(self, feedback_sigma):
        a1, _ = feedback_sigma
        I = instance([])
        a = {V("X"): C("a"), V("Y"): C("b")}
        assert satisfies(I, a1, a) is True

    def test_body_not_contained_vacuous(self, feedback_sigma):
        a1, _ = feedback_sigma
        I = instance([A("E", C("a"), C("b")), A("E", C("b"), C("a"))])
        a = {V("X"): C("a"), V("Y"): C("b")}
        assert satisfies(I, a1, a) is True  # S(a) missing

    def test_egd_self_equation_is_satisfied(self):
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("X"))
        I = instance([A("R", C("a"), C("b"))])
        assert satisfies(I, e, {V("X"): C("a"), V("Y"): C("b")}) is True

    def test_matches_brute_force_on_samples(self, feedback_sigma):
        a1, a2 = feedback_sigma
        I = instance([A("S", C("a")), A("E", C("a"), N("n1")), A("E", N("n1"), C("a"))])
        for c in (a1, a2):
            for a in oracles.bf_violations(I, c):
                assert satisfies(I, c, a) is False
            for val_x in sorted(I.domain(), key=value_key):
                for val_y in sorted(I.domain(), key=value_key):
                    a = {V("X"): val_x, V("Y"): val_y}
                    assert satisfies(I, c, a) == oracles.bf_satisfies(I, c, a)


class TestFindViolations:
    def test_rail_and_fly_single_violation(self, travel_sigma, oneway_instance):
        a3 = travel_sigma[2]
        vs = find_violations(oneway_instance, a3)
        assert vs == [{V("X1"): N("x1"), V("X2"): N("x2"), V("Y1"): N("y2")}]

    def test_model_case_is_empty(self, feedback_sigma):
        a1, _ = feedback_sigma
        I = instance([A("S", C("a")), A("E", C("a"), C("b")), A("E", C("b"), C("a"))])
        assert find_violations(I, a1) == []

    def test_chain_example_frozen(self):
        # R(a,b), R(b,c) with R(x,y), R(y,z) -> exists w. R(z,w):
        # the single join embedding is x=a, y=b, z=c and nothing leaves c.
        x, y, z, w = V("X"), V("Y"), V("Z"), V("W")
        c = tgd("c", [A("R", x, y), A("R", y, z)], [A("R", z, w)])
        I = instance([A("R", C("a"), C("b")), A("R", C("b"), C("c"))])
        expected = [{x: C("a"), y: C("b"), z: C("c")}]
        assert find_violations(I, c) == expected
        assert oracles.bf_violations(I, c) == expected

    def test_agrees_with_oracle_and_ordering(self, feedback_sigma):
        a1, a2 = feedback_sigma
        I = instance([
            A("S", C("a")), A("S", N("u")), A("E", C("a"), C("b")),
            A("E", N("u"), C("a")), A("E", C("b"), N("u")),
        ])
        for c in (a1, a2):
            got = find_violations(I, c)
            want = oracles.bf_violations(I, c)
            assert [dict(v) for v in got] == sorted(
                want, key=lambda a: tuple(value_key(a[v]) for v in c.body_vars))

    def test_empty_body_constraint(self):
        c = tgd("c", [], [A("S", V("X"))])
        assert find_violations(instance([]), c) == [{}]
        assert find_violations(instance([A("S", C("a"))]), c) == []


class TestMatcherAgainstOracle:
    def test_matches_and_violations_agree(self):
        # the matcher over an Instance, whose buckets keep no order, against
        # the recursive join of oracles: matches as a multiset, violations
        # in their value_key order
        def multiset(matches):
            return collections.Counter(frozenset(m.items()) for m in matches)

        seen = collections.Counter()
        for seed in range(60):
            rng = random.Random(f"model/matcher/{seed}")
            I = generators.random_instance(rng, max_facts=12, n_constants=2)
            for c in generators.random_constraints(rng, max_atoms=3,
                                                   egd_rate=0.5):
                matches = list(match_conjunction(c.body, I))
                assert multiset(matches) == multiset(
                    oracles.ref_match_conjunction(c.body, I)), (I, c)
                for m in matches[:3]:
                    base = {v: m[v] for v in c.body_vars}
                    assert multiset(match_conjunction(c.head, I, base)) == multiset(
                        oracles.ref_match_conjunction(c.head, I, base)), (I, c, m)
                got = find_violations(I, c)
                assert got == oracles.ref_find_violations(I, c), (I, c)
                seen["matches"] += len(matches)
                seen["violations"] += len(got)
        assert seen["matches"] and seen["violations"], seen


class TestHomomorphism:
    def test_identity(self, roundtrip_instance):
        h = find_homomorphism(roundtrip_instance, roundtrip_instance)
        assert h is not None
        for v in roundtrip_instance.domain():
            assert h[v] == v or isinstance(v, LabeledNull)
        assert hom_equivalent(roundtrip_instance, roundtrip_instance)

    def test_collapse_onto_constant(self):
        src = instance([A("E", N("n1"), N("n2"))])
        tgt = instance([A("E", C("a"), C("a"))])
        h = find_homomorphism(src, tgt)
        assert h == {N("n1"): C("a"), N("n2"): C("a")}

    def test_constant_must_map_to_itself(self):
        src = instance([A("E", C("a"), N("n1"))])
        tgt = instance([A("E", C("b"), C("c"))])
        assert find_homomorphism(src, tgt) is None
        assert oracles.bf_homomorphism(src, tgt) is None

    def test_composition_is_homomorphism(self):
        I = instance([A("E", N("n1"), N("n2"))])
        J = instance([A("E", N("m1"), N("m1"))])
        K = instance([A("E", C("a"), C("a"))])
        h = find_homomorphism(I, J)
        g = find_homomorphism(J, K)
        assert h is not None and g is not None
        composed = {v: g[h[v]] for v in I.domain()}
        image = {A("E", composed[N("n1")], composed[N("n2")])}
        assert image <= K.facts

    def test_agrees_with_oracle(self, oneway_instance, roundtrip_instance):
        assert (find_homomorphism(oneway_instance, roundtrip_instance) is None) == \
            (oracles.bf_homomorphism(oneway_instance, roundtrip_instance) is None)
        assert (find_homomorphism(roundtrip_instance, oneway_instance) is None) == \
            (oracles.bf_homomorphism(roundtrip_instance, oneway_instance) is None)

    def test_long_null_chain_is_searched_without_recursion(self):
        nulls = [N(f"n{i}", i) for i in range(1, 1202)]
        I = instance([A("e", u, v) for u, v in zip(nulls, nulls[1:])])
        assert len(I.facts) == 1200
        assert hom_equivalent(I, I)

    def test_null_chain_in_name_order_stays_linear(self):
        # the nulls share one creation index, so fact_key sorts them by
        # name (n0, n1, n10, n100, ...), far from chain order
        nulls = [N(f"n{i}", 0) for i in range(1001)]
        I = instance([A("e", u, v) for u, v in zip(nulls, nulls[1:])])
        assert len(I.facts) == 1000
        assert hom_equivalent(I, I)
        h = find_homomorphism(I, I)
        assert h is not None
        assert {A("e", h[u], h[v]) for u, v in zip(nulls, nulls[1:])} <= I.facts

    def test_same_mapping_as_recursive_search(self, oneway_instance, roundtrip_instance):
        E = instance([A("E", N("n1"), N("n2"))])
        cases = [
            (roundtrip_instance, roundtrip_instance),
            (oneway_instance, roundtrip_instance),
            (roundtrip_instance, oneway_instance),
            (E, instance([A("E", C("a"), C("a"))])),
            (instance([A("E", C("a"), N("n1"))]), instance([A("E", C("b"), C("c"))])),
            (E, instance([A("E", N("m1"), N("m1"))])),
        ]
        for src, tgt in cases:
            got = find_homomorphism(src, tgt)
            want = oracles.ref_find_homomorphism(src, tgt)
            assert (got is None) == (want is None)
            if got is not None:
                assert [(value_key(k), value_key(v)) for k, v in got.items()] == \
                    [(value_key(k), value_key(v)) for k, v in want.items()]
