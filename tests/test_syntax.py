"""Parser and printer behavior, including the golden surface forms."""

import random

import pytest

from chaseterm.model import Constant, EGD, LabeledNull, TGD, Variable
from chaseterm.syntax import (
    ParseError, parse_constraints, parse_instance, print_constraint,
    print_constraints, print_instance,
)

from . import oracles
from .conftest import A, C, N, V


class TestConstraintParsing:
    def test_plain_tgd(self):
        doc = parse_constraints("S(X), E(X,Y) -> E(Y,X).")
        (c,) = doc.constraints
        assert c.kind == TGD
        assert c.body == (A("S", V("X")), A("E", V("X"), V("Y")))
        assert c.head == (A("E", V("Y"), V("X")),)

    def test_body_less_tgd(self):
        doc = parse_constraints("true -> S(X), E(X,Y).")
        (c,) = doc.constraints
        assert c.body == ()
        assert sorted(v.name for v in c.existential_vars) == ["X", "Y"]

    def test_key_egd(self):
        doc = parse_constraints("R(X,Y), R(X,Z) -> Y = Z.")
        (c,) = doc.constraints
        assert c.kind == EGD
        assert c.equated == (V("Y"), V("Z"))

    def test_labels_and_default_ids(self):
        doc = parse_constraints("""
            first: S(X) -> T(X).
            T(X) -> U(X).
            U(X) -> W(X).
        """)
        assert [c.id for c in doc.constraints] == ["first", "c1", "c2"]

    def test_lowercase_is_a_constant(self):
        (c,) = parse_constraints("S(X) -> T(X, berlin).").constraints
        assert c.head[0].args[1] == Constant("berlin")

    def test_comments_and_spans(self):
        text = "# prologue\n\na: S(X) -> T(X).  # trailing\nb: T(X) -> U(X)."
        assert [c.id for c in parse_constraints(text).constraints] == ["a", "b"]
        # a rule's errors point at its own line, past the comments
        with pytest.raises(ParseError) as info:
            parse_constraints(text.replace("U(X)", "U(X, X)") + "\nc: U(X) -> S(X).")
        assert (info.value.line, info.value.col) == (5, 1)

    def test_relation_named_true_survives(self):
        (c,) = parse_constraints("true(X) -> S(X).").constraints
        assert c.body[0].relation == "true"

    @pytest.mark.parametrize("text,fragment", [
        ("S(X) ->", "expected a relation name"),
        ("S(X) -> T(X)", "expected '.'"),
        ("S(X) T(X) -> U(X).", "expected '->'"),
        ("R(X) -> Y = Z.", "does not occur in the body"),
        ("R(X) -> x = y.", "equality must relate two variables"),
        ("S(X) -> S(X, Y).", "arity mismatch"),
        ("a: S(X) -> T(X). a: T(X) -> U(X).", "duplicate rule label"),
        ("S(?n) -> T(X).", "nulls cannot occur in rules"),
        ("S(X) & T(X) -> U(X).", "unexpected character"),
        # a name starts with a letter or "_", whatever str.isalnum() admits
        ("S(1a) -> T(X).", "unexpected character '1'"),
        ("S(\u00b2) -> T(X).", "unexpected character '\u00b2'"),
        ("S(X) -> T(?).", "'?' must be followed by a null name"),
        ("S(X) -> T(X) # no dot", "expected '.', found 'end of input'"),
        # the whole text is scanned before any rule is parsed
        ("S(X) T(X) -> U(X).\n&", "unexpected character '&'"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_constraints(text)

    def test_error_location(self):
        for text, where in [
            ("a: S(X) -> T(X).\nb: T(X) -> U(X,).", (2, 16)),
            ("S(1a) -> T(X).", (1, 3)),
            ("S(\u00b2) -> T(X).", (1, 3)),
            ("S(X) -> T(?).", (1, 11)),
            # end of input sits at the "#" of a comment that ends the text
            ("S(X) -> T(X) # no dot", (1, 14)),
            ("S(X) -> T(X)\n# no dot", (2, 1)),
            # every character but a newline is one column
            ("S(X) ->\r\tT(X,).", (1, 14)),
            ("S(X) T(X) -> U(X).\n  &", (2, 3)),
        ]:
            with pytest.raises(ParseError) as info:
                parse_constraints(text)
            assert (info.value.line, info.value.col) == where, text


class TestInstanceParsing:
    def test_nulls_and_constants(self):
        I = parse_instance("rail(c1,?x1,?y1). fly(?x1,?x2,?y2).")
        assert A("rail", C("c1"), N("x1"), N("x2")) not in I.facts
        dom = I.domain()
        assert C("c1") in dom
        assert sum(1 for v in dom if isinstance(v, LabeledNull)) == 4

    def test_ground_fact(self):
        I = parse_instance("S(a).")
        assert I.facts == frozenset({A("S", C("a"))})

    def test_as_query_reads_uppercase_as_nulls(self):
        I = parse_instance("rail(c1,X1,Y1). fly(X1,X2,Y2).", as_query=True)
        assert len(I.facts) == 2
        assert all(not isinstance(t, Variable)
                   for a in I.facts for t in a.args)

    def test_null_indices_follow_first_appearance(self):
        I = parse_instance("E(?b,?a). S(?b).")
        by_name = {v.name: v for v in I.domain()}
        assert by_name["b"].creation_index < by_name["a"].creation_index
        assert I.null_counter == 3

    def test_variable_rejected_without_query_mode(self):
        with pytest.raises(ParseError, match="variable X1 in an instance"):
            parse_instance("rail(c1,X1,Y1).")

    def test_arity_checked(self):
        with pytest.raises(ParseError, match="arity mismatch"):
            parse_instance("S(a). S(a,b).")

    def test_arity_mismatch_points_at_its_fact(self):
        text = "e(a, b).\nS(a).\ne(b, c). e(c,\n  d, f).\nS(b).\n"
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert (info.value.line, info.value.col) == (3, 10)
        assert str(info.value) == ("line 3, column 10: arity mismatch for e: "
                                   "saw 2, now 3 in e(c, d, f)")


class TestPrinting:
    def test_constraint_forms(self, seeded_feedback_sigma):
        a1, _, a3 = seeded_feedback_sigma
        assert print_constraint(a1) == "a1: S(X), E(X, Y) -> E(Y, X)."
        assert print_constraint(a3) == "a3: true -> S(X), E(X, Y)."
        e = parse_constraints("k: R(X,Y), R(X,Z) -> Y = Z.").constraints[0]
        assert print_constraint(e) == "k: R(X, Y), R(X, Z) -> Y = Z."

    def test_roundtrip_text_side(self):
        text = ("a1: fly(X1, X2, Y) -> hasAirport(X1), hasAirport(X2).\n"
                "a2: rail(X1, X2, Y) -> rail(X2, X1, Y).\n"
                "a3: fly(X1, X2, Y1) -> fly(X2, X3, Y2).\n")
        assert print_constraints(parse_constraints(text)) == text

    def test_roundtrip_document_side(self, travel_sigma, seeded_feedback_sigma):
        from chaseterm.syntax import ConstraintDocument
        for sigma in (travel_sigma, seeded_feedback_sigma):
            doc = ConstraintDocument(tuple(sigma))
            assert parse_constraints(print_constraints(doc)) == doc

    def test_instance_roundtrip(self, oneway_instance, roundtrip_instance):
        # the text form carries facts, not the null counter
        for I in (oneway_instance, roundtrip_instance):
            assert parse_instance(print_instance(I)).facts == I.facts

    def test_empty_instance_prints_empty(self):
        from chaseterm.model import instance
        assert print_instance(instance([])) == ""


RULE_TEXT = """# travel, with a key
a1: fly(X1, X2, Y) -> hasAirport(X1), hasAirport(X2).
rail(X1, X2, Y) -> rail(X2, X1, Y).  # unlabeled
k: rail(X, Y, Z), rail(X, Y, W) -> Z = W.
true -> S(c0), E(c0, _y).
"""
INSTANCE_TEXT = """rail(c1, ?x1, ?y1).\tfly(?x1, ?x2, ?y2).
# a query reads uppercase names as nulls
e(a, B_1). S(?b).\r\ne(?b, c2).
"""
# characters the grammar reads, letters and digits that str.isalnum()
# admits but that cannot start a name, and layout
MUTANTS = list("()?,.:=->#_ aXz1\n\r\t&") + ["\u00e9", "\u00b2", "\u0663"]


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(MUTANTS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(MUTANTS) + text[i + 1:]
        else:
            text = text[:i]
    return text


def outcome(parse, text):
    try:
        return "parsed", oracles.strict(parse(text))
    except Exception as exc:  # the message holds the line and column
        return type(exc).__name__, str(exc)


def test_parser_matches_the_character_loop_on_mutated_texts():
    rng = random.Random("syntax/mutants")
    entry_points = [
        (parse_constraints, oracles.ref_parse_constraints),
        (parse_instance, oracles.ref_parse_instance),
        (lambda t: parse_instance(t, as_query=True),
         lambda t: oracles.ref_parse_instance(t, as_query=True)),
    ]
    parsed = 0
    for n in range(1500):
        text = mutate(rng, (RULE_TEXT, INSTANCE_TEXT)[n % 2])
        for parse, ref in entry_points:
            got = outcome(parse, text)
            assert got == outcome(ref, text), text
            parsed += got[0] == "parsed"
    assert parsed > 300
