"""Parser and printer behavior, including the golden surface forms."""

import pytest

from chaseterm.model import Constant, EGD, LabeledNull, TGD, Variable
from chaseterm.syntax import (
    ParseError, parse_constraints, parse_instance, print_constraint,
    print_constraints, print_instance,
)

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
        doc = parse_constraints("# prologue\n\na: S(X) -> T(X).  # trailing\nb: T(X) -> U(X).")
        assert doc.spans == ((3, 1), (4, 1))

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
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_constraints(text)

    def test_error_location(self):
        try:
            parse_constraints("a: S(X) -> T(X).\nb: T(X) -> U(X,).")
        except ParseError as e:
            assert (e.line, e.col) == (2, 16)
        else:
            pytest.fail("expected a parse error")


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
