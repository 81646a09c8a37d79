"""Export formats: DOT text, JSON dicts, and the witness integrity gate."""

import json
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from chaseterm import firing
from chaseterm.chase import ChaseResult, ChaseStepRecord, chase, monitored_chase
from chaseterm.dynamic import (
    chase_graph, constraint_from_instance, data_dependent_guarantee,
)
from chaseterm.model import Instance, Position, egd, instance, tgd
from chaseterm.reports import (
    ReportIntegrityError, StepWriter, analysis_report, chase_report,
    export_dot, guarantee_report, monitor_report, to_json,
)
from chaseterm.static import PositionGraph, analyze, propagation_graph

from . import generators
from .conftest import A, C, N, V
from .oracles import ref_chase_report, ref_step_dict, ref_to_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestDot:
    def test_empty_graph(self):
        assert export_dot(PositionGraph((), (), ())) == "digraph g { }\n"

    def test_propagation_nodes_and_special_style(self, feedback_sigma):
        dot = export_dot(propagation_graph(feedback_sigma))
        assert '"E^1";' in dot and '"E^2";' in dot
        assert '[style=dashed]; /* special=true */' in dot

    def test_instance_rule_edge(self, travel_sigma, roundtrip_instance):
        g = chase_graph(list(travel_sigma) + [constraint_from_instance(roundtrip_instance)])
        dot = export_dot(g)
        assert '"alpha_I" -> "a1";' in dot

    def test_restriction_system_guards_shown(self, travel_sigma):
        from chaseterm.static import minimal_restriction_system
        dot = export_dot(minimal_restriction_system(travel_sigma))
        assert '"a1"; /* f = {fly^1, fly^2, fly^3} */' in dot

    def test_monitor_graph(self, travel_sigma, oneway_instance):
        g = monitored_chase(oneway_instance, travel_sigma, 3).monitor
        dot = export_dot(g)
        assert dot.startswith("digraph g {")
        assert "[label=" in dot

    def test_byte_stable(self, travel_sigma):
        a = export_dot(propagation_graph(travel_sigma))
        b = export_dot(propagation_graph(list(travel_sigma)))
        assert a == b

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            export_dot(object())


class TestAnalysisReport:
    def test_travel_bundle(self, travel_sigma):
        payload = analysis_report(analyze(travel_sigma))
        assert payload["terminating"] is False
        assert payload["parts"] == [["a3"]]
        assert payload["chase_graph"]["edges"] == [["a3", "a1"], ["a3", "a3"]]
        assert payload["restriction_system"]["f"]["a3"] == [
            "fly^1", "fly^2", "fly^3"]
        json.dumps(payload)  # must be serializable as-is

    def test_json_deterministic(self, seeded_feedback_sigma):
        a = to_json(analysis_report(analyze(seeded_feedback_sigma)))
        b = to_json(analysis_report(analyze(list(seeded_feedback_sigma))))
        assert a == b

    def test_positive_verdicts_carry_no_cycles(self, seeded_feedback_sigma):
        payload = analysis_report(analyze(seeded_feedback_sigma))
        assert payload["inductively_restricted"] is True
        assert payload["part_failures"] == []
        assert payload["restriction_failures"]

    def test_truncated_cycle_refused(self, travel_sigma):
        r = analyze(travel_sigma)
        bad = r._replace(dependency_cycle=r.dependency_cycle[:-1])
        with pytest.raises(ReportIntegrityError, match="closed"):
            analysis_report(bad)

    def test_cycle_over_absent_edges_refused(self, travel_sigma):
        r = analyze(travel_sigma)
        nowhere = Position("nope", 1)
        bad = r._replace(dependency_cycle=(nowhere, nowhere))
        with pytest.raises(ReportIntegrityError) as info:
            analysis_report(bad)
        assert str(info.value) == "cycle uses absent edges: (nope^1, nope^1)"

    def test_cycle_without_a_special_edge_refused(self, travel_sigma):
        # a2 swaps rail's first two arguments: a cycle of regular edges
        r = analyze(travel_sigma)
        rail1, rail2 = Position("rail", 1), Position("rail", 2)
        bad = r._replace(dependency_cycle=(rail1, rail2, rail1))
        with pytest.raises(ReportIntegrityError) as info:
            analysis_report(bad)
        assert str(info.value) == (
            "cycle has no special edge: (rail^1, rail^2, rail^1)")

    def test_mismatched_witness_refused(self, travel_sigma):
        r = analyze(travel_sigma)
        g = r.chase_graph
        swapped = {k: g.witnesses[("a3", "a3")] for k in g.witnesses}
        bad = r._replace(chase_graph=g._replace(witnesses=swapped))
        with pytest.raises(ReportIntegrityError, match="witness"):
            analysis_report(bad)

    def test_witness_missing_a_body_variable_refused(self):
        x, y, z = V("X"), V("Y"), V("Z")
        t1 = tgd("t1", [A("e", x, y)], [A("t", x, y)])
        t2 = tgd("t2", [A("t", x, y), A("e", y, z)], [A("t", x, z)])
        r = analyze([t1, t2])
        g = r.chase_graph
        w = g.witnesses[("t1", "t2")]
        short = {**g.witnesses,
                 ("t1", "t2"): w._replace(assignment_b=w.assignment_b[:-1])}
        bad = r._replace(chase_graph=g._replace(witnesses=short))
        with pytest.raises(ReportIntegrityError, match="witness"):
            analysis_report(bad)


class TestWitnessesOnDemand:
    @pytest.mark.parametrize("egd_rate", [0.25, 0.75])
    def test_report_does_not_depend_on_read_order(self, egd_rate):
        # each witness is built under the key its edge was found under, so
        # which graph is read first changes nothing. Some guarded edges
        # whose unguarded witness fails their guard are still marks when
        # analyze returns
        marked = 0
        for seed in range(40):
            rng = random.Random(f"on-demand/order/{egd_rate}/{seed}")
            sigma = generators.random_constraints(rng, max_atoms=3,
                                                  egd_rate=egd_rate)
            texts = []
            for first in ("restriction_system", "chase_graph", None):
                r = analyze(sigma)
                marked += sum(v is firing.EDGE for v in r.answers.values())
                if first is not None:
                    dict(getattr(r, first).witnesses)
                texts.append(to_json(analysis_report(r)))
            assert texts[0] == texts[1] == texts[2], sigma
        assert marked


class TestChaseReport:
    """chase_report writes, byte for byte, the dict tests/oracles keeps."""

    def test_terminated(self, travel_sigma, roundtrip_instance):
        res = chase(roundtrip_instance, travel_sigma)
        text = to_json(chase_report(res))
        assert text == ref_to_json(ref_chase_report(res))
        payload = json.loads(text)
        assert payload["outcome"] == "terminated"
        assert payload["steps"] == 1
        assert "hasAirport(?x1)" in payload["final"]
        assert payload["trace"][0]["constraint"] == "a1"
        # a fragment taken out of the report is written at depth 0
        assert to_json(chase_report(res)["trace"]) == ref_to_json(payload["trace"])

    def test_failed_carries_clash(self):
        from chaseterm.model import egd
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("Y"))
        res = chase(instance([A("R", C("a"), C("b"))]), [e])
        text = to_json(chase_report(res))
        assert text == ref_to_json(ref_chase_report(res))
        payload = json.loads(text)
        assert payload["outcome"] == "failed"
        assert payload["clash"] == ["a", "b"]
        assert payload["failed_step"] == 0

    def test_trace_optional(self, travel_sigma, roundtrip_instance):
        res = chase(roundtrip_instance, travel_sigma)
        payload = chase_report(res, include_trace=False)
        assert "trace" not in payload
        # nested, as monitor and termcheck print it
        assert to_json({"chase": payload}) == ref_to_json(
            {"chase": ref_chase_report(res, include_trace=False)})

    def test_empty_run(self):
        res = chase(instance([]), [])
        assert res.steps == () and not res.final.facts
        assert to_json(chase_report(res)) == ref_to_json(ref_chase_report(res))


class TestGuaranteeAndMonitorReports:
    def test_guarantee_payload(self, travel_sigma, roundtrip_instance):
        payload = guarantee_report(data_dependent_guarantee(roundtrip_instance,
                                                            analyze(travel_sigma)))
        assert payload["level"] == "ThisInstance"
        assert payload["relevant"] == ["a1"]
        assert payload["chase_graph"]["nodes"] == ["a1", "a2", "a3", "alpha_I"]

    def test_monitor_payload(self, travel_sigma, oneway_instance):
        g = monitored_chase(oneway_instance, travel_sigma, 3).monitor
        payload = monitor_report(g, 3)
        assert payload["k_cyclic"] is True
        assert len(payload["chain"]) == 3
        assert all(e["source"] for e in payload["chain"])
        json.dumps(payload)

    def test_position_str(self):
        # reports print a position as its repr
        assert repr(Position("fly", 2)) == str(Position("fly", 2)) == "fly^2"


def _leaves(x):
    """Every dict key and every non-container value of a JSON payload."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield k
            yield from _leaves(v)
    elif isinstance(x, list):
        for v in x:
            yield from _leaves(v)
    else:
        yield x


class TestNoTermInPayloads:
    """A term is a str underneath, so json would print its tagged form
    instead of refusing it: every string in a payload must be a plain str."""

    @pytest.fixture
    def merging_sigma(self):
        # transitive closure, an existential rule and an EGD that merges
        # the nulls it creates
        x, y, z, z1, z2 = V("X"), V("Y"), V("Z"), V("Z1"), V("Z2")
        return [tgd("t1", [A("e", x, y)], [A("t", x, y)]),
                tgd("t2", [A("t", x, y), A("e", y, z)], [A("t", x, z)]),
                tgd("m1", [A("e", x, y)], [A("m", x, z), A("m", y, z)]),
                egd("q1", [A("m", x, z1), A("m", x, z2)], z1, z2)]

    @staticmethod
    def assert_plain(payload):
        strings = [x for x in _leaves(payload) if isinstance(x, str)]
        assert strings
        leaked = [x for x in strings if type(x) is not str]
        assert not leaked, leaked

    def test_analysis_reports(self, travel_sigma, seeded_feedback_sigma,
                              merging_sigma):
        for sigma in (travel_sigma, seeded_feedback_sigma, merging_sigma):
            payload = analysis_report(analyze(sigma))
            assert payload["chase_graph"]["witnesses"]
            self.assert_plain(payload)

    def test_chase_reports(self, travel_sigma, roundtrip_instance, merging_sigma):
        path = instance([A("e", C("v0"), C("v1")), A("e", C("v1"), C("v2")),
                         A("e", C("v2"), N("u", 1))])
        res = chase(path, merging_sigma)
        assert any(rec.merged_pair for rec in res.steps)
        e = egd("e", [A("R", V("X"), V("Y"))], V("X"), V("Y"))
        # the report is written text; the dict it must match holds plain strs
        for r in (res, chase(roundtrip_instance, travel_sigma),
                  chase(instance([A("R", C("a"), C("b"))]), [e])):
            self.assert_plain(ref_chase_report(r))
            assert to_json(chase_report(r)) == ref_to_json(ref_chase_report(r))

    def test_guarantee_reports(self, travel_sigma, roundtrip_instance,
                               oneway_instance):
        r = analyze(travel_sigma)
        for I in (roundtrip_instance, oneway_instance):
            self.assert_plain(guarantee_report(data_dependent_guarantee(I, r)))

    def test_monitor_report(self, travel_sigma, oneway_instance):
        g = monitored_chase(oneway_instance, travel_sigma, 3).monitor
        payload = monitor_report(g, 3)
        assert payload["chain"]
        self.assert_plain(payload)


# Every string the writer must escape: quotes, backslashes, control
# characters, DEL, non-ASCII text, astral characters and lone surrogates.
_text = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\xe9\u2028\U0001f600\ud800'),
    st.characters(exclude_categories=())), max_size=8)
_leaf = st.one_of(st.none(), st.booleans(), _text,
                  st.integers(-2 ** 70, 2 ** 70), st.sampled_from([0, 1, -1, 10 ** 40]))
_payload = st.recursive(
    _leaf,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_text, kids, max_size=4)),
    max_leaves=25)


class TestToJson:
    """to_json writes what json.dumps(indent=2, sort_keys=True) writes."""

    @pytest.mark.parametrize("name", sorted(n for n in os.listdir(GOLDEN)
                                            if n.endswith(".json")))
    def test_every_golden_payload(self, name):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        payload = json.loads(text)
        assert to_json(payload) == ref_to_json(payload) == text

    def test_report_payloads(self, travel_sigma, seeded_feedback_sigma,
                             oneway_instance, roundtrip_instance):
        r = analyze(travel_sigma)
        res = monitored_chase(oneway_instance, travel_sigma, 3)
        payloads = [analysis_report(r), analysis_report(analyze(seeded_feedback_sigma)),
                    monitor_report(res.monitor, 3),
                    guarantee_report(data_dependent_guarantee(roundtrip_instance, r))]
        for payload in payloads:
            assert to_json(payload) == ref_to_json(payload)
        assert to_json(chase_report(res)) == ref_to_json(ref_chase_report(res))

    @settings(max_examples=300, deadline=None)
    @given(_payload)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": ()})
    @example([True, 1, False, 0, None])
    @example({"b": True, "a": 1, "": -0})
    @example({"\u00e9": "\"\\\n\x01", "z": [[{}]]})
    @example(2 ** 64)
    def test_agrees_with_the_standard_library(self, payload):
        assert to_json(payload) == ref_to_json(payload)

    @pytest.mark.parametrize("payload", [
        1.5, {"a": 0.0}, [float("nan")], {1: "a"}, {"a": [{None: 1}]},
        {("a",): 1}, {"a": {1, 2}}, [object()], {"a": b"x"},
    ], ids=["float", "float value", "nan", "int key", "None key", "tuple key",
            "set", "object", "bytes"])
    def test_other_types_raise(self, payload):
        with pytest.raises(TypeError):
            to_json(payload)


# Names for the step writer: JSON escapes, the writer's own % and braces,
# and a small pool so that records share constraint ids and variable names.
_word = st.one_of(st.sampled_from(["X", "Y", "c1", "%s", "%%", "{0}", 'q"1']),
                  st.text(st.one_of(st.sampled_from('"\\%{}\x00\x1f\x7f\xe9\u2028'
                                                    '\U0001f600\ud800'),
                                    st.characters(exclude_categories=())),
                          max_size=5))
_value = st.one_of(st.builds(C, _word), st.builds(N, _word, st.integers(0, 3)))
_fact = st.builds(lambda rel, args: A(rel, *args), _word,
                  st.lists(_value, max_size=3))
_record = st.builds(
    ChaseStepRecord, index=st.integers(0, 10 ** 6), constraint_id=_word,
    assignment=st.lists(st.tuples(_word, _value), max_size=4,
                        unique_by=lambda pair: pair[0]).map(tuple),
    added_facts=st.frozensets(_fact, max_size=4),
    merged_pair=st.one_of(st.none(), st.tuples(_value, _value)),
    fresh_nulls=st.just(()))


class TestStepWriter:
    """A step's text is json.dumps of its dict, indented where it sits."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_record, max_size=4),
           st.sampled_from(["\n", "\n  ", "\n      "]))
    @example([ChaseStepRecord(0, "t", (), frozenset({A("R", C("a"))}), None, ()),
              ChaseStepRecord(1, "e", (("Z2", N("n2", 2)), ("Z1", N("n1", 1))),
                              frozenset(), (N("n1", 1), N("n2", 2)), ())], "\n  ")
    @example([ChaseStepRecord(3, "t", (("Y", C("b")), ("X", C("a"))),
                              frozenset({A("S", C("b")), A("R", C("a"))}), None, ()),
              ChaseStepRecord(4, "t", (("X", C("a")), ("Y", C("b"))),
                              frozenset(), None, ())], "\n")
    def test_agrees_with_the_standard_library(self, records, nl):
        # one writer for all: records share its templates and its texts
        w = StepWriter()
        for rec in records:
            want = json.dumps(ref_step_dict(rec), indent=2, sort_keys=True)
            assert w.step(rec, nl) == want.replace("\n", nl)

    @settings(max_examples=200, deadline=None)
    @given(st.frozensets(_fact, max_size=8), st.sampled_from(["\n", "\n  "]))
    @example(frozenset({A("R", N("a", 2), C("b")), A("R", N("a", 1), C("c")),
                        A("R", C("a"), N("b", 1)), A("S", N("a", 1))}), "\n")
    def test_facts_in_fact_key_order(self, facts, nl):
        # the reference sorts by the nested key fact_key was; equal nulls
        # with two creation indices have two orders
        want = json.dumps(ref_chase_report(ChaseResult(
            "terminated", Instance(facts), ()))["final"], indent=2)
        assert StepWriter().facts(facts, nl) == want.replace("\n", nl)
