"""End-to-end command behavior: outputs, files, and exit codes."""

import argparse
import functools
import importlib.util
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chaseterm.cli import _COMMANDS, _ArgumentParser, _read_command_line, main
from chaseterm.syntax import parse_constraints, parse_instance

from .conftest import count_searches

TRAVEL_RULES = """\
a1: fly(X1,X2,Y) -> hasAirport(X1), hasAirport(X2).
a2: rail(X1,X2,Y) -> rail(X2,X1,Y).
a3: fly(X1,X2,Y1) -> fly(X2,X3,Y2).
"""
SEEDED_RULES = """\
a1: S(X), E(X,Y) -> E(Y,X).
a2: S(X), E(X,Y) -> E(Y,Z), E(Z,X).
a3: true -> S(X), E(X,Y).
"""
# transitive closure, an existential rule and an EGD that merges its nulls
TC_RULES = """\
t1: e(X, Y) -> t(X, Y).
t2: t(X, Y), e(Y, Z) -> t(X, Z).
m1: e(X, Y) -> m(X, Z), m(Y, Z).
q1: m(X, Z1), m(X, Z2) -> Z1 = Z2.
"""
TC_PATH = "e(v3, v4). e(v0, v1). e(v5, v6). e(v2, v3). e(v1, v2). e(v4, v5).\n"
ONEWAY_QUERY = "rail(c1,X1,Y1). fly(X1,X2,Y2).\n"
# a one-rule generator: every step starts a new flight from the last one
FLY_RULES = "g: fly(X1, X2, Y1) -> fly(X2, X3, Y2).\n"
FLY_FACT = "fly(c1, c2, c3).\n"
ROUNDTRIP_QUERY = "rail(c1,X1,Y1). fly(X1,X2,Y2). fly(X2,X1,Y2). rail(X1,c1,Y1).\n"
# the travel rules plus an EGD that merges the two airport nulls of ?x1
TRAVEL_EGD_RULES = TRAVEL_RULES + "e1: hasAirport(X), airportOf(X,Y), airportOf(X,Z) -> Y = Z.\n"
AIRPORTS_INST = "rail(c1,?x1,?y1). fly(?x1,?x2,?y2). airportOf(?x1,?p1). airportOf(?x1,?p2).\n"
# words the parser reads but JSON escapes; ré2 merges the nulls ré1 makes
ESCAPED_RULES = """\
ré1: café(X, Y) -> crème(X, Zé), crème(Y, Zé).
ré2: crème(X, Zé1), crème(X, Zé2) -> Zé1 = Zé2.
東京: café(X, 𝒴) -> 駅(𝒴, W).
"""
ESCAPED_INST = "café(ünï, ?nül). café(ünï, ßtr). café(𝓪, ?nül).\n"

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("travel.rules", TRAVEL_RULES), ("seeded.rules", SEEDED_RULES),
                       ("oneway.inst", ONEWAY_QUERY), ("roundtrip.inst", ROUNDTRIP_QUERY),
                       ("tc.rules", TC_RULES), ("tc.inst", TC_PATH),
                       ("fly.rules", FLY_RULES), ("fly.inst", FLY_FACT),
                       ("travel_egd.rules", TRAVEL_EGD_RULES),
                       ("airports.inst", AIRPORTS_INST)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestAnalyze:
    def test_full_ladder_text(self, files, capsys):
        assert main(["analyze", files["travel.rules"]]) == 0
        out = capsys.readouterr().out
        assert "inductively restricted: no" in out
        assert "terminating on all instances: no" in out

    def test_single_check(self, files, capsys):
        assert main(["analyze", files["seeded.rules"], "--check", "ir"]) == 0
        assert capsys.readouterr().out.strip() == "ir: yes"

    def test_single_check_json(self, files, capsys):
        assert main(["analyze", files["seeded.rules"], "--check", "sr",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"] == "sr"
        assert payload["verdict"] is False
        assert "restriction_system" in payload
        assert "dependency_graph" not in payload

    def test_json_stable(self, files, capsys):
        main(["analyze", files["travel.rules"], "--json"])
        a = capsys.readouterr().out
        main(["analyze", files["travel.rules"], "--json"])
        assert capsys.readouterr().out == a

    @pytest.mark.parametrize("rules,verdicts", [
        ("seeded.rules", "no no no no yes yes"),
        ("travel.rules", "no no no no no no"),
        ("tc.rules", "yes yes yes yes yes yes"),
    ])
    def test_full_ladder_text_exact(self, files, capsys, rules, verdicts):
        assert main(["analyze", files[rules]]) == 0
        labels = ("weakly acyclic", "safe", "stratified", "safely restricted",
                  "inductively restricted", "terminating on all instances")
        want = "".join(f"{label}: {v}\n"
                       for label, v in zip(labels, verdicts.split()))
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("key", ["wa", "safe", "strat", "sr", "ir"])
    def test_single_check_exact(self, files, capsys, key):
        assert main(["analyze", files["seeded.rules"], "--check", key]) == 0
        verdict = "yes" if key == "ir" else "no"
        assert capsys.readouterr().out == f"{key}: {verdict}\n"
        assert main(["analyze", files["tc.rules"], "--check", key]) == 0
        assert capsys.readouterr().out == f"{key}: yes\n"
        assert main(["analyze", files["seeded.rules"], "--check", key,
                     "--json"]) == 0
        assert capsys.readouterr().out == golden(f"analyze_seeded_{key}.json")

    def test_dot_directory(self, files, capsys, tmp_path):
        out = tmp_path / "dots"
        assert main(["analyze", files["travel.rules"], "--dot", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["chase_graph.dot", "dependency.dot",
                         "propagation.dot", "restriction_system.dot"]
        assert (out / "dependency.dot").read_text().startswith("digraph g {")

    def test_json_and_dot(self, files, capsys, tmp_path):
        out = tmp_path / "dots"
        notices = [f"wrote {out / name}.dot" for name in (
            "dependency", "propagation", "chase_graph", "restriction_system")]
        assert main(["analyze", files["travel.rules"], "--json", "--dot",
                     str(out)]) == 0
        text, err = capsys.readouterr()
        assert json.loads(text)["inductively_restricted"] is False
        assert err.splitlines() == notices
        # without --json the notices stay on stdout
        assert main(["analyze", files["travel.rules"], "--dot", str(out)]) == 0
        text, err = capsys.readouterr()
        assert text.splitlines()[:4] == notices and err == ""


class TestChase:
    def test_terminates(self, files, capsys):
        assert main(["chase", files["travel.rules"], files["roundtrip.inst"],
                     "--as-query"]) == 0
        out = capsys.readouterr().out
        assert "terminated after 1 steps" in out
        assert "hasAirport(?X1)." in out

    def test_step_limit_aborts(self, files, capsys):
        assert main(["chase", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "--max-steps", "50"]) == 3
        assert "step_limit" in capsys.readouterr().out

    def test_clash_fails(self, files, tmp_path, capsys):
        rules = tmp_path / "key.rules"
        rules.write_text("e: R(X,Y) -> X = Y.\n")
        inst = tmp_path / "key.inst"
        inst.write_text("R(a,b).\n")
        assert main(["chase", str(rules), str(inst)]) == 2
        assert "a = b" in capsys.readouterr().out

    def test_random_order_seeded(self, files, capsys):
        args = ["chase", files["travel.rules"], files["roundtrip.inst"], "--as-query",
                "--order", "rand", "--seed", "9", "--json"]
        assert main(args) == 0
        a = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == a

    def test_json_trace_exact(self, tmp_path, capsys):
        # the chase-tc workload at seed 1 and 10 edges, plus names that JSON
        # must escape (non-ASCII, astral) and an EGD that merges nulls
        files, _ = perfbench_workloads().gen_chase_tc(
            random.Random("chase-tc/1"), {"tc_edges": 10})
        rules, inst = tmp_path / "r.rules", tmp_path / "r.inst"
        rules.write_text(files["tc.rules"] + ESCAPED_RULES, encoding="utf-8")
        inst.write_text(files["tc.inst"] + ESCAPED_INST, encoding="utf-8")
        assert main(["chase", str(rules), str(inst), "--json"]) == 0
        assert capsys.readouterr().out == golden("chase_trace.json")


class TestMonitor:
    def test_aborts_k3(self, files, capsys):
        assert main(["monitor", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3"]) == 3
        out = capsys.readouterr().out
        assert "k_cyclic (k=3)" in out
        assert "3-cyclic: yes" in out

    def test_json_and_dot(self, files, capsys, tmp_path):
        out = tmp_path / "m"
        assert main(["monitor", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3", "--json", "--dot",
                     str(out)]) == 3
        text, err = capsys.readouterr()
        payload = json.loads(text)
        assert payload["chase"]["outcome"] == "aborted"
        assert payload["monitor"]["k_cyclic"] is True
        assert (out / "monitor.dot").exists()
        assert err == f"wrote {out / 'monitor.dot'}\n"

    def test_json_exact(self, files, capsys):
        assert main(["monitor", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3", "--json"]) == 3
        assert capsys.readouterr().out == golden("monitor_travel_k3.json")

    def test_dot_exact(self, files, capsys, tmp_path):
        out = tmp_path / "m"
        assert main(["monitor", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3", "--dot", str(out)]) == 3
        assert (out / "monitor.dot").read_text() == golden("monitor_travel_k3.dot")

    def test_generator_json_exact(self, files, capsys):
        assert main(["monitor", files["fly.rules"], files["fly.inst"],
                     "-k", "5", "--json"]) == 3
        assert capsys.readouterr().out == golden("monitor_fly_k5.json")


class TestIrrelevantAndTermcheck:
    def test_irrelevant_split(self, files, capsys):
        assert main(["irrelevant", files["travel.rules"], files["roundtrip.inst"],
                     "--as-query"]) == 0
        out = capsys.readouterr().out
        assert "irrelevant: a2, a3" in out
        assert "relevant:   a1" in out

    def test_termcheck_static_pass(self, files, capsys):
        assert main(["termcheck", files["seeded.rules"], files["oneway.inst"],
                     "--as-query"]) == 0
        out = capsys.readouterr().out
        assert "AllInstances" in out
        assert "inductive restriction" in out

    def test_termcheck_pruning_pass(self, files, capsys):
        assert main(["termcheck", files["travel.rules"], files["roundtrip.inst"],
                     "--as-query"]) == 0
        out = capsys.readouterr().out
        assert "ThisInstance" in out
        assert "relevant:   a1" in out

    def test_termcheck_monitored_fallback(self, files, capsys):
        assert main(["termcheck", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3"]) == 3
        out = capsys.readouterr().out
        assert "guarantee: None" in out
        assert "k_cyclic" in out

    @pytest.mark.parametrize("rules", ["seeded", "tc"])
    def test_termcheck_static_pass_json_exact(self, files, capsys, rules):
        assert main(["termcheck", files[f"{rules}.rules"], files["oneway.inst"],
                     "--as-query", "--json"]) == 0
        assert capsys.readouterr().out == golden(f"termcheck_{rules}.json")

    @pytest.mark.parametrize("inst, code", [("roundtrip.inst", 0),
                                            ("oneway.inst", 3)])
    def test_termcheck_refines_the_whole_set_once(self, files, capsys,
                                                  monkeypatch, inst, code):
        # analyze refines the whole set from the restriction system it
        # built; the guarantee reads those parts and refines only a proper
        # relevant subset (a1 for the round trip, none for the one-way trip)
        from chaseterm import dynamic, static
        refined = []

        def recording(fn, constraints):
            def counted(arg, *args):
                refined.append(tuple(c.id for c in constraints(arg)))
                return fn(arg, *args)
            return counted

        for module in (static, dynamic):
            monkeypatch.setattr(module, "part",
                                recording(static.part, lambda sigma: sigma))
        monkeypatch.setattr(static, "_refine", recording(
            static._refine, lambda system: system.constraints))
        assert main(["termcheck", files["travel.rules"], files[inst],
                     "--as-query", "-k", "3"]) == code
        assert refined.count(("a1", "a2", "a3")) == 1

    def test_termcheck_enumerates_no_instance_pair(self, files, capsys,
                                                   monkeypatch):
        # level None prints no firing witness, so every pair, alpha_I's
        # included, is decided by its existence check, and none is
        # enumerated
        from chaseterm.dynamic import ALPHA_I
        checked = count_searches(monkeypatch, ("_exists",))
        enumerated = count_searches(monkeypatch, ("_enumerate",))
        assert main(["termcheck", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3"]) == 3
        assert "guarantee: None" in capsys.readouterr().out
        assert [q for q in checked if q[0].id == ALPHA_I]
        assert enumerated == []

    def test_irrelevant_json_exact(self, files, capsys):
        assert main(["irrelevant", files["travel.rules"], files["roundtrip.inst"],
                     "--as-query", "--json"]) == 0
        assert capsys.readouterr().out == golden("irrelevant_travel_roundtrip.json")

    def test_termcheck_level_none_json_exact(self, files, capsys):
        assert main(["termcheck", files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", "3", "--json"]) == 3
        assert capsys.readouterr().out == golden("termcheck_travel_none.json")

    @pytest.mark.parametrize("command", ["termcheck", "irrelevant"])
    def test_a_rule_labelled_alpha_I_is_refused(self, tmp_path, capsys, command):
        # alpha_I is the id of the rule that asserts the instance; a rule of
        # that name would be one node with it in the chase graph
        rules, inst = tmp_path / "a.rules", tmp_path / "a.inst"
        inst.write_text("fly(a, b, c).\n")
        rules.write_text("alpha_I: fly(X1, X2, Y1) -> fly(X2, X3, Y2).\n")
        assert main([command, str(rules), str(inst)]) == 4
        assert capsys.readouterr().err == (
            "error: two constraints share the id 'alpha_I'\n")
        assert main(["analyze", str(rules)]) == 0
        capsys.readouterr()
        if command == "termcheck":  # relabelled, it runs the monitor
            rules.write_text("g: fly(X1, X2, Y1) -> fly(X2, X3, Y2).\n")
            assert main([command, str(rules), str(inst)]) == 3
            assert "k_cyclic" in capsys.readouterr().out

    def test_termcheck_json_levels(self, files, capsys):
        main(["termcheck", files["travel.rules"], files["roundtrip.inst"],
              "--as-query", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["level"] == "ThisInstance"
        assert payload["relevant"] == ["a1"]


class TestFixture:
    def test_rotation_files_reparse(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["fixture", "appendix-g", "-k", "3", "--out",
                     str(out)]) == 0
        rules = (out / "rotation_3.rules").read_text()
        inst = (out / "rotation_3.inst").read_text()
        (phi,) = parse_constraints(rules).constraints
        I = parse_instance(inst)
        assert phi.id == "phi"
        assert len(I.facts) == 4

    def test_unknown_family(self, tmp_path, capsys):
        assert main(["fixture", "nope", "-k", "2", "--out",
                     str(tmp_path)]) == 4


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/path.rules"]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_flag(self, files, capsys):
        assert main(["analyze", files["travel.rules"], "--frobnicate"]) == 4

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 4

    def test_parse_error_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("S(X) ->\n")
        assert main(["analyze", str(bad)]) == 4
        assert "line 2, column 1" in capsys.readouterr().err

    def test_query_vars_need_flag(self, files, capsys):
        assert main(["chase", files["travel.rules"], files["oneway.inst"]]) == 4
        assert "as a query" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["monitor", "termcheck"])
    @pytest.mark.parametrize("k", ["0", "-2", "x"])
    def test_monitor_depth_below_one(self, files, capsys, command, k):
        # travel on the one-way trip passes no rung, so termcheck would
        # reach the monitored chase
        assert main([command, files["travel.rules"], files["oneway.inst"],
                     "--as-query", "-k", k]) == 4
        assert "argument -k" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["-5", "-1", "x"])
    def test_step_limit_below_zero(self, files, capsys, steps):
        assert main(["chase", files["tc.rules"], files["tc.inst"],
                     "--max-steps", steps]) == 4
        assert "argument --max-steps" in capsys.readouterr().err

    def test_step_limit_zero_aborts_before_the_first_step(self, files, capsys):
        assert main(["chase", files["tc.rules"], files["tc.inst"],
                     "--max-steps", "0"]) == 3

    def test_cross_file_arity_clash(self, tmp_path, capsys):
        rules = tmp_path / "a.rules"
        rules.write_text("a: S(X) -> T(X).\n")
        inst = tmp_path / "a.inst"
        inst.write_text("T(c1,c2).\n")
        assert main(["chase", str(rules), str(inst)]) == 4
        assert "arity mismatch" in capsys.readouterr().err

    def test_arity_clash_names_the_first_atom_in_repr_order(self, tmp_path,
                                                            capsys):
        rules = tmp_path / "a.rules"
        rules.write_text("a: S(X) -> T(X).\n")
        inst = tmp_path / "a.inst"
        inst.write_text("T(c2,c1). T(c1,c3). T(c1,c2).\n")
        assert main(["chase", str(rules), str(inst)]) == 4
        assert capsys.readouterr().err == (
            "error: arity mismatch for T: saw 1, now 2 in T(c1, c2)\n")


@functools.lru_cache(maxsize=None)
def command_parser(name):
    """The named command's argparse parser alone, built once for the
    session from its _COMMANDS entry: the reference that the table's
    reader must agree with."""
    _, func, declared = _COMMANDS[name]
    p = _ArgumentParser(prog=f"chaseterm {name}")
    for flags, kwargs in declared:
        p.add_argument(*flags, **kwargs)
    p.set_defaults(func=func, command=name)
    return p


# values that argparse reads as options, rejects, or reads as an odd
# positional or value
ODD = ["-x", "-h", "--json", "-", "-1", "", "nope", "1.5", "0", " 7", "1_0"]


@functools.lru_cache(maxsize=None)
def command_lines(name):
    """Command lines for the named command: a well-formed one (its
    positionals, its required options, and each other option one time in
    two, in any order, each valued option with a value its declaration
    takes), and, three times in four, one defect in it: an option's value
    from ODD, a positional or an option left out, an option given twice,
    or one more token, a stray value, an abbreviation, a --opt=value form,
    -h, --help, -- or -k5."""
    declared = _COMMANDS[name][2]
    good = {}  # flag -> values it takes, or None for a store_true flag
    positionals, required = [], []
    for flags, kwargs in declared:
        taken = kwargs.get("choices") or (
            ["3", "10"] if "type" in kwargs else ["tc.rules", "appendix-g"])
        if not flags[0].startswith("-"):
            positionals.append(taken)
            continue
        if kwargs.get("required"):
            required.append(flags[0])
        for f in flags:
            good[f] = None if kwargs.get("action") == "store_true" else taken
    extra = st.sampled_from(
        ODD + ["--help", "--", "-k5"]
        + [f[:i] for f in good if f.startswith("--") for i in range(3, len(f))]
        + [f"{f}={v}" for f in good for v in ("det", "3", "")])

    @st.composite
    def line(draw):
        def option(f):
            return [f] if good[f] is None else [f, draw(st.sampled_from(good[f]))]

        chunks = [[draw(st.sampled_from(taken))] for taken in positionals]
        chunks += [option(f) for f in good if f in required or draw(st.booleans())]
        defect = draw(st.sampled_from(["none", "value", "drop", "extra"]))
        valued = [c for c in chunks if len(c) == 2]  # options with a value
        if defect == "value" and valued:
            draw(st.sampled_from(valued))[-1] = draw(st.sampled_from(ODD))
        elif defect == "drop" and chunks:
            chunks.remove(draw(st.sampled_from(chunks)))
        elif defect == "extra":  # a stray token, or an option given twice
            chunks.append(draw(st.one_of(extra.map(lambda t: [t]),
                                         st.sampled_from(list(good)).map(option))))
        return [name] + [t for c in draw(st.permutations(chunks)) for t in c]

    return line()


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of every ArgumentParser built while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@functools.lru_cache(maxsize=None)
def perfbench_workloads():
    """The benchmark's workloads module, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParsers:
    """Two routes: a well-formed command line is read from the command
    table with no argparse parser, and any other is parsed by the
    top-level parser, with its six subparsers. The first reads each line
    as that parser does."""

    with open(os.path.join(GOLDEN, "cli_surface.json"), encoding="utf-8") as fh:
        SURFACE = json.load(fh)

    # argparse words and wraps its messages differently from one Python
    # version to the next; the golden texts were recorded on 3.11
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="help and error texts recorded on Python 3.11")
    @pytest.mark.parametrize("case", SURFACE, ids=lambda c: " ".join(c["argv"]) or "(none)")
    def test_usage_help_and_errors_are_unchanged(self, files, capsys,
                                                 monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [files.get(a, a) for a in case["argv"]]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])

    def test_parsers_are_built_only_for_help_and_errors(self, files, capsys,
                                                        built_parsers):
        assert main(["chase", files["tc.rules"], files["tc.inst"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "terminated"
        assert built_parsers == []
        every = ["chaseterm"] + [f"chaseterm {name}" for name in _COMMANDS]
        # a malformed line, like --help, builds every parser
        assert main(["chase", files["tc.rules"]]) == 4
        assert capsys.readouterr().err == (
            "error: the following arguments are required: instance\n")
        assert built_parsers == every
        built_parsers.clear()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built_parsers == every

    @pytest.mark.parametrize("mode", ["full", "smoke"])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("workload", ["chase-tc", "termcheck-travel"])
    def test_benchmark_lines_build_no_parser(self, tmp_path, monkeypatch,
                                             capsys, built_parsers,
                                             workload, seed, mode):
        files, spec = perfbench_workloads().generate(workload, seed, mode)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        for op in spec["ops"]:
            assert _read_command_line(op["argv"]) is not None
            assert main(op["argv"]) == op["exit"]
            json.loads(capsys.readouterr().out)
        assert built_parsers == []

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_every_declared_argument_is_read(self, name):
        declared = _COMMANDS[name][2]
        argv = [name]
        for flags, kwargs in declared:
            if not flags[0].startswith("-"):
                argv.append("appendix-g")
            elif kwargs.get("action") == "store_true":
                argv.append(flags[0])
            else:
                argv += [flags[0], kwargs.get("choices", ["3"])[-1]]
        read = _read_command_line(argv)
        assert read is not None
        assert read == command_parser(name).parse_args(argv[1:])

    @pytest.mark.parametrize("name", list(_COMMANDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_the_table_reads_what_argparse_reads(self, name, data):
        argv = data.draw(command_lines(name), label="argv")
        read = _read_command_line(argv)
        if read is not None:
            assert read == command_parser(name).parse_args(argv[1:])


class TestHashSeed:
    """The JSON of a chase, an analysis or a termination check must not
    depend on string hashing, which Python salts per process unless
    PYTHONHASHSEED fixes it."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def run(self, argv, hash_seed):
        path = [self.SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run([sys.executable, "-m", "chaseterm.cli"] + argv,
                              capture_output=True, env=env, timeout=120)

    @pytest.mark.parametrize("order", [[], ["--order", "rand", "--seed", "3"]])
    @pytest.mark.parametrize("rules,inst,flags", [
        ("travel.rules", "oneway.inst", ["--as-query", "--max-steps", "60"]),
        ("tc.rules", "tc.inst", []),
    ])
    def test_chase_json_is_byte_identical(self, files, rules, inst, flags, order):
        argv = ["chase", files[rules], files[inst], "--json"] + flags + order
        first, second = (self.run(argv, seed) for seed in ("0", "1"))
        assert first.returncode in (0, 3), first.stderr
        assert first.stdout
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout)

    # a term hashes as its str does, salted by the seed alone, so set order
    # over terms changes with the seed: the firing search and the monitor
    # must not follow it
    @pytest.mark.parametrize("argv", [
        ["analyze", "tc.rules", "--json"],
        ["analyze", "travel_egd.rules", "--json"],
        ["termcheck", "travel_egd.rules", "airports.inst", "--json", "-k", "3"],
        ["termcheck", "tc.rules", "tc.inst", "--json", "-k", "3"],
    ])
    def test_analysis_and_termcheck_json_are_byte_identical(self, files, argv):
        argv = [files.get(a, a) for a in argv]
        first, second = (self.run(argv, seed) for seed in ("0", "1"))
        assert first.returncode in (0, 3), first.stderr
        assert first.stdout
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout)


class TestImportCost:
    """Set-up, mostly imports, is the largest end-to-end cost of a short
    CLI run, so importing the CLI must not load a module it did not load
    before."""

    # what `import chaseterm.cli` added to sys.modules on Python 3.11
    KNOWN = frozenset("""
        __future__ _heapq _json argparse chaseterm chaseterm.chase
        chaseterm.cli chaseterm.dynamic chaseterm.firing chaseterm.fixtures
        chaseterm.graphs chaseterm.model chaseterm.monitor chaseterm.reports
        chaseterm.static chaseterm.syntax gettext heapq json json.decoder
        json.encoder json.scanner
    """.split())
    # dataclasses, and the modules its import pulls in: importing it and
    # generating the record classes' methods took about 30 ms of set-up
    HEAVY = frozenset({"dataclasses", "inspect", "ast", "dis"})

    def test_cli_loads_no_new_module(self):
        code = ("import sys; before = set(sys.modules); import chaseterm.cli; "
                "print(*sorted(set(sys.modules) - before))")
        path = [TestHashSeed.SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        loaded = set(run.stdout.split())
        assert loaded & self.HEAVY == set()
        assert loaded - self.KNOWN == set()
