"""Command-line surface.

Subcommands: analyze, chase, monitor, irrelevant, termcheck, fixture.
Exit codes: 0 success, 2 chase failed on an EGD clash, 3 chase aborted
(step limit or cycle monitor), 4 unusable input.

_COMMANDS declares each command's help, handler and arguments once, as
the (flags, kwargs) pairs that add_argument takes. A well-formed command
line (the command's name, then exact option strings with their values,
and positionals) is read straight from that table: building even one
argparse parser took a quarter to a third of a short chase, most of it in
gettext's first translation of a section title, which imports locale.
argparse is built only for help and errors, so it alone writes usage,
help and error text: any other line (--help, a malformed command, no
command, an unknown one) gets the top-level parser, with every subparser
built from the same table.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, Tuple

from chaseterm.chase import (
    ABORTED, FAILED, ChasePolicy, ChaseResult, chase, monitored_chase,
)
from chaseterm.dynamic import (
    THIS_INSTANCE, data_dependent_guarantee, irrelevant_constraints,
)
from chaseterm.fixtures import rotation_family
from chaseterm.model import Constraint, Instance, ModelError, check_arities
from chaseterm.reports import (
    analysis_report, chase_report, export_dot, guarantee_report,
    monitor_report, to_json,
)
from chaseterm.static import RUNGS, analyze
from chaseterm.syntax import (
    ConstraintDocument, parse_constraints, parse_instance, print_constraints,
    print_instance,
)

EXIT_OK = 0
EXIT_FAILED = 2
EXIT_ABORTED = 3
EXIT_INPUT = 4

_RUNG_BY_KEY = {r.key: r for r in RUNGS}


class CliError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route everything to exit code 4 instead
    def error(self, message):
        raise CliError(message)


def _at_least(low: int):
    """An argparse type: an int that must be at least low."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load(args) -> Tuple[Tuple[Constraint, ...], Optional[Instance]]:
    doc = parse_constraints(_read(args.constraints))
    I = None
    if getattr(args, "instance", None) is not None:
        I = parse_instance(_read(args.instance), getattr(args, "as_query", False))
        # instance and rules must agree on arities; on a clash, check again
        # in repr order, so that the error names the same atom every run
        arities = check_arities(f for c in doc.constraints
                                for f in c.body + c.head)
        try:
            check_arities(I.facts, arities)
        except ModelError:
            check_arities(sorted(I.facts, key=repr), arities)
    return doc.constraints, I


def _write_dot(directory: str, name: str, graph, stdout_is_json: bool) -> None:
    """Write graph to directory/name.dot and say so: on stderr with --json,
    so that stdout stays one JSON document."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".dot")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_dot(graph))
    print(f"wrote {path}", file=sys.stderr if stdout_is_json else sys.stdout)


def _chase_exit(res: ChaseResult) -> int:
    if res.outcome == FAILED:
        return EXIT_FAILED
    if res.outcome == ABORTED:
        return EXIT_ABORTED
    return EXIT_OK


def _print_chase_text(res: ChaseResult) -> None:
    print(f"outcome: {res.outcome} after {len(res.steps)} steps")
    if res.outcome == FAILED:
        a, b = res.clash
        print(f"constants clashed: {a.name} = {b.name} at step {res.failed_step}")
    elif res.outcome == ABORTED:
        detail = f"k={res.abort_k}" if res.abort_k is not None else "step limit"
        print(f"aborted: {res.abort_reason} ({detail})")
    print(f"final instance ({len(res.final.facts)} facts):")
    for line in print_instance(res.final).splitlines():
        print(f"  {line}")


def cmd_analyze(args) -> int:
    sigma, _ = _load(args)
    report = analyze(sigma)
    payload = analysis_report(report)
    if args.check != "all":
        rung = _RUNG_BY_KEY[args.check]
        keep = ("constraints", rung.field) + rung.evidence
        payload = {k: v for k, v in payload.items() if k in keep}
        payload["check"] = args.check
        payload["verdict"] = getattr(report, rung.field)
    if args.dot:
        _write_dot(args.dot, "dependency", report.dependency_graph, args.json)
        _write_dot(args.dot, "propagation", report.propagation_graph, args.json)
        _write_dot(args.dot, "chase_graph", report.chase_graph, args.json)
        _write_dot(args.dot, "restriction_system", report.restriction_system, args.json)
    if args.json:
        sys.stdout.write(to_json(payload))
        return EXIT_OK
    if args.check != "all":
        print(f"{args.check}: {'yes' if payload['verdict'] else 'no'}")
        return EXIT_OK
    for rung in RUNGS:
        print(f"{rung.label}: {'yes' if getattr(report, rung.field) else 'no'}")
    print(f"terminating on all instances: {'yes' if report.terminating else 'no'}")
    return EXIT_OK


def cmd_chase(args) -> int:
    sigma, I = _load(args)
    policy = ChasePolicy(order=args.order, seed=args.seed,
                         max_steps=args.max_steps)
    res = chase(I, sigma, policy)
    if args.json:
        sys.stdout.write(to_json(chase_report(res)))
    else:
        _print_chase_text(res)
    return _chase_exit(res)


def cmd_monitor(args) -> int:
    sigma, I = _load(args)
    res = monitored_chase(I, sigma, args.k,
                          ChasePolicy(order=args.order, seed=args.seed))
    m = monitor_report(res.monitor, args.k)
    if args.dot:
        _write_dot(args.dot, "monitor", res.monitor, args.json)
    if args.json:
        sys.stdout.write(to_json({"chase": chase_report(res, include_trace=False),
                                  "monitor": m}))
    else:
        _print_chase_text(res)
        print(f"monitor: {len(m['nodes'])} nodes, {len(m['edges'])} edges, "
              f"{args.k}-cyclic: {'yes' if m['k_cyclic'] else 'no'}")
    return _chase_exit(res)


def cmd_irrelevant(args) -> int:
    sigma, I = _load(args)
    irrelevant, relevant, graph = irrelevant_constraints(I, sigma)
    if args.json:
        payload = {
            "irrelevant": [c.id for c in irrelevant],
            "relevant": [c.id for c in relevant],
            "chase_graph": {"nodes": sorted(c.id for c in graph.constraints),
                            "edges": [[a, b] for a, b in graph.edges]},
        }
        sys.stdout.write(to_json(payload))
        return EXIT_OK
    print(f"irrelevant: {', '.join(c.id for c in irrelevant) or '(none)'}")
    print(f"relevant:   {', '.join(c.id for c in relevant) or '(none)'}")
    return EXIT_OK


def cmd_termcheck(args) -> int:
    sigma, I = _load(args)
    report = analyze(sigma)
    if report.terminating:
        rungs = [rung.name for rung in report.accepted_by]
        payload = {"level": "AllInstances", "by": rungs,
                   "relevant": [c.id for c in sigma], "irrelevant": []}
        if args.json:
            sys.stdout.write(to_json(payload))
        else:
            print(f"guarantee: AllInstances (via {', '.join(rungs)})")
        return EXIT_OK
    guarantee = data_dependent_guarantee(I, report)
    if guarantee.level == THIS_INSTANCE:
        if args.json:
            sys.stdout.write(to_json(guarantee_report(guarantee)))
        else:
            print("guarantee: ThisInstance")
            print(f"relevant:   {', '.join(c.id for c in guarantee.relevant)}")
            print(f"irrelevant: {', '.join(c.id for c in guarantee.irrelevant) or '(none)'}")
        return EXIT_OK
    # no static guarantee even after pruning: run under the cycle monitor
    res = monitored_chase(I, sigma, args.k,
                          ChasePolicy(order=args.order, seed=args.seed))
    if args.json:
        payload = {"level": "None",
                   "relevant": [c.id for c in guarantee.relevant],
                   "irrelevant": [c.id for c in guarantee.irrelevant],
                   "monitored_chase": chase_report(res, include_trace=False)}
        sys.stdout.write(to_json(payload))
    else:
        print("guarantee: None; ran the chase under the cycle monitor")
        _print_chase_text(res)
    return _chase_exit(res)


def cmd_fixture(args) -> int:
    if args.family != "appendix-g":
        raise CliError(f"unknown fixture family {args.family!r}")
    I, sigma = rotation_family(args.k)
    os.makedirs(args.out, exist_ok=True)
    rules = os.path.join(args.out, f"rotation_{args.k}.rules")
    inst = os.path.join(args.out, f"rotation_{args.k}.inst")
    with open(rules, "w", encoding="utf-8") as fh:
        fh.write(print_constraints(ConstraintDocument(sigma)))
    with open(inst, "w", encoding="utf-8") as fh:
        fh.write(print_instance(I))
    print(f"wrote {rules}")
    print(f"wrote {inst}")
    return EXIT_OK


def _arg(*flags: str, **kwargs) -> Tuple[Tuple[str, ...], dict]:
    """One argument's declaration: what add_argument takes."""
    return flags, kwargs


_JSON = _arg("--json", action="store_true")
_DEPTH = _arg("-k", type=_at_least(1), default=5)
_INSTANCE = (
    _arg("constraints"),
    _arg("instance", help="instance file"),
    _arg("--as-query", action="store_true", dest="as_query",
         help="read uppercase identifiers as labeled nulls"),
)
_ORDER = (
    _arg("--order", choices=["det", "rand"], default="det"),
    _arg("--seed", type=int, default=0),
)

# name -> (help, handler, argument declarations), in the order --help lists
_COMMANDS = {
    "analyze": ("run the static termination ladder", cmd_analyze, (
        _arg("constraints", help="rules file"),
        _arg("--check", choices=sorted(_RUNG_BY_KEY) + ["all"], default="all"),
        _arg("--dot", metavar="DIR", help="write graph DOT files here"),
        _JSON,
    )),
    "chase": ("run the chase", cmd_chase, _INSTANCE + (
        _arg("--max-steps", type=_at_least(0), default=10000, dest="max_steps"),
    ) + _ORDER + (_JSON,)),
    "monitor": ("chase under the k-cycle monitor", cmd_monitor,
                _INSTANCE + (_DEPTH,) + _ORDER + (_arg("--dot", metavar="DIR"), _JSON)),
    "irrelevant": ("split rules by reachability from the instance",
                   cmd_irrelevant, _INSTANCE + (_JSON,)),
    "termcheck": ("ladder, then pruning, then monitored chase", cmd_termcheck,
                  _INSTANCE + (_DEPTH,) + _ORDER + (_JSON,)),
    "fixture": ("emit a generated fixture family", cmd_fixture, (
        _arg("family", help="family name (appendix-g)"),
        _arg("-k", type=int, required=True),
        _arg("--out", required=True, metavar="DIR"),
    )),
}


def _read_command_line(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse returns for argv, read straight from
    _COMMANDS, when argv is well formed: a command's name, then exact
    option strings, each valued one followed by its value, and the
    positionals, no value or positional starting with "-". Each value goes
    through its declared type and choices. Any other line, and any that
    argparse would reject, gives None (see the module docstring). Each
    argument is named by argparse's rule for one option string: dest, else
    the string without its leading dashes and with "-" as "_"."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, declared = entry
    read, options, positionals, required = {}, {}, [], set()
    for flags, kwargs in declared:
        dest = kwargs.get("dest", flags[0].lstrip("-").replace("-", "_"))
        store_true = kwargs.get("action") == "store_true"
        read[dest] = kwargs.get("default", False if store_true else None)
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (dest, kwargs)))
        else:
            positionals.append((dest, kwargs))
        if kwargs.get("required") or not flags[0].startswith("-"):
            required.add(dest)
    rest = iter(argv[1:])
    for token in rest:
        if token.startswith("-"):
            if token not in options:
                return None
            dest, kwargs = options[token]
            if kwargs.get("action") == "store_true":
                read[dest] = True
                continue
            token = next(rest, "-")  # a missing value reads as "-": None
            if token.startswith("-"):
                return None
        elif positionals:
            dest, kwargs = positionals.pop(0)
        else:
            return None
        try:
            value = kwargs.get("type", str)(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        read[dest] = value
        required.discard(dest)
    if required:
        return None
    return argparse.Namespace(**read, func=func, command=argv[0])


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv read from the command table when it is well formed, else by
    the top-level argparse parser (see the module docstring)."""
    args = _read_command_line(argv)
    if args is not None:
        return args
    top = _ArgumentParser(prog="chaseterm",
                          description="chase and chase-termination toolbox")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, func, declared) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, kwargs in declared:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return top.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        return args.func(args)
    except (CliError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
