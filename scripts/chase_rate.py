#!/usr/bin/env python3
"""Chase steps per second, and the time to write the result, on the chase-tc
workload, for one or more source trees.

    PYTHONPATH=. python3 scripts/chase_rate.py [--n N [N ...]]
        [--order det|rand] [--rounds R] SRC [SRC ...]

Run it from the repository root, with the root on the path: the rules and
the instance come from the chase-tc workload of perfbench/workloads.py
(transitive closure, one existential rule and one merging EGD, on a path
of n edges), drawn with the benchmark's seed 1, which the chase under
--order rand also takes. A run takes n(n+1)/2 + 2n - 1 steps.

Each SRC is a directory that holds the chaseterm package, such as this
checkout's src/ or the src/ of another checkout. Every run is a fresh
interpreter that imports the package from its SRC and nothing else, reads
the rules and the instance text on stdin, parses them, and times one chase
and then the writing of its `chase --json` text (chase_report, then
to_json), with the garbage collector on; set-up is not timed. The sides
take turns within each round, so drift of the host meets every side alike. The table
gives, per n and SRC, the median rate over the rounds, its quartiles (by
the inclusive method, so they lie within the rates measured), and its
ratio to the median of the first SRC: list the base first, and each ratio
is a speed-up over it. The last two columns give the median time to write
the result, in ms, and its ratio to the first SRC's, so a ratio below 1 is
a saving. Runs whose step counts, outcomes or written text (by SHA-256)
differ between sides stop the script with an error. Standard library only.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

SEED = 1


def child(src: str, order: str) -> None:
    """One timed chase of the rules and instance on stdin, and one timed
    write of its report; prints {"steps", "outcome", "seconds", "write_s",
    "sha256"} as JSON."""
    import hashlib
    import time

    sys.path.insert(0, src)
    import chaseterm
    if not os.path.abspath(chaseterm.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"chaseterm was imported from {chaseterm.__file__}, not {src}")
    from chaseterm.chase import ChasePolicy, chase
    from chaseterm.reports import chase_report, to_json
    from chaseterm.syntax import parse_constraints, parse_instance
    text = json.load(sys.stdin)
    sigma = parse_constraints(text["rules"]).constraints
    I = parse_instance(text["instance"])
    policy = ChasePolicy(order=order, seed=SEED)
    start = time.perf_counter()
    res = chase(I, sigma, policy)
    seconds = time.perf_counter() - start
    start = time.perf_counter()
    written = to_json(chase_report(res))
    write_s = time.perf_counter() - start
    print(json.dumps({"steps": len(res.steps), "outcome": res.outcome,
                      "seconds": seconds, "write_s": write_s,
                      "sha256": hashlib.sha256(written.encode()).hexdigest()}))


def inputs(n: int) -> str:
    """The chase-tc rules and instance text at n edges, as the child reads them."""
    from perfbench.workloads import gen_chase_tc
    files, _ = gen_chase_tc(random.Random(f"chase-tc/{SEED}"), {"tc_edges": n})
    return json.dumps({"rules": files["tc.rules"], "instance": files["tc.inst"]})


def run(src: str, n: int, order: str, text: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", "-B", os.path.abspath(__file__), "--child", src,
         order],
        input=text, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"the run of {src} at n={n} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:4])
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("srcs", nargs="+", metavar="SRC")
    ap.add_argument("--n", type=int, nargs="+", default=[120, 200])
    ap.add_argument("--order", choices=("det", "rand"), default="det")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()
    if args.rounds < 1 or min(args.n) < 1:
        ap.error("--rounds and every --n must be at least 1")

    texts = {n: inputs(n) for n in args.n}
    rates = {(n, src): [] for n in args.n for src in args.srcs}
    writes = {(n, src): [] for n in args.n for src in args.srcs}
    shape = {}
    for _ in range(args.rounds):
        for n in args.n:
            for src in args.srcs:
                r = run(src, n, args.order, texts[n])
                seen = shape.setdefault(n, (r["steps"], r["outcome"], r["sha256"]))
                if seen[:2] != (r["steps"], r["outcome"]):
                    sys.exit(f"n={n}: {src} ran {r['steps']} steps to "
                             f"{r['outcome']}, another side {seen[0]} to {seen[1]}")
                if seen[2] != r["sha256"]:
                    sys.exit(f"n={n}: {src} wrote JSON text with SHA-256 "
                             f"{r['sha256']}, another side {seen[2]}")
                rates[n, src].append(r["steps"] / r["seconds"])
                writes[n, src].append(r["write_s"])

    print(f"chase-tc rules, order {args.order}, seed {SEED}, "
          f"{args.rounds} rounds; steps/s")
    width = max(len(src) for src in args.srcs)
    print(f"{'n':>5} {'steps':>7}  {'src':<{width}} {'median':>8} {'q1':>8} "
          f"{'q3':>8} {'ratio':>6} {'write_ms':>9} {'w_ratio':>7}")
    for n in args.n:
        base = statistics.median(rates[n, args.srcs[0]])
        write_base = statistics.median(writes[n, args.srcs[0]])
        for src in args.srcs:
            xs = rates[n, src]
            med = statistics.median(xs)
            q1, q3 = quartiles(xs)
            write = statistics.median(writes[n, src])
            print(f"{n:>5} {shape[n][0]:>7}  {src:<{width}} {med:>8.0f} "
                  f"{q1:>8.0f} {q3:>8.0f} {med / base:>6.2f} "
                  f"{write * 1e3:>9.2f} {write / write_base:>7.2f}")


if __name__ == "__main__":
    main()
