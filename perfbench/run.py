"""Cold-process benchmark of the `chaseterm` commands, with a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --smoke                 # small sizes, self-check

Run from the root of a checkout; the package is imported from `src/` of that
checkout only, and only by the child processes. Each repetition runs in a
fresh interpreter (child.py), so the package's module-level caches start cold
every time and stay warm only within one repetition, as for a library user.
Repetitions run one after another until S seconds have passed (at least
MIN_REPS of them). Every output is checked by this process, which never
imports the package; on the default seed each output must also match the
digest recorded in digests.json.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics. Times are normalised to a fixed core speed: each
repetition reads a yard stick, a fixed naive join of the benchmark's own
that does not touch the package (child.py, calibrate), before parsing,
after its timed part and, in the batch, every few operations. Each
operation's time is divided by the mean of the readings just before and
after it, the set-up time by the first reading, and both are multiplied by
REF_CAL_S. A reported time is then the median over repetitions of "seconds
on a core as fast as the one the yard stick took REF_CAL_S on" (run_s: the
sum of its operations' medians). The host this was built on (a 2-core Xeon
VM) lends its cores to neighbours: the same input's raw median moved by a
quarter to a half between runs minutes apart, and the yard stick moved
with it. The text summary also
gives the raw median, quartiles and sample count of every time. Peak RSS
is the median of the raw values. With `--trace 1` one more repetition runs
with every layer's public functions wrapped in spans (tracer.py), and the
object holds the per-layer metrics, in raw seconds, instead; that
repetition's outputs must be byte-identical to the untraced ones.
`--smoke` runs every workload at small sizes, once untraced and twice traced,
checks the outputs, checks that all counts repeat exactly between the two
traced runs and that BENCHMARK.json names exactly the metrics printed, and
exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import CHECKS, WORKLOADS, generate  # noqa: E402

DEFAULT_SEED = 1
MIN_REPS = 4           # enough for quartiles
REP_TIMEOUT_S = 100   # one child process, set-up included
RUN_LIMIT_S = 170     # one workload, traced repetitions included
OP_CAP_S = 50         # one command or one rule set, inside the child
# The yard stick's lower-quartile reading over 424 repetitions on the
# 2-core Xeon VM the benchmark was written on; only sets the scale of times.
REF_CAL_S = 0.025

END_TO_END = (
    # name, unit
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run. Span names are "<layer>.<function>".
SELF_TIMES = (
    "syntax.parse", "model.find_violations", "model.satisfies",
    "model.match_conjunction", "chase.chase", "chase.chase_step",
    "firing.can_cause", "firing.satisfies", "firing.chase_step",
    "static.analyze", "static.minimal_restriction_system", "static.part",
    "dynamic.chase_graph", "dynamic.irrelevant_constraints",
    "dynamic.data_dependent_guarantee", "monitor.monitor_update",
    "monitor.is_k_cyclic", "reports.analysis_report", "reports.chase_report",
    "reports.to_json",
)
CALL_COUNTS = (
    "model.find_violations", "model.satisfies", "model.match_conjunction",
    "chase.chase_step", "firing.can_cause", "firing.satisfies",
    "dynamic.chase_graph", "monitor.monitor_update", "monitor.is_k_cyclic",
)
# Counts that must repeat exactly between two traced runs of one input.
EXACT = tuple(f"{n}.calls" for n in CALL_COUNTS) + (
    "chase.steps", "chase.egd_merges", "chase.final_facts",
    "firing.candidates", "dynamic.relevant",
    "monitor.nodes", "monitor.edges", "monitor.max_chain")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: dict, untraced_run_s: float) -> dict:
    """Name -> (value, unit) from one traced repetition's span summary."""
    calls, self_s, counts = tr["calls"], tr["self_s"], tr["counts"]
    m = {f"{n}.calls": (calls.get(n, 0), "count") for n in CALL_COUNTS}
    m.update({f"{n}.self_s": (self_s.get(n, 0.0), "s") for n in SELF_TIMES})
    steps = counts.get("chase.steps", 0)
    m.update({
        "model.violations_per_check": (_ratio(
            counts.get("model.find_violations.violations", 0),
            calls.get("model.satisfies", 0)), "ratio"),
        "chase.steps": (steps, "count"),
        "chase.egd_merges": (counts.get("chase.egd_merges", 0), "count"),
        "chase.final_facts": (counts.get("chase.final_facts", 0), "count"),
        "chase.scans_per_step": (_ratio(
            calls.get("model.find_violations", 0), steps), "ratio"),
        "firing.candidates": (calls.get("firing.chase_step", 0), "count"),
        "firing.edges_per_call": (_ratio(
            counts.get("firing.can_cause.edges", 0),
            calls.get("firing.can_cause", 0)), "ratio"),
        "dynamic.relevant": (counts.get("dynamic.relevant", 0), "count"),
        "other.self_s": (tr["other_s"], "s"),
        "trace.run_s": (tr["window_s"], "s"),
        "trace.overhead_s": (tr["window_s"] - untraced_run_s, "s"),
    })
    for key, value in tr["monitor"].items():
        m[f"monitor.{key}"] = (value, "count")
    return m


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def spawn(work: str, mode: str, timeout: float):
    """Run child.py once; returns (parent clock at spawn, parsed result or
    None, error text)."""
    # An installed package starts from compiled bytecode, so the children
    # keep a bytecode cache, which the first (warm) child of a run fills.
    # It lives in the run's work directory, leaving src/ untouched.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), ROOT, work, mode],
            capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        return t0, None, f"child ran past {timeout} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t0, None, f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return t0, json.loads(lines[-1]), ""
    except ValueError:
        return t0, None, f"child printed no result: {lines[-1][:200]}"


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op['exit']}\n{op.get('output', '')}\0".encode())
    return h.hexdigest()


def check_rep(spec: dict, ops) -> list:
    """Problems of one repetition's outputs, as (op index, message)."""
    problems = []
    outputs = []
    for i, (want, got) in enumerate(zip(spec["ops"], ops)):
        if got["exit"] != want.get("exit", 0):
            problems.append((i, f"exit {got['exit']}, expected "
                                f"{want.get('exit', 0)}: "
                                f"{got.get('error', '')[-500:]}"))
            outputs.append(None)
            continue
        try:
            outputs.append(json.loads(got["output"]))
        except ValueError:
            problems.append((i, f"output is not JSON: {got['output'][:200]!r}"))
    if not problems:
        try:
            problems = CHECKS[spec["workload"]](spec, outputs)
        except Exception:
            # an output of an unexpected shape fails the check, not the run
            problems = [(0, traceback.format_exc(limit=3))]
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, min_reps: int,
            traced_reps: int, mode: str, recorded: dict):
    """Run one workload; returns (end-to-end metrics, per-layer metrics or
    None, attempted, failed, problems, summary lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    files, spec = generate(workload, seed, mode)
    spec["workload"] = workload
    spec["op_cap_s"] = OP_CAP_S
    n_ops = len(spec["ops"])
    problems = []
    attempted = failed = 0
    setups, runs, cals, rss, setup_norm = [], [], [], [], []
    op_times, op_runs = {}, {}  # operation -> normalised times
    digests = set()

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

        _, _, err = spawn(work, "warm", REP_TIMEOUT_S)
        if err:
            raise SystemExit(f"cannot import chaseterm from {ROOT}/src: {err}")

        def one(mode_):
            nonlocal attempted, failed
            left = deadline - time.monotonic()
            t0, res, err = spawn(work, mode_, max(1.0, min(REP_TIMEOUT_S, left)))
            attempted += n_ops
            if res is None:
                failed += n_ops
                problems.append(f"{mode_}: {err}")
                return None
            bad = check_rep(spec, res["ops"])
            failed += len({i for i, _ in bad})
            problems.extend(f"{spec['ops'][i]['name']}: {msg}" for i, msg in bad)
            digests.add(digest(res["ops"]))
            res["setup_s"] = res["parsed_at"] - t0 - res["cal_pre_s"]
            return res

        def op_scales(points):
            """Per operation, REF_CAL_S over the mean of the yard-stick
            readings just before and just after it."""
            scales = []
            for i in range(n_ops):
                before = [y for k, y in points if k <= i][-1]
                after = [y for k, y in points if k > i][0]
                scales.append(2 * REF_CAL_S / (before + after))
            return scales

        start = time.monotonic()
        for n in itertools.count(1):
            res = one("run")
            if res is not None:
                points = res["yard_sticks"]
                setups.append(res["setup_s"])
                runs.append(sum(op["run_s"] for op in res["ops"]))
                cals.extend(y for _, y in points)
                rss.append(res["peak_rss_kb"] / 1024)
                setup_norm.append(res["setup_s"] * REF_CAL_S / points[0][1])
                for i, (op, scale) in enumerate(zip(res["ops"],
                                                    op_scales(points))):
                    op_times.setdefault(i, []).append(op["s"] * scale)
                    op_runs.setdefault(i, []).append(op["run_s"] * scale)
            elapsed = time.monotonic() - start
            # stop before a repetition of average length would overrun
            finish = elapsed + elapsed / n
            if (n >= min_reps and finish > seconds) or start + finish > deadline:
                break
        traced = [one("trace") for _ in range(traced_reps)]

    if len(digests) > 1:
        problems.append("outputs differ between repetitions"
                        " (traced and untraced outputs must be byte-identical)")
    if seed == DEFAULT_SEED and digests:
        want = recorded.get(mode, {}).get(workload)
        if digests != {want}:
            problems.append(f"output digest {sorted(digests)[0]} differs from "
                            f"the recorded {want}")
            failed = attempted

    if not runs:
        return None, None, attempted, failed, problems, []
    raw = {"setup_s": setups, "run_s": runs, "yard_stick_s": cals,
           "peak_rss_mb": rss}
    # run_s adds up each operation's normalised median: in the batch a
    # neighbour's burst then slows one operation of one repetition, which
    # its median drops, where it would slow the whole repetition's sum.
    metrics = {"setup_s": statistics.median(setup_norm),
               "run_s": sum(statistics.median(v) for v in op_runs.values()),
               "peak_rss_mb": statistics.median(rss)}
    # A verdict is one operation: one rule set's analysis in the batch, or
    # the one CLI command of the other workloads. Every repetition runs the
    # same operations in the same order from cold caches, so each
    # operation's latency is its own normalised median; p50 and p90 are
    # taken over operations.
    latencies = [statistics.median(v) for _, v in sorted(op_times.items())]
    p = (statistics.quantiles(latencies, n=10, method="inclusive")
         if len(latencies) > 1 else latencies * 9)
    metrics["verdict_p50_s"] = statistics.median(latencies)
    metrics["verdict_p90_s"] = p[8]
    lines = [f"{workload}: seed {seed}, {len(runs)} repetitions, "
             f"{len(latencies)} verdicts, digest {sorted(digests)[0]}"]
    for name, v in raw.items():
        q1, q2, q3 = quartiles(v)
        lines.append(f"  raw {name:13s} median {q2:.4f}  quartiles "
                     f"{q1:.4f} .. {q3:.4f}  (n={len(v)})")
    for name, _ in END_TO_END:
        lines.append(f"  {name:17s} {metrics[name]:.4f}")
    lines.append(f"  fail_ratio     {failed}/{attempted}")

    layers = None
    good = [t for t in traced if t is not None]
    if traced and len(good) == len(traced):
        summaries = [t["trace"] for t in good]
        # The traced repetition's times are raw: compare them with the
        # untraced run_s at the speed its own yard-stick readings show.
        layer_sets = [layer_metrics(t["trace"], metrics["run_s"] * (
            t["yard_sticks"][0][1] + t["yard_sticks"][-1][1]) / (2 * REF_CAL_S))
            for t in good]
        for s in summaries:
            if abs(s["self_sum_s"] - s["window_s"]) > 1e-6:
                problems.append(f"layer self times sum to {s['self_sum_s']}, "
                                f"not the traced run_s {s['window_s']}")
        for other in layer_sets[1:]:
            moved = [k for k in EXACT if other[k] != layer_sets[0][k]]
            if moved:
                problems.append(f"counts differ between traced runs: {moved}")
        layers = layer_sets[0]
        lines.append(f"  traced: {summaries[0]['spans']} spans")
        for name, (value, unit) in layers.items():
            lines.append(f"    {name:40s} {value:.6g} {unit}")
    return metrics, layers, attempted, failed, problems, lines


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "chaseterm", "cli.py")):
        print(f"error: no chaseterm package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)

    mode = "smoke" if args.smoke else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced_reps = 2 if args.smoke else args.trace
    seconds = 0 if args.smoke else args.seconds
    units = dict(END_TO_END)
    correct, attempted, failed, out, layer_names = True, 0, 0, {}, None
    for name in names:
        metrics, layers, att, fail, problems, lines = measure(
            name, args.seed, seconds, 1 if args.smoke else MIN_REPS,
            traced_reps, mode, recorded)
        print("\n".join(lines))
        for p in problems:
            print(f"  FAIL {p}")
        correct = correct and not problems and metrics is not None
        attempted += att
        failed += fail
        if metrics is None:
            continue
        if layers is not None:
            layer_names = {k: u for k, (_, u) in layers.items()}
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace and not args.smoke:
            for k, (value, unit) in (layers or {}).items():
                out[prefix + k] = {"value": value, "unit": unit}
        else:
            for k in units:
                out[prefix + k] = {"value": metrics[k], "unit": units[k]}

    if args.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if declared != units:
            correct = False
            print(f"  FAIL BENCHMARK.json end_to_end {declared} != {units}")
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        if declared != layer_names:
            correct = False
            print(f"  FAIL BENCHMARK.json per_layer differs from the traced metrics")
        print(_result(correct, attempted, failed, out))
        return 0 if correct and not failed else 1
    print(_result(correct, attempted, failed, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
