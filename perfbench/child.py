"""One repetition of a workload, in a fresh interpreter.

    python3 child.py ROOT WORKDIR MODE

MODE is `warm` (import only, to fill the bytecode cache), `run` or `trace`.
WORKDIR holds the generated inputs and `spec.json`. The package is imported
from ROOT/src and nowhere else. The last line of standard output is one JSON
object: the monotonic time at which parsing ended (the parent started its
clock before spawning this process, so the difference, less the first
yard-stick reading, is the set-up time), each operation's exit code,
latency, timed part (from parsed inputs to rendered output) and printed
JSON, the peak RSS, the readings of the yard stick that run.py divides the
times by (calibrate), and with MODE `trace` the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time
import traceback

ROOT, WORKDIR, MODE = sys.argv[1], sys.argv[2], sys.argv[3]
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, SRC)
CAL_PATH, CAL_ROUNDS = 20, 3    # about 0.03 s a round
CAL_EVERY = 8                   # batch operations between two readings

import chaseterm.cli  # noqa: E402  (the path is set just above)

if not os.path.abspath(chaseterm.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"chaseterm was imported from {chaseterm.cli.__file__}, not {SRC}")
if MODE == "warm":
    print("{}")
    sys.exit(0)

import chaseterm.reports  # noqa: E402
import chaseterm.static  # noqa: E402
import chaseterm.syntax  # noqa: E402


def peak_rss_kb() -> int:
    """Peak RSS of this process image. Linux carries ru_maxrss across exec,
    so it would report the parent's size whenever the parent is larger;
    VmHWM belongs to the new image only."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds per round this process takes to re-check a fixed transitive
    closure with the benchmark's own naive join: a yard stick of the core's
    current speed that does not depend on the package. It is read before
    the inputs are parsed, after the timed part, and in the batch after
    every CAL_EVERY operations; run.py divides each operation's time by the
    mean of the readings just before and after it."""
    from workloads import TC_RULES, unsatisfied
    path = [f"v{i}" for i in range(CAL_PATH + 1)]
    facts = {("e", (path[i], path[i + 1])) for i in range(CAL_PATH)}
    facts |= {("t", (path[i], path[j])) for i in range(CAL_PATH + 1)
              for j in range(i + 1, CAL_PATH + 1)}
    facts |= {("m", (v, "?z")) for v in path}
    start = time.perf_counter()
    for _ in range(rounds):
        if unsatisfied(TC_RULES, facts):
            raise RuntimeError("calibration instance is not a model")
    return (time.perf_counter() - start) / rounds


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("operation ran past its cap")


def main() -> None:
    start = time.perf_counter()
    # (operations done, seconds per round)
    yard_sticks = [(0, calibrate())]
    cal_pre_s = time.perf_counter() - start
    with open(os.path.join(WORKDIR, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if MODE == "trace":
        import tracer as tracing
        tracer = tracing.install()

    cli, reports, static, syntax = (chaseterm.cli, chaseterm.reports,
                                    chaseterm.static, chaseterm.syntax)
    parsed = []  # (perf_counter, monotonic) after each parse call

    def boundary(fn):
        def parse(*args, **kwargs):
            result = fn(*args, **kwargs)
            parsed.append((time.perf_counter(), time.monotonic()))
            return result
        return parse

    def finish(op, start):
        """Record the operation's latency, and its timed part: from its
        start, or from its last parse if it parsed, to its end."""
        end = time.perf_counter()
        op["s"] = end - start
        op["run_s"] = end - max([start] + [t for t, _ in parsed[-1:]])

    os.chdir(WORKDIR)
    signal.signal(signal.SIGALRM, _alarm)
    cap = spec["op_cap_s"]
    ops = []
    if spec["workload"] == "analyze-batch":
        # what `chaseterm analyze --json` runs, once per rule set
        sigmas = []
        for op in spec["ops"]:
            with open(op["rules"], encoding="utf-8") as fh:
                sigmas.append(syntax.parse_constraints(fh.read()).constraints)
        parsed.append((time.perf_counter(), time.monotonic()))
        for op, sigma in zip(spec["ops"], sigmas):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                text = reports.to_json(reports.analysis_report(
                    static.analyze(sigma)))
                ops.append({"exit": 0, "output": text})
            except Exception:
                ops.append({"exit": None, "error": traceback.format_exc()})
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            finish(ops[-1], start)
            # spans would bill the readings to no layer, so not when traced
            if (tracer is None and len(ops) % CAL_EVERY == 0
                    and len(ops) < len(spec["ops"])):
                yard_sticks.append((len(ops), calibrate(1)))
    else:
        # the CLI itself; set-up ends when it has parsed its input files
        cli.parse_constraints = boundary(cli.parse_constraints)
        cli.parse_instance = boundary(cli.parse_instance)
        for op in spec["ops"]:
            out = io.StringIO()
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(op["argv"])
                ops.append({"exit": code, "output": out.getvalue()})
            except Exception:
                ops.append({"exit": None, "error": traceback.format_exc()})
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            finish(ops[-1], start)
    t_end = time.perf_counter()

    yard_sticks.append((len(ops), calibrate()))

    t_begin, mono_parsed = parsed[-1] if parsed else (t_end, time.monotonic())
    result = {"parsed_at": mono_parsed, "cal_pre_s": cal_pre_s,
              "yard_sticks": yard_sticks, "ops": ops,
              "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["trace"] = tracer.summary(t_begin, t_end)
        result["trace"]["monitor"] = tracing.monitor_sizes(tracer.last_monitor)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
