"""Growth: paths that cost one pass over their input stay that way.

Each row times one path at two input sizes 4x apart, best of a few runs,
and bounds the ratio of the two times at 8x, between linear growth (4x)
and quadratic (16x). Byte checks on small inputs cannot see a path turn
quadratic; this can. The collector is off inside each timed call, since a
full collection walks the whole test process's heap whatever the input
size. Timings still drift on a loaded host, so a failure prints both
times and their ratio.
"""

import functools
import gc
import random
from time import perf_counter

import pytest

from chaseterm.chase import chase
from chaseterm.dynamic import constraint_from_instance, data_dependent_guarantee
from chaseterm.reports import chase_report, to_json
from chaseterm.static import analyze
from chaseterm.syntax import parse_constraints, parse_instance

from .test_cli import perfbench_workloads

BOUND = 8.0


@functools.lru_cache(maxsize=None)
def _travel(rail):
    """The travel rules, the instance text and the instance of the
    termcheck-travel generator with rail rail facts and rail // 4
    airports: 1,251 facts at rail 1,000."""
    files, _ = perfbench_workloads().gen_termcheck_travel(
        random.Random(1), {"rail": rail, "airports": rail // 4, "k": 10})
    text = files["travel.inst"]
    return parse_constraints(files["travel.rules"]).constraints, text, parse_instance(text)


def _chase_tc(n):
    """The chase-tc rules and a path of n edges."""
    files, _ = perfbench_workloads().gen_chase_tc(random.Random(1), {"tc_edges": n})
    return parse_constraints(files["tc.rules"]).constraints, parse_instance(files["tc.inst"])


@functools.lru_cache(maxsize=None)
def _chase_tc_result(n):
    """The chase-tc run on a path of n edges."""
    sigma, I = _chase_tc(n)
    return (chase(I, sigma),)


# name, input builder, the two sizes, the timed call, runs per size (five
# for the shortest call, whose readings spread the most)
ROWS = [
    ("data_dependent_guarantee", _travel, (1000, 4000),
     lambda sigma, text, I: data_dependent_guarantee(I, analyze(sigma)), 3),
    ("parse_instance", _travel, (1000, 4000),
     lambda sigma, text, I: parse_instance(text), 3),
    ("constraint_from_instance", _travel, (1000, 4000),
     lambda sigma, text, I: constraint_from_instance(I), 5),
    ("chase_tc", _chase_tc, (30, 60),
     lambda sigma, I: chase(I, sigma), 3),
    ("chase_report_to_json", _chase_tc_result, (30, 60),
     lambda res: to_json(chase_report(res)), 3),
]


def _best(run, args, runs):
    best = float("inf")
    for _ in range(runs):
        gc.disable()
        try:
            start = perf_counter()
            run(*args)
            best = min(best, perf_counter() - start)
        finally:
            gc.enable()
    return best


@pytest.mark.parametrize("name, build, sizes, run, runs", ROWS,
                         ids=[row[0] for row in ROWS])
def test_growth_stays_below_quadratic(name, build, sizes, run, runs):
    small, large = sizes
    t_small = _best(run, build(small), runs)
    t_large = _best(run, build(large), runs)
    ratio = t_large / t_small
    assert ratio <= BOUND, (
        f"{name}: {t_small * 1e3:.1f} ms at {small}, {t_large * 1e3:.1f} ms "
        f"at {large}: {ratio:.1f}x, above {BOUND:.0f}x")
