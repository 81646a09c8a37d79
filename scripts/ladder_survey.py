#!/usr/bin/env python3
"""Survey how far random constraint sets climb the termination ladder.

Draws seeded random sets over a tiny schema with the test suite's
generator, runs the full analysis, and tabulates the first check that accepts each set (the ladder is ordered by
strength, so the first acceptance is the cheapest sufficient argument).
Implication violations would indicate a bug and are counted separately.
Run it from the repository root, with the package and the tests on the path:

    PYTHONPATH=src:. python3 scripts/ladder_survey.py
"""

import argparse
import collections
import random

from chaseterm.static import RUNGS, analyze
from tests.generators import random_constraints


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=300)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--max-constraints", type=int, default=3)
    ap.add_argument("--max-atoms", type=int, default=3)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    first = collections.Counter()
    violations = 0
    for _ in range(args.sets):
        rep = analyze(random_constraints(rng, args.max_constraints,
                                         args.max_atoms))
        accepted = rep.accepted_by
        first[accepted[0].label if accepted else "none"] += 1
        if rep.weakly_acyclic and not rep.stratified:
            violations += 1
        if rep.safe and not rep.safely_restricted:
            violations += 1
        if rep.safely_restricted and not rep.inductively_restricted:
            violations += 1

    width = max(len(rung.label) for rung in RUNGS) + 2
    print(f"{args.sets} sets, seed {args.seed}, "
          f"<= {args.max_constraints} constraints, <= {args.max_atoms} atoms")
    print(f"{'first accepting check':<{width}} sets")
    for rung in RUNGS:
        print(f"{rung.label:<{width}} {first[rung.label]:>4}")
    print(f"{'none':<{width}} {first['none']:>4}")
    print(f"implication violations: {violations}")


if __name__ == "__main__":
    main()
