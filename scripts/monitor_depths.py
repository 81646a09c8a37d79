#!/usr/bin/env python3
"""Show the cycle monitor separating rotation fixtures by depth.

Each member k of the rotation family chases in exactly k steps and builds a
monitor graph whose longest same-class chain has k-1 edges, so a watch depth
of k lets the run finish while k-1 trips the abort. The table prints both
watch outcomes next to the measured chain depth, plus what static analysis
and instance pruning say about the member.
"""

import argparse

from chaseterm.chase import monitored_chase
from chaseterm.dynamic import data_dependent_guarantee
from chaseterm.fixtures import rotation_family
from chaseterm.monitor import is_k_cyclic
from chaseterm.static import analyze


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmax", type=int, default=8)
    args = ap.parse_args()

    print(f"{'k':>2} {'steps':>5} {'chain':>5} {'cyclic':>12} "
          f"{'watch k':>9} {'watch k-1':>9} {'guarantee':>12}")
    for k in range(2, args.kmax + 1):
        I, sigma = rotation_family(k)
        # the run watched at depth k finishes, so its graph is the whole run's
        res = monitored_chase(I, sigma, k)
        G = res.monitor
        depths = [d for d in range(1, k + 2) if is_k_cyclic(G, d)[0]]
        cyclic = f"<= {max(depths)}" if depths else "none"
        tripped = monitored_chase(I, sigma, k - 1).outcome
        level = data_dependent_guarantee(I, analyze(sigma)).level
        print(f"{k:>2} {len(res.steps):>5} {G.longest:>5} {cyclic:>12} "
              f"{res.outcome:>9} {tripped:>9} {level:>12}")


if __name__ == "__main__":
    main()
