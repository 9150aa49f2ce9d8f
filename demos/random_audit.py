"""
Auditing duality on random programs
===================================

Generate seeded random valid programs, solve each through the duality
pipeline, and confirm the independent brute-force oracle sees the same
optima.  Pass a trial count and starting seed to rerun any slice.
"""

import argparse
from collections import Counter

from extlp import (
    dualize,
    is_feasible,
    opposites_opt,
    optimum_pair,
    strong_duality_check,
)
from extlp.oracle import GenConfig, gen_valid_elp, oracle_solve_extended


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rows", type=int, default=3)
    parser.add_argument("--cols", type=int, default=3)
    args = parser.parse_args()

    outcomes = Counter()
    for s in range(args.seed, args.seed + args.trials):
        p = gen_valid_elp(GenConfig(rows=args.rows, cols=args.cols, seed=s, infinity_prob=0.3))
        if not (is_feasible(p) or is_feasible(dualize(p))):
            outcomes["both sides infeasible (skipped)"] += 1
            continue
        assert strong_duality_check(p)
        p_opt, d_opt = optimum_pair(p)
        assert opposites_opt(p_opt, d_opt)
        assert oracle_solve_extended(p) == p_opt
        assert oracle_solve_extended(dualize(p)) == d_opt
        kind = "finite" if p_opt.value.is_finite else str(p_opt)
        outcomes[f"checked, primal optimum {kind}"] += 1

    for line, count in sorted(outcomes.items()):
        print(f"{count:5d}  {line}")
    print("all solved programs matched the oracle exactly")


if __name__ == "__main__":
    main()
