"""Randomised stress run for the matching solver.

Rounds rotate through the instance families of ``bench/families.py``:
random instances, relabelled cyclic shifts and relabelled doubling-family
instances.  Each round draws one instance and a weight table, solves it,
and checks the result: the matching is stable, its weight matches the
reported weight, it is the girl pole that the meta-rotation poset gives
(the solver reaches that pole through the maximum-weight ideal cut, the
``--pole girl`` path through the poset), the boy pole weighs the same and
dominates it, and (small instances only) the weight agrees with the
brute-force oracle and the boy pole is the oracle's.
Instances small enough to enumerate also get their optimum set checked
for meet/join closure.  A second table w2 is drawn each round for the
bi-objective solver: its matching is stable, its w1 weight is the solve
weight, its w2 weight is at least that of either w1 pole, and (small
instances only) both weights equal the lexicographic brute force.

Usage:
    python scripts/random_stress.py --rounds 500 --max-n 40 --seed 7
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# This checkout's own package first, so an installed copy is never tested.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import families  # noqa: E402
from report_digest import draw_prefs  # noqa: E402
from stablecut import (  # noqa: E402
    Instance,
    WeightFunction,
    boy_optimal_max,
    dominates,
    enumerate_max_matchings,
    girl_optimal_max,
    is_stable,
    join,
    matching_weight,
    meet,
    meta_rotation_poset,
    solve_bi_objective,
    solve_max_weight,
)
from stablecut.oracle import _optimal_pole, heaviest_stable_matchings  # noqa: E402

FAMILIES = ("random", "cyclic", "doubling")
ORACLE_LIMIT = 7
ENUMERATION_CAP = 10_000


def check_round(rng: random.Random, family: str, max_n: int) -> str | None:
    """One stress round; returns a failure description or None."""
    boys, girls = draw_prefs(rng, family, max_n)
    inst = Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))
    n = inst.n
    # alternate wide and narrow spreads so tied optima show up regularly
    w, w2 = (
        WeightFunction(tuple(map(tuple, families.random_weights(rng, n, -k, k, 0))))
        for k in (rng.choice((9, 9, 1)), rng.choice((9, 1)))
    )

    m, weight = solve_max_weight(inst, w)
    if not is_stable(inst, m):
        return f"n={n}: solver returned an unstable matching"
    if matching_weight(m, w) != weight:
        return f"n={n}: reported weight {weight} != recomputed weight"
    p = meta_rotation_poset(inst, w)
    if girl_optimal_max(p) != m:
        return f"n={n}: solver matching is not the poset's girl pole"
    top = boy_optimal_max(p)
    if matching_weight(top, w) != weight:
        return f"n={n}: boy pole weight {matching_weight(top, w)} != solve weight {weight}"
    if not dominates(top, m, inst):
        return f"n={n}: boy pole does not dominate the girl pole"

    m2, v1, v2 = solve_bi_objective(inst, w, w2)
    if not is_stable(inst, m2):
        return f"n={n}: bi-objective returned an unstable matching"
    if v1 != weight:
        return f"n={n}: bi-objective weight1 {v1} != solve weight {weight}"
    if v2 < max(matching_weight(top, w2), matching_weight(m, w2)):
        return f"n={n}: bi-objective weight2 {v2} is below a w1 pole's"

    if n <= ORACLE_LIMIT:
        stable_optima, best = heaviest_stable_matchings(inst, w)
        if weight != best:
            return f"n={n}: solver weight {weight} != oracle weight {best}"
        best2 = max(matching_weight(o, w2) for o in stable_optima)
        if (v1, v2) != (best, best2):
            return f"n={n}: bi-objective ({v1}, {v2}) != brute force ({best}, {best2})"
        if _optimal_pole(stable_optima, inst, "boys") != top:
            return f"n={n}: boy pole is not the oracle's boy-optimal optimum"
        optima, truncated = enumerate_max_matchings(p, ENUMERATION_CAP)
        if truncated:
            return f"n={n}: optimum enumeration truncated at {ENUMERATION_CAP}"
        keys = {opt.partner_of_boy for opt in optima}
        for a in optima:
            for b in optima:
                if (
                    meet(a, b, inst).partner_of_boy not in keys
                    or join(a, b, inst).partner_of_boy not in keys
                ):
                    return f"n={n}: optimum set is not meet/join closed"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=300)
    parser.add_argument("--max-n", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    start = time.perf_counter()
    for i in range(args.rounds):
        family = FAMILIES[i % len(FAMILIES)]
        failure = check_round(rng, family, args.max_n)
        if failure is not None:
            print(f"round {i} ({family}): {failure}")
            return 1
        if (i + 1) % 50 == 0:
            print(f"{i + 1}/{args.rounds} rounds clean")
    elapsed = time.perf_counter() - start
    print(f"all {args.rounds} rounds clean in {elapsed:.1f}s (max n {args.max_n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
