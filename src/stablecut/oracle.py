"""Brute-force reference answers for cross-checking the real solvers.

Everything here enumerates exhaustively and stays deliberately independent
of the rotation and flow machinery; hard size limits keep the exponential
blow-ups honest.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import ContractViolation, Instance, Matching, WeightFunction, dominates, matching_weight
from .idealcut import WeightedDag, cut_weight

MAX_ORACLE_N = 8
MAX_ORACLE_VERTICES = 20


def all_stable_matchings(inst: Instance) -> list[Matching]:
    """Every stable matching, by brute force over all n! assignments,
    ordered lexicographically by partner array.  Refuses n > 8."""
    n = inst.n
    if n > MAX_ORACLE_N:
        raise ValueError(f"oracle refuses instances larger than n={MAX_ORACLE_N}")
    boy_prefs = inst.boy_prefs
    boy_rank = inst.boy_rank
    girl_rank = inst.girl_rank
    found = []
    for perm in permutations(range(n)):
        girl_holder = [0] * n
        for b, g in enumerate(perm):
            girl_holder[g] = b
        stable = True
        for b in range(n):
            rank_here = boy_rank[b][perm[b]]
            for g in boy_prefs[b][:rank_here]:
                if girl_rank[g][b] < girl_rank[g][girl_holder[g]]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            found.append(Matching(perm))
    return found


def heaviest_stable_matchings(
    inst: Instance, w: WeightFunction, matchings: list[Matching] | None = None
) -> tuple[list[Matching], int]:
    """Every maximum-weight stable matching, in ``all_stable_matchings``
    order, plus the maximum weight; ``matchings`` may hold that list."""
    if matchings is None:
        matchings = all_stable_matchings(inst)
    weighed = [(matching_weight(m, w), m) for m in matchings]
    best = max(wt for wt, _ in weighed)
    return [m for wt, m in weighed if wt == best], best


def brute_max_weight_matching(
    inst: Instance, w: WeightFunction, matchings: list[Matching] | None = None
) -> tuple[Matching, int]:
    """Heaviest stable matching by exhaustion: the boy pole, the one
    optimum dominating all others.  A precomputed stable set may be passed
    in; raises ContractViolation unless its optima have exactly one boy
    pole."""
    optima, best_weight = heaviest_stable_matchings(inst, w, matchings)
    return _optimal_pole(optima, inst, "boys"), best_weight


def _optimal_pole(optima: list[Matching], inst: Instance, side: str) -> Matching:
    """The one optimum that dominates all others (``"boys"``) or that all
    others dominate (``"girls"``).  The optima form a lattice, so each
    pole exists and is unique; anything else raises ContractViolation."""
    if side == "boys":
        poles = [m for m in optima if all(dominates(m, other, inst) for other in optima)]
    else:
        poles = [m for m in optima if all(dominates(other, m, inst) for other in optima)]
    if len(poles) != 1:
        raise ContractViolation(f"expected one {side[:-1]}-optimal optimum, found {len(poles)}")
    return poles[0]


def all_ideal_cuts(g: WeightedDag) -> list[frozenset[int]]:
    """Every ideal cut's source side, by brute force over all vertex
    subsets, ordered by size then lexicographically.  Refuses more than 20
    vertices."""
    n = g.num_vertices
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(
            f"oracle refuses graphs larger than {MAX_ORACLE_VERTICES} vertices"
        )
    middle = [v for v in range(n) if v not in (g.source, g.sink)]
    cuts = []
    for size in range(len(middle) + 1):
        for chosen in combinations(middle, size):
            side = frozenset(chosen) | {g.source}
            if any(e.head in side and e.tail not in side for e in g.edges):
                continue
            cuts.append(side)
    # combinations() yields each size's subsets of the sorted middle in
    # lexicographic order, and the source joins every side, so the list
    # is already in (size, sorted side) order.
    return cuts


def heaviest_ideal_cuts(g: WeightedDag) -> tuple[list[frozenset[int]], int]:
    """Every maximum-weight ideal cut, in ``all_ideal_cuts`` order, plus
    the maximum weight."""
    weighed = [(cut_weight(g, c), c) for c in all_ideal_cuts(g)]
    best = max(wt for wt, _ in weighed)
    return [c for wt, c in weighed if wt == best], best

