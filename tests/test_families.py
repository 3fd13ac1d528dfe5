"""The solver against brute force on the adversarial instance families.

Random instances have few rotations and hide the flow's work.  The cyclic
shift (n-1 rotations of size n) and the doubling family (n(n-1)/2
rotations, exponentially many stable matchings) come from the benchmark's
generators in ``bench/families.py``, relabelled by a seeded permutation so
that vertex ids carry no structure.
"""

import random

import pytest

import families
from conftest import family_instance, max_cut_sides, pair_edges
from stablecut import (
    WeightFunction,
    all_ideal_cuts,
    all_stable_matchings,
    boy_optimal_max,
    brute_max_weight_matching,
    build_poset,
    build_reduction,
    condense,
    cut_weight,
    dominates,
    enumerate_max_matchings,
    matching_weight,
    meta_rotation_poset,
    min_flow,
    solve_max_weight,
)
from stablecut.oracle import MAX_ORACLE_VERTICES

CASES = [("cyclic", n) for n in range(3, 9)] + [("doubling", n) for n in (2, 4, 8)]
CAP = 100_000


def _weight_tables(n: int) -> list[WeightFunction]:
    """A wide table, a coarse one where optima tie, and all zeros, where
    every stable matching is optimal."""
    rng = random.Random(1000 + n)
    tables = [families.random_weights(rng, n, lo, hi, 0) for lo, hi in ((-9, 9), (-1, 1))]
    tables.append(families.zero_weights(n))
    return [WeightFunction(tuple(map(tuple, t))) for t in tables]


@pytest.mark.parametrize("family,n", CASES)
def test_solver_matches_the_oracle_on_adversarial_families(family, n):
    inst = family_instance(family, n)
    assert all(a < b for a, b in build_poset(inst).edges)
    stable = all_stable_matchings(inst)
    for w in _weight_tables(n):
        boy_pole, best = brute_max_weight_matching(inst, w, stable)
        optima = [m for m in stable if matching_weight(m, w) == best]
        girl_pole = next(m for m in optima if all(dominates(o, m, inst) for o in optima))

        m, weight = solve_max_weight(inst, w)
        assert (weight, m) == (best, girl_pole)
        p = meta_rotation_poset(inst, w)
        assert boy_optimal_max(p) == boy_pole
        listed, truncated = enumerate_max_matchings(p, CAP)
        assert not truncated
        assert sorted(x.partner_of_boy for x in listed) == [x.partner_of_boy for x in optima]


@pytest.mark.parametrize("family,n", CASES)
def test_min_flow_matches_brute_force_cuts_on_adversarial_families(family, n):
    inst = family_instance(family, n)
    for w in _weight_tables(n):
        art = build_reduction(build_poset(inst), w)
        pair_edges(art)  # one edge per varying pair, none sharing its ends
        g = art.dag
        if g.num_vertices > MAX_ORACLE_VERTICES:
            continue
        cuts = all_ideal_cuts(g)
        best = max(cut_weight(g, c) for c in cuts)
        f = min_flow(g)
        assert f.value == best
        listed = list(max_cut_sides(condense(g, f)))
        assert len(set(listed)) == len(listed)
        assert set(listed) == {c for c in cuts if cut_weight(g, c) == best}
