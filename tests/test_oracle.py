"""Self-checks for the brute-force reference implementations."""

from __future__ import annotations

import random

import pytest

from conftest import (
    branch_four,
    diamond_dag,
    identity_three,
    path_dag,
    random_dag,
    random_instance,
    random_weights,
    single_weights,
    tie_weights,
    two_by_two,
)
from stablecut import (
    ContractViolation,
    Edge,
    WeightedDag,
    WeightFunction,
    all_ideal_cuts,
    all_stable_matchings,
    brute_max_weight_matching,
    build_poset,
    check_ideal_cut,
    closed_set_to_matching,
    dominates,
    is_stable,
    matching_weight,
    max_weight_ideal_cut,
)
from stablecut.oracle import _optimal_pole, heaviest_ideal_cuts, heaviest_stable_matchings


def test_all_stable_matchings_two_by_two():
    found = all_stable_matchings(two_by_two())
    assert [m.partner_of_boy for m in found] == [(0, 1), (1, 0)]


def test_all_stable_matchings_identity_three():
    found = all_stable_matchings(identity_three())
    assert [m.partner_of_boy for m in found] == [(0, 1, 2)]


def test_oracle_refuses_large_instances():
    rng = random.Random(0)
    inst = random_instance(rng, 9)
    with pytest.raises(ValueError, match="refuses"):
        all_stable_matchings(inst)


def test_brute_matching_unique_optimum():
    m, weight = brute_max_weight_matching(two_by_two(), single_weights())
    assert (m.partner_of_boy, weight) == ((0, 1), 1)


def test_brute_matching_tie_prefers_the_dominant_optimum():
    m, weight = brute_max_weight_matching(two_by_two(), WeightFunction.zero(2))
    assert (m.partner_of_boy, weight) == ((0, 1), 0)


def test_heaviest_stable_matchings_lists_the_tie_in_oracle_order():
    optima, weight = heaviest_stable_matchings(two_by_two(), tie_weights())
    assert ([m.partner_of_boy for m in optima], weight) == ([(0, 1), (1, 0)], 4)
    stable = all_stable_matchings(two_by_two())
    assert heaviest_stable_matchings(two_by_two(), single_weights(), stable) == ([stable[0]], 1)


def test_oracle_poles_refuse_incomparable_optima():
    # Closed sets {0, 1} and {0, 2} of branch_four's poset: two stable
    # matchings neither of which dominates the other.  Real optima form a
    # lattice with one pole on each side, so this can only be a broken
    # referee input and must not fall back to either matching.
    inst = branch_four()
    poset = build_poset(inst)
    pair = [closed_set_to_matching(poset, frozenset(c)) for c in ({0, 1}, {0, 2})]
    assert not dominates(*pair, inst) and not dominates(*reversed(pair), inst)
    with pytest.raises(ContractViolation, match="expected one boy-optimal optimum, found 0"):
        brute_max_weight_matching(inst, WeightFunction.zero(4), pair)
    with pytest.raises(ContractViolation, match="expected one girl-optimal optimum, found 0"):
        _optimal_pole(pair, inst, "girls")


def test_brute_matching_accepts_precomputed_stable_set():
    inst = two_by_two()
    stable = all_stable_matchings(inst)
    m, weight = brute_max_weight_matching(inst, single_weights(), stable)
    assert (m.partner_of_boy, weight) == ((0, 1), 1)


def test_all_ideal_cuts_path_dag():
    sides = all_ideal_cuts(path_dag())
    assert sides == [frozenset({0}), frozenset({0, 1})]


def test_all_ideal_cuts_diamond():
    sides = all_ideal_cuts(diamond_dag())
    assert sides == [
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    ]


def test_all_ideal_cuts_single_edge():
    g = WeightedDag(2, 0, 1, (Edge(0, 1, -3),))
    assert all_ideal_cuts(g) == [frozenset({0})]


def test_oracle_refuses_large_graphs():
    g = WeightedDag(21, 0, 20, tuple(Edge(i, i + 1, 0) for i in range(20)))
    with pytest.raises(ValueError, match="refuses"):
        all_ideal_cuts(g)


def test_brute_cut_fixtures():
    for g, first, weight in (
        (path_dag(), frozenset({0}), 5),
        (diamond_dag(), frozenset({0, 1}), 7),
    ):
        cuts, best = heaviest_ideal_cuts(g)
        assert (cuts[0], best) == (first, weight)
        assert cuts[-1] == max_weight_ideal_cut(g)[0]


def test_brute_cut_single_negative_edge():
    g = WeightedDag(2, 0, 1, (Edge(0, 1, -3),))
    assert heaviest_ideal_cuts(g) == ([frozenset({0})], -3)


def test_brute_cut_tie_prefers_small_source_side():
    """The heaviest cuts are listed from the smallest source side; the
    flow path takes the last, the largest."""
    g = WeightedDag(3, 0, 2, (Edge(0, 1, 2), Edge(1, 2, 2)))
    cuts, weight = heaviest_ideal_cuts(g)
    assert (cuts, weight) == ([frozenset({0}), frozenset({0, 1})], 2)
    assert max_weight_ideal_cut(g) == (cuts[-1], weight)


def test_oracle_matchings_are_stable():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 6))
        for m in all_stable_matchings(inst):
            assert is_stable(inst, m)


def test_oracle_cuts_are_ideal():
    rng = random.Random(32)
    for _ in range(40):
        g = random_dag(rng, max_vertices=9)
        # The same graph with its vertices renumbered, poles anywhere.
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        edges = tuple(Edge(perm[e.tail], perm[e.head], e.weight) for e in g.edges)
        for h in (g, WeightedDag(g.num_vertices, perm[g.source], perm[g.sink], edges)):
            cuts = all_ideal_cuts(h)
            for cut in cuts:
                check_ideal_cut(h, cut)
            # Listed by source-side size, then lexicographically.
            keys = [(len(c), sorted(c)) for c in cuts]
            assert keys == sorted(keys)


def test_brute_matching_weight_is_an_upper_bound():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(1, 6)
        inst = random_instance(rng, n)
        w = random_weights(rng, n)
        _, best = brute_max_weight_matching(inst, w)
        for m in all_stable_matchings(inst):
            assert matching_weight(m, w) <= best
