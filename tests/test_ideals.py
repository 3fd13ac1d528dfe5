"""Direct checks for the order-ideal enumerator.

The referee below is the level-by-level enumerator ``iter_ideals`` used
before it built each ideal once from its parent: it grows every ideal of
a size level by every addable element, dedups the results in a set and
sorts the whole level before yielding it.  It is kept here only to
cross-check the sequence ``iter_ideals`` yields, on its own and under
``enumerate_max_matchings`` and the cut listings the tests build on it.
"""

from __future__ import annotations

import random
import tracemalloc
from collections.abc import Sequence
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from conftest import family_instance, ideal_cuts, max_cut_sides
from stablecut import (
    Edge,
    WeightedDag,
    WeightFunction,
    build_poset,
    build_reduction,
    closed_subset_to_max_matching,
    condense,
    enumerate_max_matchings,
    meta_rotation_poset,
    min_flow,
)
from stablecut.ideals import _preds_from_edges, iter_ideals

CAP = 2000
FAMILIES = [("doubling", 8), ("doubling", 16), ("cyclic", 9), ("cyclic", 25)]


def referee_ideals(count, preds):
    """Every ideal by size then lexicographic, one whole level at a time."""
    level = {frozenset()}
    while level:
        for ideal in sorted(level, key=lambda c: tuple(sorted(c))):
            yield ideal
        grown = set()
        for ideal in level:
            for element in range(count):
                if element not in ideal and preds[element] <= ideal:
                    grown.add(ideal | {element})
        level = grown


def referee_proper(count, preds, cap):
    """The referee's first ``cap + 1`` ideals other than the empty and the
    full set: one more than a capped enumerator lists."""
    full = frozenset(range(count))
    proper = (c for c in referee_ideals(count, preds) if c and c != full)
    return list(islice(proper, cap + 1))


class CountingPreds(Sequence):
    """Predecessor sets that count how often they are looked up."""

    def __init__(self, preds):
        self.preds = preds
        self.lookups = 0

    def __len__(self):
        return len(self.preds)

    def __getitem__(self, i):
        self.lookups += 1
        return self.preds[i]


def test_empty_poset_yields_only_the_empty_set():
    assert list(iter_ideals([])) == [frozenset()]


def test_chain_yields_exactly_the_prefixes():
    preds = [frozenset(), frozenset({0}), frozenset({1})]
    assert list(iter_ideals(preds)) == [
        frozenset(),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    ]


def test_antichain_yields_every_subset():
    preds = [frozenset()] * 3
    ideals = list(iter_ideals(preds))
    assert len(ideals) == 8
    assert len(set(ideals)) == 8


def test_vee_shape_order_and_content():
    # 0 and 1 are minimal, 2 needs both
    preds = [frozenset(), frozenset(), frozenset({0, 1})]
    assert list(iter_ideals(preds)) == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    ]


def test_prefix_consumption_stops_early():
    preds = [frozenset()] * 12
    first = list(islice(iter_ideals(preds), 5))
    assert first[0] == frozenset()
    assert all(len(c) <= 2 for c in first)


def test_first_size_two_ideal_streams_out_of_a_wide_antichain():
    # The referee builds all ~2 million size-2 subsets (about 4 million
    # lookups) before yielding the first; building each ideal from its
    # parent and yielding it at once needs one pass per level.
    preds = CountingPreds([frozenset()] * 2000)
    first = next(c for c in iter_ideals(preds) if len(c) == 2)
    assert first == frozenset({0, 1})
    assert preds.lookups < 10_000


def test_a_wide_antichain_shares_its_candidate_lists():
    # A child that gains no candidates shares its parent's list.  Copying
    # the rest of the list for every child instead peaked at 238 MB over
    # these 30 000 ideals, where sharing peaks at 9 MB.
    tracemalloc.start()
    try:
        assert sum(1 for _ in islice(iter_ideals([frozenset()] * 2000), 30_000)) == 30_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize(
    "preds",
    [[frozenset({0})], [frozenset({1}), frozenset()], [frozenset(), frozenset({-1})]],
)
def test_rejects_a_predecessor_without_a_smaller_id(preds):
    with pytest.raises(ValueError, match="is not smaller"):
        list(iter_ideals(preds))


def test_iterate_ideal_cuts_rejects_an_edge_to_a_lower_id():
    # A valid DAG (0 -> 2 -> 1 -> 3) whose edge 2 -> 1 runs downwards.
    g = WeightedDag(4, 0, 3, (Edge(0, 2, 1), Edge(2, 1, 1), Edge(1, 3, 1)))
    with pytest.raises(ValueError, match="element 1 has predecessor 2"):
        list(ideal_cuts(g))


@st.composite
def random_posets(draw):
    count = draw(st.integers(0, 7))
    preds = []
    for i in range(count):
        below = draw(st.frozensets(st.integers(0, i - 1))) if i else frozenset()
        preds.append(below)
    return count, preds


@given(random_posets())
def test_yields_exactly_the_closed_subsets(poset):
    count, preds = poset
    ideals = list(iter_ideals(preds))

    def closed(subset):
        return all(preds[e] <= subset for e in subset)

    expected = {
        frozenset(c)
        for mask in range(1 << count)
        for c in [[i for i in range(count) if mask >> i & 1]]
        if closed(frozenset(c))
    }
    assert set(ideals) == expected
    assert len(ideals) == len(expected)
    keys = [(len(c), sorted(c)) for c in ideals]
    assert keys == sorted(keys)
    assert ideals == list(referee_ideals(count, preds))


def test_matches_the_referee_on_seeded_random_posets():
    rng = random.Random(13)
    for _ in range(2500):
        count = rng.randint(0, 9)
        density = rng.random()
        preds = [
            frozenset(j for j in range(i) if rng.random() < density) for i in range(count)
        ]
        assert list(iter_ideals(preds)) == list(referee_ideals(count, preds))


@pytest.mark.parametrize("family,n", FAMILIES)
def test_all_closed_sets_match_the_referee(family, n):
    poset = build_poset(family_instance(family, n))
    count = len(poset.rotations)
    assert list(islice(iter_ideals(poset.preds), CAP + 1)) == list(
        islice(referee_ideals(count, poset.preds), CAP + 1)
    )


@pytest.mark.parametrize("family,n", FAMILIES)
def test_zero_weight_max_matchings_match_the_referee(family, n):
    p = meta_rotation_poset(family_instance(family, n), WeightFunction.zero(n))
    matchings, truncated = enumerate_max_matchings(p, CAP)
    expected = referee_proper(len(p.rotation_sets), p.preds, CAP)
    assert [m.partner_of_boy for m in matchings] == [
        closed_subset_to_max_matching(p, c).partner_of_boy for c in expected[:CAP]
    ]
    assert truncated == (len(expected) > CAP)


@pytest.mark.parametrize("family,n", FAMILIES)
def test_max_cuts_and_ideal_cuts_match_the_referee(family, n):
    inst = family_instance(family, n)
    rng = random.Random(n)
    table = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for w in (WeightFunction.zero(n), WeightFunction.from_rows(table)):
        g = build_reduction(build_poset(inst), w).dag
        components, edges = d = condense(g, min_flow(g))
        count = len(components)
        expected = referee_proper(count, _preds_from_edges(count, edges), CAP)
        assert list(islice(max_cut_sides(d), CAP + 1)) == [
            frozenset(v for ci in ideal for v in components[ci]) for ideal in expected
        ]

    preds = _preds_from_edges(g.num_vertices, ((e.tail, e.head) for e in g.edges))
    sides = list(islice(ideal_cuts(g), CAP + 1))
    assert sides == referee_proper(g.num_vertices, preds, CAP)


def counted_preds(preds):
    """Copies of ``preds`` whose subset checks (``<=``) are tallied in the
    returned one-item list."""
    tally = [0]

    class Counted(frozenset):
        def __le__(self, other):
            tally[0] += 1
            return frozenset.__le__(self, other)

    return [Counted(p) for p in preds], tally


def succ_lists(preds):
    succs = [[] for _ in preds]
    for element, below in enumerate(preds):
        for p in below:
            succs[p].append(element)
    return succs


def random_preds(seed, count, density):
    rng = random.Random(seed)
    return [frozenset(j for j in range(i) if rng.random() < density) for i in range(count)]


# Subset checks for the first 5002 ideals, pinned when each ideal began
# carrying its candidates.  Scanning every element above max J checked
# 764 876, 35 798 and 23 128 times on these posets.  A change here is a
# finding about the walk, not a pin to move.
SEEDED_CHECKS = {"doubling-64-meta": 10030, "random-2-200": 12703, "random-4-300": 10186}


def test_subset_checks_on_seeded_posets():
    n = 64
    meta = meta_rotation_poset(family_instance("doubling", n), WeightFunction.zero(n)).preds
    posets = {
        "doubling-64-meta": meta,
        "random-2-200": random_preds(2, 200, 0.02),
        "random-4-300": random_preds(4, 300, 0.01),
    }
    found = {}
    for key, preds in posets.items():
        counted, tally = counted_preds(preds)
        yields = sum(1 for _ in islice(iter_ideals(counted), 5002))
        assert yields == 5002
        found[key] = tally[0]
        # Each ideal checks only the successors of the element it added.
        assert tally[0] <= yields * max(map(len, succ_lists(preds)))
        # Measured on these sparse posets, not proved: the checks per
        # ideal grow with the out-degrees, and a random poset of density
        # 0.1 on 120 elements checks 8.5 times per ideal.
        assert tally[0] <= 3 * yields
    assert found == SEEDED_CHECKS
