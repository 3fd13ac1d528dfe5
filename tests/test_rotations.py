"""Rotation discovery, elimination, the precedence poset, and closed sets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import (
    branch_four,
    family_instance,
    identity_three,
    instances,
    random_instance,
    two_by_two,
)
from stablecut import (
    ContractViolation,
    Instance,
    Matching,
    all_stable_matchings,
    build_poset,
    closed_set_to_matching,
    dominates,
    enumerate_rotations,
    gale_shapley,
    is_stable,
    rotation_count_limit,
    rotations,
)
from stablecut.ideals import iter_ideals

SWAP = ((0, 0), (1, 1))  # the single rotation of two_by_two
Cycle = tuple[tuple[int, int], ...]
BRANCH_FOUR_ROTATIONS = [((0, 3), (1, 2)), ((0, 2), (3, 0)), ((1, 3), (2, 1))]


def test_exposed_in_boy_optimal():
    assert exposed_rotations(two_by_two(), Matching((0, 1))) == [SWAP]


def test_girl_optimal_exposes_nothing():
    assert exposed_rotations(two_by_two(), Matching((1, 0))) == []


def test_unique_matching_exposes_nothing():
    assert exposed_rotations(identity_three(), Matching((0, 1, 2))) == []


def test_eliminate_swaps_the_couples():
    after = eliminate(two_by_two(), Matching((0, 1)), SWAP)
    assert after.partner_of_boy == (1, 0)


def test_eliminate_rejects_unexposed_rotation():
    with pytest.raises(ContractViolation, match="not matched here"):
        eliminate(two_by_two(), Matching((1, 0)), SWAP)


def test_eliminate_rejects_wrong_cycle():
    # Pairs are matched but the successor structure does not close.
    rho = ((0, 3), (2, 1))
    inst = branch_four()
    with pytest.raises(ContractViolation, match="not exposed"):
        eliminate(inst, gale_shapley(inst, "boys"), rho)


def test_enumerate_rotations_two_by_two():
    assert enumerate_rotations(two_by_two()) == [SWAP]


def test_walk_needs_a_successor_girl_away_from_the_girl_optimum(monkeypatch):
    monkeypatch.setattr(rotations._ChainWalk, "successor_girl", lambda walk, b: -1)
    with pytest.raises(ContractViolation, match="boy 1 is not girl-optimal but has no successor"):
        enumerate_rotations(two_by_two())


def test_enumerate_rotations_identity_three():
    assert enumerate_rotations(identity_three()) == []


def test_rotation_count_limit_values():
    assert rotation_count_limit(1) == 0
    assert rotation_count_limit(4) == 6


@pytest.mark.parametrize("n", [8, 16])
def test_relabelled_doubling_meets_the_rotation_bound(n):
    inst = family_instance("doubling", n)
    assert len(enumerate_rotations(inst)) == rotation_count_limit(n)


def exposed_rotations(inst: Instance, m: Matching) -> list[Cycle]:
    """Rotations exposed in the stable matching m, from the definition and
    the rank tables alone.  A boy's successor girl is the first girl below
    his partner who prefers him to her own partner; the boys on a cycle
    of "the partner of my successor girl" form an exposed rotation.  Each
    cycle starts at its smallest boy, and cycles come by smallest boy.
    Empty exactly when m is the girl-optimal matching."""
    boy_rank, girl_rank = inst.boy_rank, inst.girl_rank
    partner, girl_partner = m.partner_of_boy, m.partner_of_girl
    nxt = {}
    for b, g_b in enumerate(partner):
        for g in inst.boy_prefs[b][boy_rank[b][g_b] + 1 :]:
            if girl_rank[g][b] < girl_rank[g][girl_partner[g]]:
                nxt[b] = girl_partner[g]
                break
    cycles = []
    visited: set[int] = set()
    for b in nxt:
        path = []
        while b in nxt and b not in visited:
            visited.add(b)
            path.append(b)
            b = nxt[b]
        if b in path:  # this walk closed a cycle
            cycle = path[path.index(b) :]
            pivot = cycle.index(min(cycle))
            cycles.append(tuple((x, partner[x]) for x in cycle[pivot:] + cycle[:pivot]))
    return sorted(cycles)


def eliminate(inst: Instance, m: Matching, rho: Cycle) -> Matching:
    """Apply one exposed rotation.  Boys in the cycle move down their lists,
    the affected girls move up; raises ContractViolation when rho is not
    exposed in m."""
    walk = rotations._ChainWalk(inst, m)
    walk.apply_cycle(rho)
    return walk.matching()


def rescan_rotations(inst) -> set[Cycle]:
    """The rotations of a referee that lists the exposed rotations afresh
    at every step and eliminates the one with the smallest boy, down to
    the girl-optimal matching."""
    current = gale_shapley(inst, "boys")
    found: set[Cycle] = set()
    while exposed := exposed_rotations(inst, current):
        found.update(exposed)
        current = eliminate(inst, current, exposed[0])
    return found


def assert_elimination_order(inst, order: list[Cycle]) -> None:
    """Each rotation of ``order`` is exposed when its turn comes, and the
    last leaves the girl-optimal matching: the ids are a linear extension
    of the rotation poset."""
    current = gale_shapley(inst, "boys")
    for rho in order:
        assert rho in exposed_rotations(inst, current)
        current = eliminate(inst, current, rho)
    assert current == gale_shapley(inst, "girls")


def assert_matches_the_referee(inst) -> None:
    found = enumerate_rotations(inst)
    assert set(found) == rescan_rotations(inst)
    assert_elimination_order(inst, found)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_doubling_rotations_match_the_rescan_referee(n):
    for seed in (None, 1, 2):
        assert_matches_the_referee(family_instance("doubling", n, seed))


def test_cyclic_rotations_match_the_rescan_referee():
    for n in range(3, 65):
        assert_matches_the_referee(family_instance("cyclic", n))


def test_random_rotations_match_the_rescan_referee():
    rng = random.Random(14)
    for max_n in [12] * 2000 + [60] * 40:
        assert_matches_the_referee(random_instance(rng, rng.randint(1, max_n)))


@pytest.fixture
def successor_probes(monkeypatch):
    """Count the successor probes of one enumerate_rotations call."""
    counts: list[int] = []
    real = rotations._ChainWalk.successor_girl

    def counted(self, b):
        counts[-1] += 1
        return real(self, b)

    def run(inst) -> int:
        counts.append(0)
        enumerate_rotations(inst)
        return counts[-1]

    monkeypatch.setattr(rotations._ChainWalk, "successor_girl", counted)
    return run


# Measured when the rescan walk gave way to the persistent stack walk.
# Cyclic shifts eliminate n - 1 rotations of n boys, each walk starting
# afresh from boy 1, so they probe 2n(n - 1): n(n - 1) in the walk,
# n(n - 1) in the exposure checks, plus n - 1 rotations less n - 1 walks.
# A change here is a finding about the walk, not a pin to move.
SEEDED_PROBES = {
    ("doubling", 8): 128,
    ("doubling", 16): 568,
    ("doubling", 32): 2400,
    ("doubling", 64): 9888,
    ("doubling", 128): 40192,
    ("cyclic", 25): 1200,
    ("cyclic", 64): 8064,
}


def test_successor_probes_on_seeded_families(successor_probes):
    found = {key: successor_probes(family_instance(*key)) for key in SEEDED_PROBES}
    assert found == SEEDED_PROBES
    for (family, n), probes in found.items():
        rots = enumerate_rotations(family_instance(family, n))
        # Every push is popped by one elimination, whose exposure check
        # probes each boy again: 2 probes per rotation pair, one per
        # rotation, less one per walk started.  Pairs lie in at most one
        # rotation and the n girl-optimal pairs in none.
        assert probes <= 2 * sum(map(len, rots)) + len(rots) <= 5 * n * (n - 1) // 2


def test_branch_four_rotations_and_edges():
    poset = build_poset(branch_four())
    assert list(poset.rotations) == BRANCH_FOUR_ROTATIONS
    assert sorted(poset.edges) == [(0, 1), (0, 2)]
    assert poset.preds == (frozenset(), frozenset({0}), frozenset({0}))


def arcs_by_pairs(poset) -> set[tuple[Cycle, Cycle]]:
    return {(poset.rotations[a], poset.rotations[b]) for a, b in poset.edges}


def test_build_poset_arcs_do_not_follow_the_rotation_ids(shuffled_rotation_ids):
    """Fed the rotations in another linear extension, build_poset gives
    the same arcs once they are named by their rotations' pairs: each
    pair has one maker and one breaker, and each girl meets her stable
    partners in one order along every maximal chain."""
    rng = random.Random(18)
    corpus = [random_instance(rng, rng.randint(3, 40)) for _ in range(300)]
    corpus += [family_instance("cyclic", n) for n in range(3, 13)]
    corpus += [family_instance("doubling", n, seed) for n in (4, 8, 16) for seed in (1, 2)]
    posets = [build_poset(inst) for inst in corpus]
    shuffled_rotation_ids(18)
    moved = 0
    for inst, poset in zip(corpus, posets):
        shuffled = build_poset(inst)
        assert arcs_by_pairs(shuffled) == arcs_by_pairs(poset)
        moved += shuffled.rotations != poset.rotations
    # Chains (cyclic shifts, most small random posets) have one order.
    assert (moved, len(corpus)) == (79, 316)


def test_build_poset_rejects_arcs_against_rotation_ids(reversed_rotation_ids):
    # Reversed, branch_four's rotations leave the elimination chain: the
    # first one replayed breaks a pair its boy does not hold yet.
    with pytest.raises(
        ContractViolation,
        match="rotation 0 moves boy 2 from girl 4, but his partner is girl 3",
    ):
        build_poset(branch_four())


def test_build_poset_rejects_hand_off_arcs_against_rotation_ids(monkeypatch):
    # A replay that swaps maker and breaker on every hand-off turns
    # branch_four's arcs (0, 1) and (0, 2) into (1, 0) and (2, 0), acyclic
    # but against increasing id.
    real = rotations._replay

    def swapped(rots, m0):
        for b, g, maker, breaker in real(rots, m0):
            if maker >= 0 and breaker >= 0:
                maker, breaker = breaker, maker
            yield b, g, maker, breaker

    monkeypatch.setattr(rotations, "_replay", swapped)
    with pytest.raises(
        ContractViolation, match=r"precedence arc \((1|2), 0\) does not follow rotation ids"
    ):
        build_poset(branch_four())


def test_build_poset_rejects_a_rotation_that_lowers_a_girl(monkeypatch):
    # Boys 1 and 2 swapping partners in identity_three hands girl 1 the
    # boy she ranks below the one she leaves.
    swap = ((0, 0), (1, 1))
    monkeypatch.setattr(rotations, "enumerate_rotations", lambda inst: [swap])
    with pytest.raises(ContractViolation, match="girl 1 does not rise to her next partner"):
        build_poset(identity_three())


def test_poset_two_by_two_has_no_edges():
    poset = build_poset(two_by_two())
    assert len(poset.rotations) == 1
    assert poset.edges == frozenset()


def test_poset_identity_three_is_empty():
    poset = build_poset(identity_three())
    assert poset.rotations == ()
    assert poset.edges == frozenset()


def test_is_closed():
    poset = build_poset(branch_four())
    assert poset.is_closed(frozenset())
    assert poset.is_closed(frozenset({0, 2}))
    assert not poset.is_closed(frozenset({1}))


def test_closed_set_to_matching_branch_four():
    inst = branch_four()
    poset = build_poset(inst)
    expected = {
        frozenset(): (3, 2, 1, 0),
        frozenset({0}): (2, 3, 1, 0),
        frozenset({0, 1}): (0, 3, 1, 2),
        frozenset({0, 2}): (2, 1, 3, 0),
        frozenset({0, 1, 2}): (0, 1, 3, 2),
    }
    for closed, partners in expected.items():
        assert closed_set_to_matching(poset, closed).partner_of_boy == partners


def test_closed_set_to_matching_rejects_open_set():
    inst = branch_four()
    poset = build_poset(inst)
    with pytest.raises(ContractViolation, match="not predecessor-closed"):
        closed_set_to_matching(poset, {1})


def test_closed_set_to_matching_rejects_bad_id():
    inst = two_by_two()
    poset = build_poset(inst)
    with pytest.raises(ValueError, match="out of range"):
        closed_set_to_matching(poset, {7})


def closed_sets(poset):
    return list(iter_ideals(len(poset.rotations), poset.preds))


def test_all_closed_sets_two_by_two():
    assert closed_sets(build_poset(two_by_two())) == [frozenset(), frozenset({0})]


def test_all_closed_sets_branch_four_order():
    assert closed_sets(build_poset(branch_four())) == [
        frozenset(),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    ]


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6))
def test_closed_sets_biject_with_stable_matchings(inst):
    """Every predecessor-closed rotation set generates a distinct stable
    matching and together they generate all of them."""
    poset = build_poset(inst)
    sets = closed_sets(poset)
    generated = {
        closed_set_to_matching(poset, c).partner_of_boy for c in sets
    }
    oracle = {m.partner_of_boy for m in all_stable_matchings(inst)}
    assert len(generated) == len(sets)
    assert generated == oracle


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6))
def test_elimination_chain_walks_the_whole_lattice(inst):
    """Repeatedly eliminating an exposed rotation moves girl-ward through
    stable matchings and ends at the girl-optimal one."""
    current = gale_shapley(inst, "boys")
    bottom = gale_shapley(inst, "girls")
    girl_rank = inst.girl_rank
    boy_rank = inst.boy_rank
    steps = 0
    while True:
        exposed = exposed_rotations(inst, current)
        if not exposed:
            break
        after = eliminate(inst, current, exposed[0])
        assert is_stable(inst, after)
        assert dominates(current, after, inst)
        for g in range(inst.n):
            assert (
                girl_rank[g][after.partner_of_girl[g]]
                <= girl_rank[g][current.partner_of_girl[g]]
            )
        for b in range(inst.n):
            assert (
                boy_rank[b][after.partner_of_boy[b]]
                >= boy_rank[b][current.partner_of_boy[b]]
            )
        current = after
        steps += 1
        assert steps <= rotation_count_limit(inst.n)
    assert current == bottom


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6))
def test_rotation_count_within_bound(inst):
    assert len(enumerate_rotations(inst)) <= rotation_count_limit(inst.n)


@settings(max_examples=40, deadline=None)
@given(instances(max_n=6))
def test_simultaneously_exposed_rotations_are_disjoint(inst):
    current = gale_shapley(inst, "boys")
    exposed = exposed_rotations(inst, current)
    seen: set[int] = set()
    for rho in exposed:
        boys = {b for b, _ in rho}
        assert not (seen & boys)
        seen |= boys
