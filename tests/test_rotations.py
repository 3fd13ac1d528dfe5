"""Rotation discovery, elimination, the precedence poset, and closed sets."""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right

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
    RotationPoset,
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


def hand_offs(order) -> set[tuple[int, int]]:
    """The (maker, breaker) index pairs of every pair that one rotation of
    ``order`` makes and another breaks, read from the rotations' pairs
    alone: a rotation moves each boy from his pair's girl to the next
    pair's girl, so it makes (boy, next girl) and breaks (boy, girl)."""
    maker = {
        (b, g_to): rid
        for rid, rho in enumerate(order)
        for (b, _), (_, g_to) in zip(rho, rho[1:] + rho[:1])
    }
    return {(maker[pair], rid) for rid, rho in enumerate(order) for pair in rho if pair in maker}


def test_exposed_in_boy_optimal():
    assert exposed_rotations(two_by_two(), Matching((0, 1))) == [SWAP]


def test_girl_optimal_exposes_nothing():
    assert exposed_rotations(two_by_two(), Matching((1, 0))) == []


def test_unique_matching_exposes_nothing():
    assert exposed_rotations(identity_three(), Matching((0, 1, 2))) == []


def test_eliminate_swaps_the_couples():
    after = eliminate(two_by_two(), Matching((0, 1)), SWAP)
    assert after.partner_of_boy == (1, 0)
    assert rotations._eliminate(two_by_two(), Matching((0, 1)), [SWAP]) == after


def test_eliminate_rejects_unexposed_rotation():
    with pytest.raises(ContractViolation, match=r"pair \(1, 1\) is not matched here"):
        rotations._eliminate(two_by_two(), Matching((1, 0)), [SWAP])


def test_eliminate_rejects_wrong_cycle():
    # Pairs are matched but the successor structure does not close.
    rho = ((0, 3), (2, 1))
    inst = branch_four()
    with pytest.raises(ContractViolation, match="not exposed: boy 1 does not lead to girl 2"):
        rotations._eliminate(inst, gale_shapley(inst, "boys"), [rho])


def test_closed_set_to_matching_checks_each_rotation_is_exposed():
    # A hand-assembled poset whose one rotation is not exposed in the
    # boy-optimal matching: its pairs are matched, but boy 1's successor
    # girl is girl 3, not girl 2.
    inst = branch_four()
    poset = RotationPoset(inst, (((0, 3), (2, 1)),), frozenset(), (frozenset(),))
    with pytest.raises(ContractViolation, match="not exposed: boy 1 does not lead to girl 2"):
        closed_set_to_matching(poset, {0})


def test_closed_set_to_matching_needs_a_crossing_arc():
    # Rotation 1 moves boy 1 from girl 1 past girl 3 to girl 4.  Girl 3
    # prefers boy 1 to her boy-optimal partner, boy 3, until rotation 0
    # gives her boy 2, whom she ranks first.  So (0, 1) is a crossing
    # arc, and no boy passes from rotation 0 to rotation 1.
    inst = Instance(
        ((0, 2, 3, 1), (1, 2, 3, 0), (2, 0, 3, 1), (3, 2, 0, 1)),
        ((1, 3, 0, 2), (2, 0, 1, 3), (1, 0, 2, 3), (0, 3, 2, 1)),
    )
    poset = build_poset(inst)
    assert poset.rotations == (((1, 1), (2, 2)), ((0, 0), (3, 3)))
    assert poset.edges == {(0, 1)}
    assert all(breaker != 1 for _, breaker in hand_offs(poset.rotations))
    broken = dataclasses.replace(poset, edges=frozenset(), preds=(frozenset(), frozenset()))
    with pytest.raises(
        ContractViolation, match="^rotation is not exposed: boy 1 does not lead to girl 4$"
    ):
        closed_set_to_matching(broken, {1})


def test_enumerate_rotations_two_by_two():
    assert enumerate_rotations(two_by_two()) == [SWAP]


def test_walk_needs_a_successor_girl_away_from_the_girl_optimum():
    # identity_three has one stable matching; told that another is
    # girl-optimal, the walk starts from boy 1 and follows successor girls
    # to boy 3, whom no girl below his partner prefers to her own.
    inst = identity_three()
    top = Matching((0, 1, 2))
    with pytest.raises(ContractViolation, match="boy 3 is not girl-optimal but has no successor"):
        rotations._walk(inst, top, Matching((1, 0, 2)), top)


def boy_optimal_for_both_sides(monkeypatch) -> None:
    """Make every deferred-acceptance run the rotation walk reads return
    the boy-optimal matching, as a girls' run with the sides mixed up
    would."""
    real = rotations.gale_shapley
    monkeypatch.setattr(rotations, "gale_shapley", lambda inst, side="boys": real(inst, "boys"))


def test_end_check_finds_a_rotation_exposed_in_the_last_matching(monkeypatch):
    # Told that branch_four's boy-optimal matching is girl-optimal, the
    # walk eliminates nothing, and the end check finds the rotation
    # ((1,4), (2,3)) exposed there.
    boy_optimal_for_both_sides(monkeypatch)
    for discover in (enumerate_rotations, build_poset):
        with pytest.raises(ContractViolation, match="elimination chain did not end girl-optimal"):
            discover(branch_four())
    # An instance with one stable matching passes it.
    assert enumerate_rotations(identity_three()) == []


def test_walk_rejects_more_rotations_than_the_bound(monkeypatch):
    monkeypatch.setattr(rotations, "rotation_count_limit", lambda n: 0)
    with pytest.raises(ContractViolation, match=r"rotation count exceeds the n\(n-1\)/2 bound"):
        build_poset(two_by_two())


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
    """Apply one rotation that ``exposed_rotations`` finds in m: each boy
    of the cycle moves to the next pair's girl."""
    assert rho in exposed_rotations(inst, m)
    partner = list(m.partner_of_boy)
    for (b, _), (_, g_next) in zip(rho, rho[1:] + rho[:1]):
        partner[b] = g_next
    return Matching(tuple(partner))


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


def successor_probes(inst: Instance) -> int:
    """The successor probes of the walk that enumerate_rotations runs."""
    top = gale_shapley(inst, "boys")
    return rotations._walk(inst, top, gale_shapley(inst, "girls"), top)[2]


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


def test_successor_probes_on_seeded_families():
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


def two_pass_arcs(inst: Instance, order: list[Cycle]) -> set[tuple[Cycle, Cycle]]:
    """The precedence arcs, named by their rotations' pairs, of a referee
    that derives them in two passes over the rotations, taken in
    ``order``, which must be an elimination order.  The rotations' pairs
    give each handed-on pair's maker and breaker (:func:`hand_offs`), and
    the maker precedes the breaker.  Then, in order, each rotation that
    drags a boy past a girl he skips gets an arc from the rotation that
    lifted her across him, looked up in her rises so far; her rises are
    recorded after the rotation's lookups."""
    m0 = gale_shapley(inst, "boys")
    boy_rank, girl_rank = inst.boy_rank, inst.girl_rank
    edges = hand_offs(order)
    # Per girl, her new partners' negated ranks (ascending) and their lifters.
    rises: list[list[int]] = [[] for _ in range(inst.n)]
    lifters: list[list[int]] = [[] for _ in range(inst.n)]
    for rid, rho in enumerate(order):
        r = len(rho)
        for i, (b, g_from) in enumerate(rho):
            g_to = rho[(i + 1) % r][1]
            lo, hi = boy_rank[b][g_from], boy_rank[b][g_to]
            for g in inst.boy_prefs[b][lo + 1 : hi]:
                threshold = girl_rank[g][b]
                if girl_rank[g][m0.partner_of_girl[g]] < threshold:
                    continue
                j = bisect_right(rises[g], -threshold)
                assert j < len(rises[g]), "a girl is skipped before anyone lifts her"
                edges.add((lifters[g][j], rid))
        for i, (b, g) in enumerate(rho):
            rises[g].append(-girl_rank[g][rho[(i - 1) % r][0]])
            lifters[g].append(rid)
    return {(order[a], order[b]) for a, b in edges}


def arc_corpus() -> list[Instance]:
    """316 seeded instances: random n = 3..40, cyclic n = 3..12 and
    relabelled doubling n = 4, 8, 16."""
    rng = random.Random(18)
    corpus = [random_instance(rng, rng.randint(3, 40)) for _ in range(300)]
    corpus += [family_instance("cyclic", n) for n in range(3, 13)]
    corpus += [family_instance("doubling", n, seed) for n in (4, 8, 16) for seed in (1, 2)]
    return corpus


def test_build_poset_arcs_match_the_two_pass_referee():
    for inst in arc_corpus():
        poset = build_poset(inst)
        assert arcs_by_pairs(poset) == two_pass_arcs(inst, list(poset.rotations))


def test_build_poset_arcs_do_not_follow_the_rotation_ids(shuffled_rotation_ids):
    """Fed the rotations in another linear extension, the two-pass
    referee gives the walk's arcs once they are named by their rotations'
    pairs: each pair has one maker and one breaker, and each girl meets
    her stable partners in one order along every maximal chain."""
    corpus = arc_corpus()
    posets = [build_poset(inst) for inst in corpus]
    moved = shuffled_rotation_ids(18)
    for inst, poset in zip(corpus, posets):
        shuffled = build_poset(inst)
        assert set(shuffled.rotations) == set(poset.rotations)
        assert two_pass_arcs(inst, list(shuffled.rotations)) == arcs_by_pairs(poset)
    # Chains (cyclic shifts, most small random posets) have one order.
    assert (sum(moved), len(moved)) == (79, 316)


def test_build_poset_rejects_arcs_against_rotation_ids(reversed_rotation_ids):
    # Reversed, branch_four's arcs (0, 1) and (0, 2) become (2, 1) and
    # (2, 0), acyclic but against increasing id.
    with pytest.raises(
        ContractViolation, match=r"precedence arc \(2, (0|1)\) does not follow rotation ids"
    ):
        build_poset(branch_four())


def test_build_poset_rejects_hand_off_arcs_against_rotation_ids(monkeypatch):
    # A walk that records every hand-off backwards, the breaker before the
    # maker, turns branch_four's arcs (0, 1) and (0, 2) into (1, 0) and
    # (2, 0), acyclic but against increasing id.
    real = rotations._walk

    def swapped(*args):
        found, edges, probes = real(*args)
        return found, {(b, a) for a, b in edges}, probes

    monkeypatch.setattr(rotations, "_walk", swapped)
    with pytest.raises(
        ContractViolation, match=r"precedence arc \((1|2), 0\) does not follow rotation ids"
    ):
        build_poset(branch_four())


def walk_from_floor(monkeypatch, floor: Matching) -> None:
    """Make build_poset's walk record the girls' rises from ``floor``
    instead of the boy-optimal matching."""
    real = rotations._walk
    monkeypatch.setattr(
        rotations, "_walk", lambda inst, top, bottom, _: real(inst, top, bottom, floor)
    )


def test_build_poset_rejects_a_rotation_that_lowers_a_girl(monkeypatch):
    # Rises recorded from two_by_two's girl-optimal matching start with
    # each girl's favourite, so the one rotation lowers both girls, and
    # boy 1 moves to girl 2 first.
    walk_from_floor(monkeypatch, Matching((1, 0)))
    with pytest.raises(ContractViolation, match="girl 2 does not rise to her next partner"):
        build_poset(two_by_two())


def test_build_poset_rejects_a_skipped_girl_nobody_lifted(monkeypatch):
    # Recorded from this floor, girl 4 starts below boy 4, yet he skips
    # her before any rotation has lifted her.
    inst = Instance(
        ((3, 2, 1, 0), (2, 0, 3, 1), (3, 0, 1, 2), (2, 1, 3, 0)),
        ((3, 2, 0, 1), (0, 1, 3, 2), (0, 2, 3, 1), (2, 0, 3, 1)),
    )
    walk_from_floor(monkeypatch, Matching((0, 3, 1, 2)))
    with pytest.raises(
        ContractViolation, match="girl 4 never crosses boy 4 yet a rotation skips her"
    ):
        build_poset(inst)


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
    return list(iter_ideals(poset.preds))


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
