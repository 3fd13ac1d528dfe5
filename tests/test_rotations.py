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
    """Rotations exposed in the stable matching m, from a fresh walk.
    Empty exactly when m is the girl-optimal matching."""
    return rotations._ChainWalk(inst, m).exposed_cycles()


def eliminate(inst: Instance, m: Matching, rho: Cycle) -> Matching:
    """Apply one exposed rotation.  Boys in the cycle move down their lists,
    the affected girls move up; raises ContractViolation when rho is not
    exposed in m."""
    walk = rotations._ChainWalk(inst, m)
    walk.apply_cycle(rho)
    return walk.matching()


def rescan_rotations(inst) -> list[Cycle]:
    """The rotation list of a referee that starts a fresh walk for each
    step: after every elimination it lists every exposed rotation again,
    keeps the ones not seen before, and eliminates first-in first-out."""
    current = gale_shapley(inst, "boys")
    order: list[Cycle] = []
    seen: set[Cycle] = set()
    eliminated = 0
    while True:
        for rho in exposed_rotations(inst, current):
            if rho not in seen:
                seen.add(rho)
                order.append(rho)
        if eliminated == len(order):
            return order
        current = eliminate(inst, current, order[eliminated])
        eliminated += 1


def rescan_steps(inst) -> list[list[Cycle]]:
    """Each step of the rescan referee: the exposed rotations it has not
    seen before, in the order it lists them."""
    current = gale_shapley(inst, "boys")
    seen: set[Cycle] = set()
    pending: list[Cycle] = []
    steps = []
    while True:
        new = [rho for rho in exposed_rotations(inst, current) if rho not in seen]
        seen.update(new)
        pending.extend(new)
        steps.append(new)
        if not pending:
            return steps
        current = eliminate(inst, current, pending.pop(0))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_doubling_rotations_match_the_rescan_referee(n):
    for seed in (None, 1, 2):
        inst = family_instance("doubling", n, seed)
        assert enumerate_rotations(inst) == rescan_rotations(inst)


def test_cyclic_rotations_match_the_rescan_referee():
    for n in range(3, 65):
        inst = family_instance("cyclic", n)
        assert enumerate_rotations(inst) == rescan_rotations(inst)


def test_random_rotations_match_the_rescan_referee():
    rng = random.Random(14)
    for max_n in [12] * 2000 + [60] * 40:
        inst = random_instance(rng, rng.randint(1, max_n))
        assert enumerate_rotations(inst) == rescan_rotations(inst)


def test_referee_corpus_tells_walk_order_from_smallest_boy_order():
    """The referee corpus above has steps whose new rotations a walk lists
    in another order than by each rotation's smallest boy: a walk from a
    smaller boy reaches the later one.  So a discovery that sorted each
    step's rotations by their smallest boy would fail the referee tests."""
    corpus = [family_instance("doubling", n, seed) for n in (8, 16, 32, 64) for seed in (None, 1, 2)]
    corpus += [family_instance("cyclic", n) for n in range(3, 65)]
    rng = random.Random(14)
    corpus += [random_instance(rng, rng.randint(1, max_n)) for max_n in [12] * 2000 + [60] * 40]
    steps = [step for inst in corpus for step in rescan_steps(inst) if len(step) >= 2]
    reordered = [step for step in steps if step != sorted(step, key=lambda pairs: pairs[0][0])]
    assert (len(reordered), len(steps)) == (35, 4081)


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


# Measured when the walk began re-probing only the boys an elimination
# touches: the eliminated rotation's boys and the boys whose successor
# girl it moved.  On doubling n = 8..128 the rescan that probed every
# boy at every step made 288, 2176, 16896 and 133120 probes up to n=64,
# and the walk that skipped only reported boys 168, 764, 3392, 15236 and
# 65996.  Cyclic shifts move every boy at every step, so their counts
# did not change.  A change here is a finding about the walk, not a pin
# to move.
SEEDED_PROBES = {
    ("doubling", 8): 144,
    ("doubling", 16): 608,
    ("doubling", 32): 2496,
    ("doubling", 64): 10112,
    ("doubling", 128): 40704,
    ("cyclic", 25): 1225,
    ("cyclic", 64): 8128,
}


def test_successor_probes_on_seeded_families(successor_probes):
    found = {key: successor_probes(family_instance(*key)) for key in SEEDED_PROBES}
    assert found == SEEDED_PROBES
    # A gate measured on these families, not a proved O(n^2) bound:
    # doubling n=128 probes about 2.5 n^2 times.
    for (_, n), probes in found.items():
        assert probes <= 4 * n * n


def test_walk_reports_each_rotation_once():
    inst = branch_four()
    first, second, third = BRANCH_FOUR_ROTATIONS
    walk = rotations._ChainWalk(inst, gale_shapley(inst, "boys"))
    assert walk.exposed_cycles() == [first]
    assert walk.exposed_cycles() == []
    walk.apply_cycle(first)
    assert walk.exposed_cycles() == [second, third]
    assert walk.exposed_cycles() == []
    assert exposed_rotations(inst, walk.matching()) == [second, third]


def test_branch_four_rotations_and_edges():
    poset = build_poset(branch_four())
    assert list(poset.rotations) == BRANCH_FOUR_ROTATIONS
    assert sorted(poset.edges) == [(0, 1), (0, 2)]
    assert poset.preds == (frozenset(), frozenset({0}), frozenset({0}))


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
