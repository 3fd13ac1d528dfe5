"""The cut-graph reduction and the end-to-end maximum-weight solver."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings

from conftest import (
    branch_four,
    family_instance,
    identity_three,
    ideal_cuts,
    instances,
    matching_weight_from_cut,
    pair_edges,
    random_instance,
    random_weights,
    single_weights,
    tie_weights,
    two_by_two,
    weighted_instances,
    without_last_rotation,
)
from stablecut import (
    ContractViolation,
    Edge,
    Instance,
    WeightFunction,
    brute_max_weight_matching,
    build_poset,
    build_reduction,
    cut_to_matching,
    cut_weight,
    matching_weight,
    max_weight_ideal_cut,
    preset_egalitarian,
    reduction,
    solve_max_weight,
    validate_dag,
)


def test_reduction_two_by_two_tie():
    inst = two_by_two()
    art = build_reduction(build_poset(inst), tie_weights())
    assert art.dag.num_vertices == 3
    assert (art.dag.source, art.dag.sink) == (0, 2)
    assert art.dag.edges == (Edge(0, 1, 4), Edge(1, 2, 4))
    assert art.base_weight == 0
    assert art.rotations_in(range(3)) == frozenset({0})
    assert pair_edges(art) == {
        (0, 0): Edge(0, 1, 4),
        (1, 1): Edge(0, 1, 4),
        (0, 1): Edge(1, 2, 4),
        (1, 0): Edge(1, 2, 4),
    }


def test_reduction_branch_four():
    inst = branch_four()
    w = WeightFunction.from_rows(
        [[2, -1, 0, 3], [0, 1, 4, -2], [1, 0, 2, 5], [3, 2, -1, 0]]
    )
    art = build_reduction(build_poset(inst), w)
    # The two arcs first, then source edges as the replay meets the
    # boy-optimal pairs, then sink edges by boy.  The cuts {0}, {0,1},
    # {0,1,2}, {0,1,3} and {0,1,2,3} weigh 10, 1, -1, 9 and 7, the
    # weights of the five stable matchings.
    assert art.dag.edges == (
        Edge(1, 2, 0),
        Edge(1, 3, -2),
        Edge(0, 1, 7),
        Edge(0, 2, 3),
        Edge(0, 3, 0),
        Edge(2, 4, 1),
        Edge(3, 4, 6),
    )
    assert art.base_weight == 0
    pairs = pair_edges(art)
    assert pairs[(2, 1)] == Edge(0, 3, 0)
    assert pairs[(3, 0)] == Edge(0, 2, 3)
    validate_dag(art.dag)


def test_build_reduction_names_a_missing_hand_off_arc():
    # Rotation 0 hands boy 1 (0-based 0) to rotation 1 along arc (0, 1).
    poset = build_poset(branch_four())
    broken = dataclasses.replace(poset, edges=poset.edges - {(0, 1)})
    with pytest.raises(
        ContractViolation,
        match="rotation 1 takes boy 1 from rotation 0, but the poset has no arc 0 -> 1",
    ):
        build_reduction(broken, WeightFunction.zero(4))


def test_a_poset_missing_its_last_rotation_does_not_end_girl_optimal():
    insts = [branch_four(), family_instance("doubling", 8), family_instance("cyclic", 7)]
    for inst in insts:
        broken = without_last_rotation(build_poset(inst))
        with pytest.raises(
            ContractViolation, match="^rotations do not end at the girl-optimal matching$"
        ):
            build_reduction(broken, WeightFunction.zero(inst.n))


def test_a_lowered_edge_weight_fails_a_prefix(lowered_edge):
    # Every edge leaves the source or a rotation, so a wrong weight breaks
    # the prefix that adds its tail, and no earlier one: only its tail and
    # its later head weigh differently.
    rng = random.Random(913)
    insts = [branch_four()]
    insts += [family_instance(f, n, seed) for f, n in (("doubling", 8), ("cyclic", 7)) for seed in range(3)]
    insts += [random_instance(rng, n) for n in (5, 6, 7) for _ in range(4)]
    faults = 0
    for inst in insts:
        poset = build_poset(inst)
        w = random_weights(rng, inst.n)
        for index, edge in enumerate(build_reduction(poset, w).dag.edges):
            lowered_edge(index)
            if edge.tail == 0:
                message = "^the cut {source} does not weigh the boy-optimal matching$"
            else:
                message = f"^the cut graph weighs rotation {edge.tail - 1} at "
            with pytest.raises(ContractViolation, match=message):
                build_reduction(poset, w)
            faults += 1
    assert faults > 100


def test_reduction_unique_matching_sentinel():
    inst = identity_three()
    w = preset_egalitarian(inst, "minimize")
    art = build_reduction(build_poset(inst), w)
    assert (art.dag.num_vertices, art.dag.source, art.dag.sink) == (2, 0, 1)
    assert art.dag.edges == (Edge(0, 1, 0),)
    assert art.base_weight == -12
    assert pair_edges(art) == {}


def test_build_reduction_rejects_a_poset_from_another_instance():
    # a has two stable matchings, b only one, weighing 4 under w.  Built
    # on a's rotation, b's cut graph would report an optimum of 8.
    a = Instance(((1, 0), (0, 1)), ((0, 1), (1, 0)))
    b = Instance(((0, 1), (0, 1)), ((0, 1), (1, 0)))
    w = WeightFunction(((6, 3), (-8, -2)))
    with pytest.raises(
        ContractViolation,
        match="rotation 0 moves boy 1 from girl 2, but his partner is girl 1",
    ):
        build_reduction(dataclasses.replace(build_poset(a), inst=b), w)


def test_poset_carries_the_instance_it_was_built_from():
    # a's one rotation replays from b's boy-optimal to its girl-optimal
    # matching, so no replay check rejects it, yet b has two other
    # rotations: a cut graph for b built on a's poset gives an optimum of
    # -6, while b's is -1.
    a = Instance(((2, 1, 0), (2, 0, 1), (0, 2, 1)), ((0, 2, 1), (2, 1, 0), (2, 1, 0)))
    b = Instance(((1, 2, 0), (2, 1, 0), (0, 1, 2)), ((0, 1, 2), (1, 2, 0), (2, 1, 0)))
    w = WeightFunction(((-1, -4, -9), (3, -8, -3), (-7, 3, 3)))
    assert len(build_poset(a).rotations) == 1
    poset = build_poset(b)
    assert poset.inst is b
    art = build_reduction(poset, w)
    _, weight = max_weight_ideal_cut(art.dag)
    assert weight + art.base_weight == brute_max_weight_matching(b, w)[1] == -1


def test_cut_to_matching_two_by_two():
    inst = two_by_two()
    poset = build_poset(inst)
    art = build_reduction(poset, tie_weights())
    top = cut_to_matching(art, frozenset({0}))
    bottom = cut_to_matching(art, frozenset({0, 1}))
    assert top.partner_of_boy == (0, 1)
    assert bottom.partner_of_boy == (1, 0)


def test_cut_to_matching_refuses_a_cut_that_is_not_ideal():
    art = build_reduction(build_poset(two_by_two()), tie_weights())
    with pytest.raises(ContractViolation, match="cut must exclude the sink"):
        cut_to_matching(art, frozenset({0, 1, 2}))


def test_matching_weight_from_cut_two_by_two():
    inst = two_by_two()
    art = build_reduction(build_poset(inst), tie_weights())
    assert matching_weight_from_cut(art, frozenset({0})) == 4
    assert matching_weight_from_cut(art, frozenset({0, 1})) == 4


def test_solve_tie_returns_girl_side_pole():
    m, weight = solve_max_weight(two_by_two(), tie_weights())
    assert weight == 4
    assert m.partner_of_boy == (1, 0)


def test_solve_unique_optimum():
    m, weight = solve_max_weight(two_by_two(), single_weights())
    assert weight == 1
    assert m.partner_of_boy == (0, 1)


def test_solve_unique_stable_matching():
    inst = identity_three()
    m, weight = solve_max_weight(inst, preset_egalitarian(inst, "minimize"))
    assert m.partner_of_boy == (0, 1, 2)
    assert weight == -12


def test_solve_branch_four_frozen():
    inst = branch_four()
    w = WeightFunction.from_rows(
        [[2, -1, 0, 3], [0, 1, 4, -2], [1, 0, 2, 5], [3, 2, -1, 0]]
    )
    m, weight = solve_max_weight(inst, w)
    assert weight == 10
    assert m.partner_of_boy == (3, 2, 1, 0)


def test_a_cut_weight_that_does_not_transport_fails_the_solve(monkeypatch):
    real = reduction.max_weight_ideal_cut

    def heavier(g):
        cut, weight = real(g)
        return cut, weight + 1

    monkeypatch.setattr(reduction, "max_weight_ideal_cut", heavier)
    with pytest.raises(ContractViolation, match="^cut weight does not transport to the matching$"):
        solve_max_weight(two_by_two(), tie_weights())


def test_solve_keeps_decimal_scale():
    w = WeightFunction(((10, 0), (0, 5)), scale=10)  # 1.0 and 0.5
    m, weight = solve_max_weight(two_by_two(), w)
    assert (weight, w.scale) == (15, 10)
    assert m.partner_of_boy == (0, 1)


@settings(max_examples=50, deadline=None)
@given(weighted_instances(max_n=5))
def test_solver_weight_matches_oracle(pair):
    inst, w = pair
    _, expected = brute_max_weight_matching(inst, w)
    m, weight = solve_max_weight(inst, w)
    assert weight == expected
    assert matching_weight(m, w) == expected


@settings(max_examples=40, deadline=None)
@given(instances(min_n=2, max_n=5))
def test_every_cut_transports_weight_and_membership(inst):
    """For every ideal cut of the reduction graph: the selected matching's
    weight equals cut weight plus base, and a varying pair is matched
    exactly when its edge leaves the cut.  Each varying pair has the one
    edge from the rotation that makes it (or the source) to the one that
    breaks it (or the sink), which weighs the total of its pairs; a pair
    handed from one rotation to another travels along their precedence
    arc."""
    rng = random.Random(1234)
    w = random_weights(rng, inst.n)
    poset = build_poset(inst)
    art = build_reduction(poset, w)
    pairs = pair_edges(art)
    carried = {(e.tail, e.head): 0 for e in art.dag.edges}
    for (b, g), edge in pairs.items():
        carried[(edge.tail, edge.head)] += w.table[b][g]
        if edge.tail != art.dag.source and edge.head != art.dag.sink:
            assert (edge.tail - 1, edge.head - 1) in poset.edges
    assert carried == {(e.tail, e.head): e.weight for e in art.dag.edges}
    for side in ideal_cuts(art.dag):
        m = cut_to_matching(art, side)
        assert matching_weight(m, w) == cut_weight(art.dag, side) + art.base_weight
        for (b, g), edge in pairs.items():
            crosses = edge.tail in side and edge.head not in side
            assert crosses == (m.partner_of_boy[b] == g)


def test_solver_agrees_with_oracle_on_seeded_sweep():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(2, 7)
        inst = random_instance(rng, n)
        w = random_weights(rng, n)
        _, expected = brute_max_weight_matching(inst, w)
        _, weight = solve_max_weight(inst, w)
        assert weight == expected
