"""The optimal sublattice: meta-rotations, poles, enumeration, bi-objective.

The bi-objective solver runs one cut on lexicographic edge weights.  The
referee below is the route it replaced: w2's cut graph with each of w1's
meta-rotations contracted to one vertex, solved by one more cut.  Both
must return the largest source side among the w2-best cuts inside the
w1 optima, so they agree on the matching and both weights.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import islice

import pytest
from hypothesis import given, settings

from conftest import (
    TWO_BY_TWO_TEXT,
    branch_four,
    family_instance,
    identity_three,
    random_instance,
    random_weights,
    single_weights,
    tie_weights,
    two_by_two,
    weighted_instances,
)
from stablecut import (
    ContractViolation,
    Edge,
    WeightedDag,
    WeightFunction,
    all_stable_matchings,
    boy_optimal_max,
    build_reduction,
    closed_subset_to_max_matching,
    dominates,
    enumerate_max_matchings,
    gale_shapley,
    girl_optimal_max,
    idealcut,
    matching_weight,
    max_weight_ideal_cut,
    meet,
    join,
    meta_rotation_poset,
    rotations,
    solve_bi_objective,
    solve_max_weight,
    sublattice,
)
from stablecut.cli import RunConfig, run
from stablecut.ideals import _proper_ideals

# On branch_four this table gives three optima at weight 5 spanning a
# four-element meta-rotation chain.
BRANCH_TIE_TABLE = ((2, 2, -1, 1), (-4, 3, 1, -2), (-5, 2, -1, -3), (1, -3, 3, -4))


def test_meta_poset_two_by_two_tie():
    p = meta_rotation_poset(two_by_two(), tie_weights())
    assert p.rotation_sets == (frozenset(), frozenset({0}), frozenset())
    assert p.edges == frozenset({(0, 1), (1, 2)})


def test_meta_poset_two_by_two_unique_optimum():
    # The suboptimal rotation is pulled into the sink element.
    p = meta_rotation_poset(two_by_two(), single_weights())
    assert p.rotation_sets == (frozenset(), frozenset({0}))


def test_meta_poset_unique_stable_matching_sentinel():
    p = meta_rotation_poset(identity_three(), WeightFunction.zero(3))
    assert p.rotation_sets == (frozenset(), frozenset())
    assert p.edges == frozenset({(0, 1)})
    assert boy_optimal_max(p).partner_of_boy == (0, 1, 2)
    assert girl_optimal_max(p).partner_of_boy == (0, 1, 2)


def test_meta_poset_branch_four_tie():
    p = meta_rotation_poset(branch_four(), WeightFunction(BRANCH_TIE_TABLE))
    assert p.rotation_sets == (
        frozenset(),
        frozenset({0, 1}),
        frozenset({2}),
        frozenset(),
    )
    # (0, 2) follows from (0, 1) and (1, 2).
    assert sorted(p.edges) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_closed_subset_to_max_matching_two_by_two():
    p = meta_rotation_poset(two_by_two(), tie_weights())
    top = closed_subset_to_max_matching(p, frozenset({0}))
    bottom = closed_subset_to_max_matching(p, frozenset({0, 1}))
    assert top.partner_of_boy == (0, 1)
    assert bottom.partner_of_boy == (1, 0)


def test_closed_subset_guards():
    p = meta_rotation_poset(branch_four(), WeightFunction(BRANCH_TIE_TABLE))
    with pytest.raises(ContractViolation, match="contain the source"):
        closed_subset_to_max_matching(p, frozenset({1}))
    with pytest.raises(ContractViolation, match="not contain the sink"):
        closed_subset_to_max_matching(p, frozenset({0, 3}))
    with pytest.raises(ContractViolation, match="not predecessor-closed"):
        closed_subset_to_max_matching(p, frozenset({0, 2}))
    with pytest.raises(ValueError, match="out of range"):
        closed_subset_to_max_matching(p, frozenset({0, 9}))


def test_meta_poset_carries_the_optimum_weight():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 7)
        inst, w = random_instance(rng, n), random_weights(rng, n)
        p = meta_rotation_poset(inst, w)
        assert p.w is w
        assert p.weight == solve_max_weight(inst, w)[1]
        assert matching_weight(boy_optimal_max(p), w) == p.weight


def test_closed_subset_refuses_a_matching_off_the_optimum(monkeypatch):
    # The one rotation sits in the sink element: eliminating it as well
    # gives the stable matching that misses the optimum.
    p = meta_rotation_poset(two_by_two(), single_weights())
    real = sublattice._elements_to_matching

    def with_sink(q, subset):
        return real(q, subset | {len(q.rotation_sets) - 1})

    monkeypatch.setattr(sublattice, "_elements_to_matching", with_sink)
    with pytest.raises(ContractViolation, match="does not weigh the optimum"):
        boy_optimal_max(p)


def test_poles_two_by_two():
    tie = meta_rotation_poset(two_by_two(), tie_weights())
    assert boy_optimal_max(tie).partner_of_boy == (0, 1)
    assert girl_optimal_max(tie).partner_of_boy == (1, 0)
    unique = meta_rotation_poset(two_by_two(), single_weights())
    assert boy_optimal_max(unique).partner_of_boy == (0, 1)
    assert girl_optimal_max(unique).partner_of_boy == (0, 1)


def test_poles_accept_the_sentinel():
    p = meta_rotation_poset(identity_three(), WeightFunction.zero(3))
    assert boy_optimal_max(p).partner_of_boy == (0, 1, 2)
    assert girl_optimal_max(p).partner_of_boy == (0, 1, 2)


def test_enumerate_two_by_two_tie():
    p = meta_rotation_poset(two_by_two(), tie_weights())
    ms, truncated = enumerate_max_matchings(p, 10)
    assert [m.partner_of_boy for m in ms] == [(0, 1), (1, 0)]
    assert not truncated


def test_enumerate_unique_optimum():
    p = meta_rotation_poset(two_by_two(), single_weights())
    ms, truncated = enumerate_max_matchings(p, 10)
    assert [m.partner_of_boy for m in ms] == [(0, 1)]
    assert not truncated


def test_enumerate_branch_four_tie():
    p = meta_rotation_poset(branch_four(), WeightFunction(BRANCH_TIE_TABLE))
    ms, truncated = enumerate_max_matchings(p, 10)
    assert [m.partner_of_boy for m in ms] == [
        (3, 2, 1, 0),
        (0, 3, 1, 2),
        (0, 1, 3, 2),
    ]
    assert not truncated


def test_enumerate_all_matchings_under_zero_weights():
    p = meta_rotation_poset(branch_four(), WeightFunction.zero(4))
    ms, _ = enumerate_max_matchings(p, 100)
    assert {m.partner_of_boy for m in ms} == {
        m.partner_of_boy for m in all_stable_matchings(branch_four())
    }


def test_enumerate_cap_and_guard():
    p = meta_rotation_poset(two_by_two(), tie_weights())
    ms, truncated = enumerate_max_matchings(p, 1)
    assert len(ms) == 1
    assert truncated
    with pytest.raises(ValueError, match="cap"):
        enumerate_max_matchings(p, 0)


def test_enumerate_rejects_a_repeated_matching(monkeypatch):
    p = meta_rotation_poset(branch_four(), WeightFunction(BRANCH_TIE_TABLE))
    fixed = boy_optimal_max(p)
    monkeypatch.setattr("stablecut.sublattice._elements_to_matching", lambda p, subset: fixed)
    with pytest.raises(ContractViolation, match="same matching"):
        enumerate_max_matchings(p, 10)


@pytest.mark.parametrize(
    ("twice", "message"),
    [
        (True, "a rotation appears in two meta-rotations"),
        (False, "meta-rotations do not cover every rotation"),
    ],
)
def test_meta_poset_rejects_components_that_do_not_partition_the_rotations(
    monkeypatch, tmp_path, twice, message
):
    """Rotation 0 of the two-by-two tie is cut-graph vertex 1, outside the
    source component {0}: add it there too, or drop it everywhere."""
    components = sublattice.condense

    def condense(g, flow):
        comps, edges = components(g, flow)
        assert comps[0] == frozenset({0})
        if twice:
            listed = [c | {1} if i == 0 else c for i, c in enumerate(comps)]
        else:
            listed = [c - {1} for c in comps]
        return tuple(listed), edges

    monkeypatch.setattr("stablecut.sublattice.condense", condense)
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        meta_rotation_poset(two_by_two(), tie_weights())
    inst, weights = tmp_path / "inst.txt", tmp_path / "w.txt"
    inst.write_text(TWO_BY_TWO_TEXT)
    weights.write_text("3 2\n2 1\n")
    cfg = RunConfig("enumerate", instance_path=str(inst), weights_path=str(weights))
    assert run(cfg) == (2, f"error: {message}")


ZERO_GAIN = (
    "the source meta-rotation does not weigh the minimum flow"
    "|a middle meta-rotation changes the optimum's weight"
)


def test_meta_poset_certifies_that_middle_elements_gain_nothing(monkeypatch, tmp_path):
    """Without its backward arcs the residual graph splits into single
    vertices.  The minimum flow's own certificate reads the same residual
    and still passes, and the listing would hold matchings off the
    optimum; the component weights must not pass."""

    def forward_only(g, f):
        heads = [[] for _ in range(g.num_vertices)]
        for e in g.edges:
            heads[e.tail].append(e.head)
        return tuple(map(tuple, heads))

    monkeypatch.setattr(idealcut, "residual", forward_only)
    rng = random.Random(16)
    for seed in range(20):
        inst = family_instance("doubling", 8, seed)
        with pytest.raises(ContractViolation, match=ZERO_GAIN):
            meta_rotation_poset(inst, random_weights(rng, 8, -3, 3))
    # The two-by-two tie's one rotation gains nothing, so it passes.
    assert meta_rotation_poset(two_by_two(), tie_weights()).weight == 4
    inst, weights = tmp_path / "inst.txt", tmp_path / "w.txt"
    inst.write_text(TWO_BY_TWO_TEXT)
    weights.write_text("1 0\n0 0\n")
    status, report = run(RunConfig("enumerate", instance_path=str(inst), weights_path=str(weights)))
    assert status == 2
    assert report == "error: a middle meta-rotation changes the optimum's weight"


def test_enumerate_sentinel_passthrough():
    p = meta_rotation_poset(identity_three(), WeightFunction.zero(3))
    ms, truncated = enumerate_max_matchings(p, 10)
    assert [m.partner_of_boy for m in ms] == [(0, 1, 2)]
    assert not truncated


def listing_cases():
    """Doubling, cyclic-shift and random instances under zero weights, so
    every stable matching is listed, up to the cap of 50."""
    for family, n in (("doubling", 16), ("doubling", 32), ("cyclic", 25)):
        yield family_instance(family, n), WeightFunction.zero(n)
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(4, 10)
        yield random_instance(rng, n), WeightFunction.zero(n)


def referee_walk(inst, poset, closed):
    """Eliminate the rotations in ``closed`` by id from a fresh
    boy-optimal matching, shifting each boy to the next pair's girl."""
    partner = list(gale_shapley(inst, "boys").partner_of_boy)
    for rid in sorted(closed):
        pairs = poset.rotations[rid]
        for (b, g), (_, g_next) in zip(pairs, pairs[1:] + pairs[:1]):
            assert partner[b] == g
            partner[b] = g_next
    return tuple(partner)


@pytest.fixture
def gale_shapley_calls(monkeypatch):
    """The proposing sides of every ``gale_shapley`` call made through
    ``stablecut.rotations`` while the test runs."""
    calls = []
    real = rotations.gale_shapley

    def counted(inst, proposing_side="boys"):
        calls.append(proposing_side)
        return real(inst, proposing_side)

    monkeypatch.setattr(rotations, "gale_shapley", counted)
    return calls


def test_listing_runs_gale_shapley_once_per_poset(gale_shapley_calls):
    for inst, w in listing_cases():
        p = meta_rotation_poset(inst, w)
        gale_shapley_calls.clear()
        first, _ = enumerate_max_matchings(p, 50)
        assert gale_shapley_calls == ["boys"]
        again, _ = enumerate_max_matchings(p, 50)
        assert gale_shapley_calls == ["boys"]
        assert again == first


def test_listing_matches_a_referee_walk_from_a_fresh_boy_optimum():
    for inst, w in listing_cases():
        p = meta_rotation_poset(inst, w)
        ms, _ = enumerate_max_matchings(p, 50)
        ideals = list(islice(_proper_ideals(p.preds), len(ms)))
        for m, ideal in zip(ms, ideals):
            closed = set().union(*(p.rotation_sets[i] for i in ideal))
            assert m.partner_of_boy == referee_walk(inst, p.poset, closed)
        assert p.poset.boy_optimal == gale_shapley(inst, "boys")


def test_bi_objective_breaks_the_tie_upward():
    w2 = WeightFunction(((1, 0), (0, 0)))
    m, v1, v2 = solve_bi_objective(two_by_two(), tie_weights(), w2)
    assert (m.partner_of_boy, v1, v2) == ((0, 1), 4, 1)


def test_bi_objective_breaks_the_tie_downward():
    w2 = WeightFunction(((0, 1), (0, 0)))
    m, v1, v2 = solve_bi_objective(two_by_two(), tie_weights(), w2)
    assert (m.partner_of_boy, v1, v2) == ((1, 0), 4, 1)


def test_bi_objective_vacuous_second_weight():
    m, v1, v2 = solve_bi_objective(two_by_two(), tie_weights(), WeightFunction.zero(2))
    assert v1 == 4
    assert v2 == 0
    assert matching_weight(m, tie_weights()) == 4


def test_bi_objective_sentinel():
    inst = identity_three()
    w1 = WeightFunction.zero(3)
    w2 = WeightFunction.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    m, v1, v2 = solve_bi_objective(inst, w1, w2)
    assert (m.partner_of_boy, v1, v2) == ((0, 1, 2), 0, 6)


def test_bi_objective_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        solve_bi_objective(two_by_two(), tie_weights(), WeightFunction.zero(3))


@settings(max_examples=40, deadline=None)
@given(weighted_instances(max_n=5))
def test_enumeration_is_complete_and_optimal(pair):
    inst, w = pair
    p = meta_rotation_poset(inst, w)
    ms, truncated = enumerate_max_matchings(p, 100_000)
    assert not truncated
    stable = all_stable_matchings(inst)
    best = max(matching_weight(m, w) for m in stable)
    expected = {m.partner_of_boy for m in stable if matching_weight(m, w) == best}
    assert {m.partner_of_boy for m in ms} == expected


@settings(max_examples=40, deadline=None)
@given(weighted_instances(max_n=5))
def test_optima_close_under_meet_and_join(pair):
    inst, w = pair
    p = meta_rotation_poset(inst, w)
    ms, _ = enumerate_max_matchings(p, 100_000)
    found = {m.partner_of_boy for m in ms}
    for m1 in ms:
        for m2 in ms:
            assert meet(m1, m2, inst).partner_of_boy in found
            assert join(m1, m2, inst).partner_of_boy in found


@settings(max_examples=40, deadline=None)
@given(weighted_instances(max_n=5))
def test_poles_bound_every_optimum(pair):
    inst, w = pair
    p = meta_rotation_poset(inst, w)
    ms, _ = enumerate_max_matchings(p, 100_000)
    top = boy_optimal_max(p)
    bottom = girl_optimal_max(p)
    for m in ms:
        assert dominates(top, m, inst)
        assert dominates(m, bottom, inst)


def test_bi_objective_matches_lexicographic_brute_force():
    rng = random.Random(55)
    for _ in range(80):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        w1 = random_weights(rng, n)
        w2 = random_weights(rng, n)
        m, v1, v2 = solve_bi_objective(inst, w1, w2)
        stable = all_stable_matchings(inst)
        best1 = max(matching_weight(s, w1) for s in stable)
        best2 = max(
            matching_weight(s, w2)
            for s in stable
            if matching_weight(s, w1) == best1
        )
        assert (v1, v2) == (best1, best2)
        assert matching_weight(m, w1) == best1
        assert matching_weight(m, w2) == best2


def contracted_bi_objective(inst, w1, w2):
    """Maximise w2 over the w1 optima on w2's cut graph with every
    meta-rotation of w1 contracted to one vertex."""
    p = meta_rotation_poset(inst, w1)
    art2 = build_reduction(p.poset, w2)
    last = len(p.rotation_sets) - 1
    element_of_vertex = {art2.dag.source: 0, art2.dag.sink: last}
    for i, group in enumerate(p.rotation_sets):
        for rid in group:
            element_of_vertex[rid + 1] = i
    ends = [(element_of_vertex[e.tail], element_of_vertex[e.head]) for e in art2.dag.edges]
    edges = tuple(
        Edge(a, b, e.weight) for (a, b), e in zip(ends, art2.dag.edges) if a != b
    )
    g = WeightedDag(len(p.rotation_sets), 0, last, edges)
    cut, _ = max_weight_ideal_cut(g)
    m = closed_subset_to_max_matching(p, cut)
    return m, matching_weight(m, w1), matching_weight(m, w2)


FAMILY_CASES = [("doubling", n) for n in (8, 16, 32)] + [("cyclic", n) for n in (9, 25)]


@pytest.mark.parametrize("family,n", FAMILY_CASES)
def test_bi_objective_matches_the_contraction_referee(family, n):
    inst = family_instance(family, n)
    rng = random.Random(2000 + n)
    w2 = random_weights(rng, n)
    zero = WeightFunction.zero(n)
    # Wide and coarse w1 tables leave small and large optimal sublattices;
    # the zero table makes every stable matching optimal.
    for w1 in (random_weights(rng, n), random_weights(rng, n, -1, 1), zero):
        assert solve_bi_objective(inst, w1, w2) == contracted_bi_objective(inst, w1, w2)
    for w in (w2, random_weights(rng, n, -1, 1)):
        m, weight = solve_max_weight(inst, w)
        assert solve_bi_objective(inst, zero, w) == (m, 0, weight)
        assert solve_bi_objective(inst, w, zero) == (m, weight, 0)


def test_bi_objective_rejects_cut_graphs_that_differ(monkeypatch):
    w2 = WeightFunction(BRANCH_TIE_TABLE)
    real = build_reduction

    def reverse_w2_edges(poset, w):
        art = real(poset, w)
        if w is not w2:
            return art
        g = art.dag
        dag = WeightedDag(g.num_vertices, g.source, g.sink, g.edges[::-1], g.scale)
        return dataclasses.replace(art, dag=dag)

    monkeypatch.setattr("stablecut.sublattice.build_reduction", reverse_w2_edges)
    with pytest.raises(ContractViolation, match="list different edges"):
        solve_bi_objective(branch_four(), WeightFunction.zero(4), w2)


def test_bi_objective_rejects_a_weight_that_does_not_transport(monkeypatch):
    monkeypatch.setattr(
        "stablecut.sublattice.matching_weight", lambda m, w: matching_weight(m, w) + 1
    )
    with pytest.raises(ContractViolation, match="does not transport"):
        solve_bi_objective(branch_four(), WeightFunction(BRANCH_TIE_TABLE), WeightFunction.zero(4))
