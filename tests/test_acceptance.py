"""End-to-end acceptance checks for the whole pipeline.

Eleven criteria, each verified exactly against the brute-force oracles on
seeded random corpora.  Every test prints a single verdict line so that a
``pytest -s tests/test_acceptance.py`` run reads as a checklist.  The
three timed criteria assert generous wall-clock budgets on top of
correctness.
"""

import itertools
import random
import time

import pytest

from stablecut import (
    WeightFunction,
    all_ideal_cuts,
    all_stable_matchings,
    boy_optimal_max,
    brute_max_weight_matching,
    build_poset,
    build_reduction,
    check_ideal_cut,
    closed_set_to_matching,
    condense,
    cut_to_matching,
    cut_weight,
    dominates,
    enumerate_max_matchings,
    girl_optimal_max,
    is_stable,
    matching_weight,
    meet,
    join,
    meta_rotation_poset,
    min_flow,
    rotation_count_limit,
    solve_bi_objective,
    solve_max_weight,
)
from stablecut.ideals import iter_ideals

from conftest import (
    ideal_cuts,
    matching_weight_from_cut,
    max_cut_sides,
    pair_edges,
    random_dag,
    random_instance,
    random_weights,
)

ENUMERATION_CAP = 100_000


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def matching_corpus():
    """220 instances with weights in [-9, 9], 120 with weights in [-1, 1],
    and 40 with all-zero weights; the coarse and zero tails force tied
    optima so the lattice-closure checks see non-trivial optimum sets."""
    rng = random.Random(20260816)
    corpus = []
    for i in range(220):
        n = 2 + i % 6
        corpus.append((random_instance(rng, n), random_weights(rng, n)))
    for i in range(120):
        n = 2 + i % 6
        corpus.append((random_instance(rng, n), random_weights(rng, n, -1, 1)))
    for i in range(40):
        n = 4 + i % 4
        corpus.append((random_instance(rng, n), WeightFunction.zero(n)))
    return corpus


@pytest.fixture(scope="module")
def stable_sets(matching_corpus):
    return [all_stable_matchings(inst) for inst, _ in matching_corpus]


@pytest.fixture(scope="module")
def posets(matching_corpus):
    return [build_poset(inst) for inst, _ in matching_corpus]


@pytest.fixture(scope="module")
def dag_corpus():
    """220 graphs with weights in [-9, 9] plus 120 with weights in
    [-1, 1], where tied best cuts are common."""
    rng = random.Random(20260817)
    corpus = [random_dag(rng, max_vertices=12, density=0.3) for _ in range(220)]
    corpus += [
        random_dag(rng, max_vertices=12, density=0.3, lo=-1, hi=1)
        for _ in range(120)
    ]
    return corpus


@pytest.fixture(scope="module")
def oracle_max_cuts(dag_corpus):
    """Per graph: the set of maximum-weight cut source sides and the
    optimal weight, by exhaustion."""
    tables = []
    for g in dag_corpus:
        cuts = all_ideal_cuts(g)
        best = max(cut_weight(g, cut) for cut in cuts)
        sides = {cut for cut in cuts if cut_weight(g, cut) == best}
        tables.append((sides, best))
    return tables


@pytest.fixture(scope="module")
def bi_corpus():
    """60 instances with two wide weight tables plus 60 whose primary
    table is coarse, so the primary stage ties often and the secondary
    objective actually has to choose."""
    rng = random.Random(20260818)
    corpus = []
    for i in range(60):
        n = 2 + i % 6
        inst = random_instance(rng, n)
        corpus.append((inst, random_weights(rng, n), random_weights(rng, n)))
    for i in range(60):
        n = 2 + i % 6
        inst = random_instance(rng, n)
        corpus.append((inst, random_weights(rng, n, -1, 1), random_weights(rng, n)))
    return corpus


@pytest.fixture(scope="module")
def large_case():
    rng = random.Random(20260819)
    n = 300
    inst = random_instance(rng, n)
    table = tuple(
        tuple(rng.randint(-(10**9), 10**9) for _ in range(n)) for _ in range(n)
    )
    return inst, WeightFunction(table, scale=10**6)


def test_criterion_01_solver_weight_matches_oracle(matching_corpus, stable_sets):
    start = time.perf_counter()
    solved = [solve_max_weight(inst, w) for inst, w in matching_corpus]
    elapsed = time.perf_counter() - start
    mismatches = 0
    for (inst, w), (m, weight), stables in zip(matching_corpus, solved, stable_sets):
        _, best = brute_max_weight_matching(inst, w, stables)
        if weight != best or not is_stable(inst, m) or matching_weight(m, w) != weight:
            mismatches += 1
    _verdict(
        1,
        "solver weight equals exhaustive optimum",
        mismatches == 0 and elapsed < 10.0,
        f"{len(matching_corpus)} instances, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_closed_sets_biject_with_stable_matchings(
    matching_corpus, stable_sets, posets
):
    bad = 0
    for stables, poset in zip(stable_sets, posets):
        closed = list(iter_ideals(poset.preds))
        generated = {
            closed_set_to_matching(poset, s).partner_of_boy for s in closed
        }
        expected = {m.partner_of_boy for m in stables}
        if len(closed) != len(stables) or generated != expected:
            bad += 1
    _verdict(
        2,
        "closed rotation sets biject with the stable matchings",
        bad == 0,
        f"{len(matching_corpus)} instances, {bad} mismatches",
    )


def test_criterion_03_min_flow_value_equals_best_cut_weight(
    dag_corpus, oracle_max_cuts
):
    start = time.perf_counter()
    flows = [min_flow(g) for g in dag_corpus]
    elapsed = time.perf_counter() - start
    mismatches = sum(
        1 for f, (_, best) in zip(flows, oracle_max_cuts) if f.value != best
    )
    _verdict(
        3,
        "minimum flow value equals the exhaustive best cut weight",
        mismatches == 0 and elapsed < 5.0,
        f"{len(dag_corpus)} graphs, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_04_max_cuts_closed_under_union_and_intersection(
    dag_corpus, oracle_max_cuts
):
    bad = 0
    pairs = 0
    for g, (sides, best) in zip(dag_corpus, oracle_max_cuts):
        for a, b in itertools.combinations(sorted(sides, key=sorted), 2):
            pairs += 1
            for combined in (a | b, a & b):
                check_ideal_cut(g, combined)
                if combined not in sides or cut_weight(g, combined) != best:
                    bad += 1
    _verdict(
        4,
        "best cuts are closed under union and intersection",
        bad == 0,
        f"{pairs} cut pairs, {bad} violations",
    )


def test_criterion_05_condensation_enumerates_exactly_the_max_cuts(
    dag_corpus, oracle_max_cuts
):
    bad = 0
    for g, (sides, _) in zip(dag_corpus, oracle_max_cuts):
        d = condense(g, min_flow(g))
        listed = list(max_cut_sides(d))
        if len(set(listed)) != len(listed) or set(listed) != sides:
            bad += 1
    _verdict(
        5,
        "condensation enumerates exactly the best cuts",
        bad == 0,
        f"{len(dag_corpus)} graphs, {bad} mismatches",
    )


def test_criterion_06_optima_closed_under_meet_and_join(matching_corpus):
    bad = 0
    pairs = 0
    for inst, w in matching_corpus:
        optima, truncated = enumerate_max_matchings(
            meta_rotation_poset(inst, w), ENUMERATION_CAP
        )
        assert not truncated
        keys = {m.partner_of_boy for m in optima}
        for a, b in itertools.combinations(optima, 2):
            pairs += 1
            if (
                meet(a, b, inst).partner_of_boy not in keys
                or join(a, b, inst).partner_of_boy not in keys
            ):
                bad += 1
    _verdict(
        6,
        "optima are closed under lattice meet and join",
        bad == 0,
        f"{pairs} optimum pairs, {bad} violations",
    )


def test_criterion_07_poles_bound_every_optimum(matching_corpus):
    bad = 0
    for inst, w in matching_corpus:
        p = meta_rotation_poset(inst, w)
        optima, _ = enumerate_max_matchings(p, ENUMERATION_CAP)
        top = boy_optimal_max(p)
        bottom = girl_optimal_max(p)
        keys = {m.partner_of_boy for m in optima}
        if top.partner_of_boy not in keys or bottom.partner_of_boy not in keys:
            bad += 1
            continue
        if not all(
            dominates(top, m, inst) and dominates(m, bottom, inst) for m in optima
        ):
            bad += 1
    _verdict(
        7,
        "pole optima bound every enumerated optimum",
        bad == 0,
        f"{len(matching_corpus)} instances, {bad} violations",
    )


def test_criterion_08_cut_membership_matches_path_crossing(matching_corpus, posets):
    bad = 0
    cuts_checked = 0
    for (_, w), poset in zip(matching_corpus, posets):
        if len(poset.rotations) > 20:
            continue
        art = build_reduction(poset, w)
        pairs = pair_edges(art)
        for side in ideal_cuts(art.dag):
            cuts_checked += 1
            m = cut_to_matching(art, side)
            if matching_weight(m, w) != matching_weight_from_cut(art, side):
                bad += 1
                continue
            for (b, g), edge in pairs.items():
                crosses = edge.tail in side and edge.head not in side
                if crosses != (m.partner_of_boy[b] == g):
                    bad += 1
    _verdict(
        8,
        "pair membership coincides with the pair's path crossing the cut",
        bad == 0,
        f"{cuts_checked} cuts checked exhaustively, {bad} violations",
    )


def test_criterion_09_bi_objective_matches_lexicographic_brute_force(bi_corpus):
    bad = 0
    for inst, w1, w2 in bi_corpus:
        m, v1, v2 = solve_bi_objective(inst, w1, w2)
        stables = all_stable_matchings(inst)
        best1 = max(matching_weight(s, w1) for s in stables)
        pool = [s for s in stables if matching_weight(s, w1) == best1]
        best2 = max(matching_weight(s, w2) for s in pool)
        if (
            not is_stable(inst, m)
            or (v1, v2) != (best1, best2)
            or (matching_weight(m, w1), matching_weight(m, w2)) != (best1, best2)
        ):
            bad += 1
    _verdict(
        9,
        "two-stage solver matches the lexicographic brute force",
        bad == 0,
        f"{len(bi_corpus)} instances, {bad} mismatches",
    )


def test_criterion_10_rotation_count_within_quadratic_bound(
    matching_corpus, posets, bi_corpus, large_case
):
    cases = [
        (inst.n, len(poset.rotations))
        for (inst, _), poset in zip(matching_corpus, posets)
    ]
    cases += [
        (inst.n, len(build_poset(inst).rotations)) for inst, _, _ in bi_corpus
    ]
    inst, _ = large_case
    cases.append((inst.n, len(build_poset(inst).rotations)))
    over = sum(1 for n, count in cases if count > rotation_count_limit(n))
    _verdict(
        10,
        "rotation count stays within the quadratic bound",
        over == 0,
        f"{len(cases)} instances, {over} over the bound",
    )


def test_criterion_11_large_instance_solves_within_a_minute(large_case):
    inst, w = large_case
    start = time.perf_counter()
    m, weight = solve_max_weight(inst, w)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and is_stable(inst, m) and matching_weight(m, w) == weight
    _verdict(
        11,
        "dense 300-by-300 instance solves inside the time budget",
        ok,
        f"n={inst.n}, scale={w.scale}, {elapsed:.2f}s",
    )
