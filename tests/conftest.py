"""Shared test fixtures: tiny frozen instances and seeded random generators.

The small instances here have all their derived facts (rotations, poset
edges, optimal matchings) cross-checked against the brute-force oracle;
tests freeze those values directly.  Random instances and weights come
from the benchmark's generators in ``bench/families.py``.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Iterator

import pytest
from hypothesis import strategies as st

import families
from stablecut import (
    Edge,
    Instance,
    ReductionArtifacts,
    WeightedDag,
    WeightFunction,
    cut_weight,
    idealcut,
    reduction,
    rotations,
)
from stablecut.ideals import _preds_from_edges, _proper_ideals

# Two couples where each boy's favourite girl ranks him last: two stable
# matchings, one rotation apart.
TWO_BY_TWO_TEXT = """\
2
1 2
2 1
2 1
1 2
"""

# Everyone shares one ranking: the diagonal is the only stable matching.
IDENTITY_THREE_TEXT = """\
3
1 2 3
1 2 3
1 2 3
1 2 3
1 2 3
1 2 3
"""


def two_by_two() -> Instance:
    return Instance(((0, 1), (1, 0)), ((1, 0), (0, 1)))


def identity_three() -> Instance:
    return Instance(((0, 1, 2),) * 3, ((0, 1, 2),) * 3)


def branch_four() -> Instance:
    """Four couples, three rotations with precedence 0->1 and 0->2, five
    stable matchings."""
    return Instance(
        ((1, 3, 2, 0), (2, 3, 1, 0), (2, 1, 0, 3), (1, 0, 3, 2)),
        ((0, 3, 1, 2), (1, 2, 3, 0), (3, 0, 1, 2), (2, 1, 0, 3)),
    )


# Weight tables for two_by_two, row = boy, column = girl.
TIE_TABLE = ((3, 2), (2, 1))  # both stable matchings weigh 4
SINGLE_TABLE = ((1, 0), (0, 0))  # only the boy-optimal matching scores


def tie_weights() -> WeightFunction:
    return WeightFunction(TIE_TABLE)


def single_weights() -> WeightFunction:
    return WeightFunction(SINGLE_TABLE)


def path_dag() -> WeightedDag:
    """s -> a -> t with weights 5 and -2; exactly two ideal cuts."""
    return WeightedDag(3, 0, 2, (Edge(0, 1, 5), Edge(1, 2, -2)))


def diamond_dag() -> WeightedDag:
    """Two parallel source-to-sink paths; four ideal cuts, best weighs 7."""
    return WeightedDag(
        4, 0, 3, (Edge(0, 1, 1), Edge(0, 2, 4), Edge(1, 3, 3), Edge(2, 3, 2))
    )


def random_instance(rng: random.Random, n: int) -> Instance:
    boys, girls = families.random_prefs(rng, n)
    return Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))


def random_weights(
    rng: random.Random, n: int, lo: int = -9, hi: int = 9
) -> WeightFunction:
    return WeightFunction(tuple(map(tuple, families.random_weights(rng, n, lo, hi, 0))))


def family_instance(family: str, n: int, seed: int | None = None) -> Instance:
    """A cyclic-shift or doubling-family instance, relabelled by a
    permutation seeded with ``seed``, or with n when it is None."""
    prefs = families.cyclic_prefs(n) if family == "cyclic" else families.doubling_prefs(n)
    boys, girls = families.relabel(random.Random(n if seed is None else seed), *prefs)
    return Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))


def pair_edges(art: ReductionArtifacts) -> dict[tuple[int, int], Edge]:
    """The cut-graph edge of every varying pair, found from the poset's
    rotations alone: the one edge from the vertex of the rotation that
    makes the pair (or the source) to the vertex of the rotation that
    breaks it (or the sink).  Asserts that no two edges share their ends
    and that every varying pair has its edge."""
    g = art.dag
    by_ends = {(e.tail, e.head): e for e in g.edges}
    assert len(by_ends) == len(g.edges), "two cut-graph edges share (tail, head)"
    maker: dict[tuple[int, int], int] = {}
    breaker: dict[tuple[int, int], int] = {}
    for rid, rho in enumerate(art.poset.rotations):
        # rho moves each boy from his pair's girl to the next pair's girl.
        for (b, g_from), (_, g_to) in zip(rho, rho[1:] + rho[:1]):
            breaker[(b, g_from)] = rid
            maker[(b, g_to)] = rid
    edges = {}
    for pair in maker.keys() | breaker.keys():
        ends = (
            maker[pair] + 1 if pair in maker else g.source,
            breaker[pair] + 1 if pair in breaker else g.sink,
        )
        assert ends in by_ends, f"varying pair {pair} has no edge {ends}"
        edges[pair] = by_ends[ends]
    return edges


def matching_weight_from_cut(art: ReductionArtifacts, cut: frozenset[int]) -> int:
    """Weight of the matching selected by the cut, computed on the cut side
    of the correspondence: cut weight plus the always-present base."""
    return cut_weight(art.dag, cut) + art.base_weight


def ideal_cuts(g: WeightedDag) -> Iterator[frozenset[int]]:
    """Every ideal cut of a DAG whose edges run from lower vertex ids to
    higher ones, by source-side size then lexicographic: the proper ideals
    of its vertex order.  The walker raises ValueError on an edge that
    runs downwards."""
    preds = _preds_from_edges(g.num_vertices, ((e.tail, e.head) for e in g.edges))
    return _proper_ideals(preds)


def max_cut_sides(
    condensed: tuple[tuple[frozenset[int], ...], frozenset[tuple[int, int]]],
) -> Iterator[frozenset[int]]:
    """The source sides of the maximum cuts a condensation encodes, by
    component-ideal size then lexicographic: every proper ideal of the
    component order, expanded to its vertices.  Asserts that each holds
    the source component, the first, and not the sink component, the
    last."""
    components, edges = condensed
    count = len(components)
    for ideal in _proper_ideals(_preds_from_edges(count, edges)):
        assert 0 in ideal and count - 1 not in ideal
        yield frozenset(v for ci in ideal for v in components[ci])


def relabelled(walked: rotations.Walk, order: list[int]) -> rotations.Walk:
    """The walk's rotations listed in ``order``, its arcs renumbered to
    match: rotation ``order[i]`` gets id i."""
    found, edges, probes = walked
    new_id = {r: i for i, r in enumerate(order)}
    return (
        [found[r] for r in order],
        {(new_id[a], new_id[b]) for a, b in edges},
        probes,
    )


@pytest.fixture
def reversed_rotation_ids(monkeypatch):
    """Make ``build_poset``'s rotation walk, which ``enumerate_rotations``
    reaches through it, number rotations last-seen first."""
    real = rotations._walk

    def reversed_walk(*args):
        walked = real(*args)
        return relabelled(walked, list(range(len(walked[0])))[::-1])

    monkeypatch.setattr(rotations, "_walk", reversed_walk)


def linear_extension(preds: tuple[frozenset[int], ...], rng: random.Random) -> list[int]:
    """A random linear extension of the poset on ids 0..len(preds)-1:
    Kahn's algorithm taking a ready id drawn with rng at every step."""
    succs: list[list[int]] = [[] for _ in preds]
    waiting = [len(p) for p in preds]
    for r, p in enumerate(preds):
        for a in p:
            succs[a].append(r)
    ready = [r for r, count in enumerate(waiting) if not count]
    order = []
    while ready:
        r = ready.pop(rng.randrange(len(ready)))
        order.append(r)
        for s in sorted(succs[r]):
            waiting[s] -= 1
            if not waiting[s]:
                ready.append(s)
    return order


@pytest.fixture
def shuffled_rotation_ids(monkeypatch):
    """``shuffle(seed)`` makes the rotation walk, from then on, list the
    rotations in a random linear extension of their poset, drawn afresh
    from ``random.Random(seed)`` for every walk, with the arcs renumbered
    to match: the ids another valid elimination order would give.  It
    returns a list that gets, per walk, whether any id moved."""
    real = rotations._walk

    def shuffle(seed: int) -> list[bool]:
        moved: list[bool] = []

        def shuffled_walk(*args):
            walked = real(*args)
            preds = _preds_from_edges(len(walked[0]), walked[1])
            order = linear_extension(preds, random.Random(seed))
            moved.append(order != sorted(order))
            return relabelled(walked, order)

        monkeypatch.setattr(rotations, "_walk", shuffled_walk)
        return moved

    return shuffle


@pytest.fixture
def lowered_edge(monkeypatch):
    """``lower(i)`` makes the next cut graph ``build_reduction`` builds
    weigh its edge i 20 less than the pairs on it add up to."""

    def lower(index: int) -> None:
        def edge(tail: int, head: int, weight: int) -> Edge:
            nonlocal made
            made += 1
            return Edge(tail, head, weight - 20 if made - 1 == index else weight)

        made = 0
        monkeypatch.setattr(reduction, "Edge", edge)

    return lower


@pytest.fixture
def stalled_levels(monkeypatch):
    """``stall()`` makes the next level search report the sink unreached,
    so the ``min_flow`` that runs it stops at its feasible start."""
    real = idealcut._source_levels
    armed = False

    def levels(g: WeightedDag, *args) -> list[int]:
        nonlocal armed
        level = real(g, *args)
        if armed:
            armed = False
            level[g.sink] = -1
        return level

    def stall() -> None:
        nonlocal armed
        armed = True

    monkeypatch.setattr(idealcut, "_source_levels", levels)
    return stall


def without_last_rotation(poset: rotations.RotationPoset) -> rotations.RotationPoset:
    """The poset with its highest rotation id and the arcs into it
    dropped: a closed part of the poset that stops short of the
    girl-optimal matching."""
    last = len(poset.rotations) - 1
    return dataclasses.replace(
        poset,
        rotations=poset.rotations[:last],
        edges=frozenset((a, b) for a, b in poset.edges if b != last),
        preds=poset.preds[:last],
    )


def random_dag(
    rng: random.Random,
    max_vertices: int = 12,
    density: float = 0.3,
    lo: int = -9,
    hi: int = 9,
) -> WeightedDag:
    """Random DAG in which every vertex lies on a source-to-sink path.

    Vertices appear in topological order with 0 the source and n-1 the
    sink; whenever sampling leaves a vertex without an in- or out-edge, a
    patch edge restores connectivity.
    """
    n = rng.randint(2, max_vertices)
    edges = [
        Edge(u, v, rng.randint(lo, hi))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    has_in = {e.head for e in edges}
    has_out = {e.tail for e in edges}
    for v in range(1, n):
        if v not in has_in:
            edges.append(Edge(rng.randrange(v), v, rng.randint(lo, hi)))
    for v in range(n - 1):
        if v not in has_out:
            edges.append(Edge(v, rng.randrange(v + 1, n), rng.randint(lo, hi)))
    return WeightedDag(n, 0, n - 1, tuple(edges))


@st.composite
def instances(draw, min_n: int = 1, max_n: int = 6) -> Instance:
    n = draw(st.integers(min_n, max_n))
    boys = tuple(tuple(draw(st.permutations(tuple(range(n))))) for _ in range(n))
    girls = tuple(tuple(draw(st.permutations(tuple(range(n))))) for _ in range(n))
    return Instance(boys, girls)


@st.composite
def weighted_instances(
    draw, min_n: int = 1, max_n: int = 5, lo: int = -9, hi: int = 9
) -> tuple[Instance, WeightFunction]:
    inst = draw(instances(min_n, max_n))
    table = tuple(
        tuple(draw(st.integers(lo, hi)) for _ in range(inst.n))
        for _ in range(inst.n)
    )
    return inst, WeightFunction(table)
