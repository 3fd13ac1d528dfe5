"""The blocking-flow ``min_flow`` against an Edmonds-Karp referee.

The referee below is the shortest-augmenting-path loop ``min_flow`` used
before it moved to blocking flows, kept here only to cross-check the
engine.  Both start from the same feasible flow and use the same residual
rule, so they must agree on everything a report reads: the flow value,
the returned maximum cut and the residual condensation.  Per-edge flows
may differ and are not compared.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache

import pytest

import families
from conftest import random_dag
from stablecut import (
    ContractViolation,
    Flow,
    Instance,
    WeightedDag,
    WeightFunction,
    build_poset,
    build_reduction,
    condense,
    feasible_flow,
    idealcut,
    max_weight_ideal_cut,
    min_flow,
    residual,
)
from stablecut.idealcut import _reachable


def edmonds_karp_min_flow(g: WeightedDag) -> Flow:
    """Minimum flow by one breadth-first augmenting path at a time."""
    base = feasible_flow(g)
    source, sink = g.source, g.sink
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    lower = [e.weight for e in g.edges]
    composed = list(base.edge_flow)
    while True:
        parent = [-1] * g.num_vertices
        parent[sink] = -2
        queue = deque([sink])
        while queue:
            v = queue.popleft()
            if v == source:
                break
            for i in g.out_edges[v]:
                if parent[heads[i]] == -1:
                    parent[heads[i]] = i
                    queue.append(heads[i])
            for i in g.in_edges[v]:
                if parent[tails[i]] == -1 and composed[i] > lower[i]:
                    parent[tails[i]] = i
                    queue.append(tails[i])
        if parent[source] < 0:
            break
        forward, backward = [], []
        v = source
        while v != sink:
            i = parent[v]
            if heads[i] == v:
                forward.append(i)
                v = tails[i]
            else:
                backward.append(i)
                v = heads[i]
        bottleneck = min(composed[i] - lower[i] for i in backward)
        for i in forward:
            composed[i] += bottleneck
        for i in backward:
            composed[i] -= bottleneck
    value = sum(composed[i] for i in g.out_edges[source]) - sum(
        composed[i] for i in g.in_edges[source]
    )
    return Flow(tuple(composed), value)


@lru_cache(maxsize=None)
def reduction_dag(family: str, n: int, draw: int) -> WeightedDag:
    """The cut graph of a relabelled family instance under -9..9 weights,
    seeded by (family, n, draw)."""
    rng = random.Random(f"{family}-{n}-{draw}")
    prefs = families.doubling_prefs(n) if family == "doubling" else families.cyclic_prefs(n)
    boys, girls = families.relabel(rng, *prefs)
    inst = Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))
    w = WeightFunction(tuple(map(tuple, families.random_weights(rng, n, -9, 9, 0))))
    return build_reduction(build_poset(inst), w).dag


# (family, n, draw) of every seeded cut graph in the corpus.
FAMILY_GRAPHS = (
    [("doubling", n, draw) for n in (8, 16, 32) for draw in range(3)]
    + [("doubling", 64, 0), ("cyclic", 25, 0)]
)


@lru_cache(maxsize=1)
def corpus() -> tuple[WeightedDag, ...]:
    graphs = [reduction_dag(*key) for key in FAMILY_GRAPHS]
    rng = random.Random(611)
    graphs.extend(random_dag(rng, max_vertices=12) for _ in range(60))
    graphs.extend(random_dag(rng, max_vertices=40, density=0.15) for _ in range(20))
    return tuple(graphs)


def test_blocking_flow_agrees_with_edmonds_karp():
    for g in corpus():
        ours, theirs = min_flow(g), edmonds_karp_min_flow(g)
        assert ours.value == theirs.value
        sink_side = _reachable(residual(g, theirs), g.sink)
        cut, weight = max_weight_ideal_cut(g)
        assert cut.source_side == frozenset(range(g.num_vertices)) - sink_side
        assert weight == theirs.value
        a, b = condense(g, ours), condense(g, theirs)
        assert a.components == b.components
        assert a.edges == b.edges
        assert (a.source_component, a.sink_component) == (b.source_component, b.sink_component)


@pytest.fixture
def phase_counts(monkeypatch):
    """Count the level searches of each min_flow call: one per phase,
    the last of which finds the source out of reach."""
    counts: list[int] = []
    real = idealcut._sink_levels

    def counted(*args):
        counts[-1] += 1
        return real(*args)

    def run(g: WeightedDag) -> int:
        counts.append(0)
        min_flow(g)
        return counts[-1]

    monkeypatch.setattr(idealcut, "_sink_levels", counted)
    return run


def test_phases_stay_within_the_vertex_count(phase_counts):
    for g in corpus():
        assert phase_counts(g) <= g.num_vertices


# Measured when the blocking-flow engine went in; a change here is a
# finding about the engine, not a pin to move.
SEEDED_PHASES = {
    ("doubling", 16, 0): 7,
    ("doubling", 16, 1): 7,
    ("doubling", 16, 2): 6,
    ("doubling", 32, 0): 10,
    ("doubling", 32, 1): 12,
    ("doubling", 32, 2): 10,
    ("doubling", 64, 0): 23,
}


def test_phase_counts_on_seeded_doubling(phase_counts):
    found = {key: phase_counts(reduction_dag(*key)) for key in SEEDED_PHASES}
    assert found == SEEDED_PHASES


def test_condense_raises_exactly_when_the_sink_reaches_the_source():
    raised = 0
    for g in corpus():
        for f in (feasible_flow(g), min_flow(g)):
            sink_reaches_source = g.source in _reachable(residual(g, f), g.sink)
            try:
                condense(g, f)
            except ContractViolation as exc:
                assert str(exc) == "flow is not optimal: sink reaches source"
                assert sink_reaches_source
                raised += 1
            else:
                assert not sink_reaches_source
    # The feasible start is not yet minimal on most of the corpus.
    assert raised > len(corpus()) // 2


def residual_distances(heads: tuple[tuple[int, ...], ...], start: int) -> list[int]:
    """Breadth-first distance from start in a head adjacency, -1 where
    unreached."""
    dist = [-1] * len(heads)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in heads[v]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


class FirstLevels(Exception):
    """Carries the first level search's result out of ``min_flow``."""


def test_first_level_search_gives_residual_distances(monkeypatch):
    real = idealcut._sink_levels

    def stop_after_one(*args):
        raise FirstLevels(real(*args))

    monkeypatch.setattr(idealcut, "_sink_levels", stop_after_one)
    for g in corpus():
        with pytest.raises(FirstLevels) as caught:
            min_flow(g)
        (level,) = caught.value.args
        dist = residual_distances(residual(g, feasible_flow(g)), g.sink)
        labelled = [v for v in range(g.num_vertices) if level[v] >= 0]
        assert all(level[v] == dist[v] for v in labelled)
        if level[g.source] < 0:
            # No early stop: the search labelled everything the sink reaches.
            assert labelled == [v for v in range(g.num_vertices) if dist[v] >= 0]
