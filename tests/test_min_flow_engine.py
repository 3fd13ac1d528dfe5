"""The blocking-flow ``min_flow`` against two referees.

The Edmonds-Karp referee is the shortest-augmenting-path loop ``min_flow``
used before it moved to blocking flows, and it starts from a per-edge
path flow, the form ``feasible_flow`` had before its two passes, with
each path following first in-edges and first out-edges.  Minimum
flows are not unique, so the engine and that referee must agree on what
every minimum flow shares: the flow value, the returned maximum cut, and
the residual condensation's components, poles and arcs.  Per-edge flows
and the order ``condense`` lists components in may differ there and are
not compared.

The sink-side referee is the blocking-flow engine as it was while its
levels counted distance from the sink.  Labelling distance to the source
instead admits the same arcs in the same scan order, minus branches that
cannot reach the source, so it must push the very same per-edge flow.
Both referees are kept here only to cross-check the engine.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from functools import lru_cache

import pytest

import families
from conftest import family_instance, random_dag
from stablecut import (
    ContractViolation,
    Edge,
    Flow,
    Instance,
    RotationPoset,
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
from stablecut.ideals import _preds_from_edges
from stablecut.idealcut import _reachable


def source_outflow(g: WeightedDag, flow: list[int]) -> int:
    """Flow leaving the source minus flow entering it."""
    out = sum(flow[i] for i in g.out_edges[g.source])
    return out - sum(flow[i] for i in g.in_edges[g.source])


def path_feasible_flow(g: WeightedDag) -> Flow:
    """A flow meeting every lower bound: for each edge demanding w > 0
    units, push w along a source-to-sink path through it, back from its
    tail over first in-edges and on from its head over first out-edges."""
    idealcut.validate_dag(g)
    flow = [0] * len(g.edges)
    for idx, e in enumerate(g.edges):
        if e.weight > 0 and flow[idx] < e.weight:
            path = [idx]
            v = e.tail
            while v != g.source:
                back = g.in_edges[v][0]
                path.append(back)
                v = g.edges[back].tail
            v = e.head
            while v != g.sink:
                fwd = g.out_edges[v][0]
                path.append(fwd)
                v = g.edges[fwd].head
            for p in path:
                flow[p] += e.weight
    return Flow(tuple(flow), source_outflow(g, flow))


def edmonds_karp_min_flow(g: WeightedDag) -> Flow:
    """Minimum flow by one breadth-first augmenting path at a time, from
    :func:`path_feasible_flow`."""
    base = path_feasible_flow(g)
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


def sink_side_min_flow(g: WeightedDag) -> Flow:
    """Minimum flow by blocking flows from :func:`feasible_flow`, each phase
    labelling vertices by residual distance from the sink (stopping once
    the source is labelled) and augmenting along paths that rise one level
    per step."""
    base = feasible_flow(g)
    source, sink = g.source, g.sink
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    slack = [f - e.weight for f, e in zip(base.edge_flow, g.edges)]
    arcs = [list(out) + [~i for i in inn] for out, inn in zip(g.out_edges, g.in_edges)]

    def far_end(a: int) -> int | None:
        """Where residual arc a leads, or None while it is absent."""
        if a >= 0:
            return heads[a]
        return tails[~a] if slack[~a] > 0 else None

    while True:
        level = [-1] * g.num_vertices
        level[sink] = 0
        queue = deque([sink])
        while queue and level[source] < 0:
            v = queue.popleft()
            for w in map(far_end, arcs[v]):
                if w is not None and level[w] == -1:
                    level[w] = level[v] + 1
                    queue.append(w)
                    if w == source:
                        break
        if level[source] < 0:
            break
        cursor = [0] * g.num_vertices
        path: list[int] = []
        stack: list[int] = []
        v = sink
        while True:
            if v == source:
                bottleneck = min(slack[~a] for a in path if a < 0)
                cut_at = -1
                for k, a in enumerate(path):
                    if a >= 0:
                        slack[a] += bottleneck
                    else:
                        slack[~a] -= bottleneck
                        if cut_at < 0 and slack[~a] == 0:
                            cut_at = k
                v = stack[cut_at]
                del path[cut_at:], stack[cut_at:]
                continue
            while cursor[v] < len(arcs[v]):
                a = arcs[v][cursor[v]]
                w = far_end(a)
                if w is not None and level[w] == level[v] + 1:
                    break
                cursor[v] += 1
            if cursor[v] < len(arcs[v]):
                path.append(a)
                stack.append(v)
                v = w
            elif v == sink:
                break
            else:
                level[v] = -1
                path.pop()
                v = stack.pop()
    flow = [s + e.weight for s, e in zip(slack, g.edges)]
    return Flow(tuple(flow), source_outflow(g, flow))


@lru_cache(maxsize=None)
def canonical(poset: RotationPoset) -> RotationPoset:
    """The poset with its rotations renumbered by the instance alone: by
    Kahn's algorithm taking the ready rotation with the smallest (boy,
    girl) pair first.  Rotation discovery then cannot move a cut graph's
    vertex or edge order."""
    count = len(poset.rotations)
    succs: list[list[int]] = [[] for _ in range(count)]
    waiting = [len(p) for p in poset.preds]
    for r, p in enumerate(poset.preds):
        for a in p:
            succs[a].append(r)
    ready = [(min(poset.rotations[r]), r) for r in range(count) if not waiting[r]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, r = heapq.heappop(ready)
        order.append(r)
        for s in succs[r]:
            waiting[s] -= 1
            if not waiting[s]:
                heapq.heappush(ready, (min(poset.rotations[s]), s))
    new_id = {r: i for i, r in enumerate(order)}
    edges = frozenset((new_id[a], new_id[b]) for a, b in poset.edges)
    return RotationPoset(
        poset.inst,
        tuple(poset.rotations[r] for r in order),
        edges,
        tuple(_preds_from_edges(count, edges)),
    )


def reduction_dag(family: str, n: int, draw: int) -> WeightedDag:
    """The cut graph of a relabelled family instance under -9..9 weights,
    seeded by (family, n, draw), with the rotations in canonical order."""
    rng = random.Random(f"{family}-{n}-{draw}")
    prefs = families.doubling_prefs(n) if family == "doubling" else families.cyclic_prefs(n)
    boys, girls = families.relabel(rng, *prefs)
    inst = Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))
    w = WeightFunction(tuple(map(tuple, families.random_weights(rng, n, -9, 9, 0))))
    return build_reduction(canonical(build_poset(inst)), w).dag


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


def condensation(
    condensed: tuple[tuple[frozenset[int], ...], frozenset[tuple[int, int]]],
) -> tuple:
    """What every minimum flow's condensation shares, with no listing
    order: the components as a set, the source and sink components, and
    the arcs between components as pairs of vertex sets."""
    comps, edges = condensed
    return (
        frozenset(comps),
        comps[0],
        comps[-1],
        frozenset((comps[a], comps[b]) for a, b in edges),
    )


def test_blocking_flow_agrees_with_edmonds_karp():
    graphs = list(corpus()) + [reduction_dag("doubling", 64, draw) for draw in (1, 2)]
    for g in graphs:
        ours, theirs = min_flow(g), edmonds_karp_min_flow(g)
        assert ours.value == theirs.value
        sink_side = _reachable(residual(g, theirs), g.sink)
        cut, weight = max_weight_ideal_cut(g)
        assert cut == frozenset(range(g.num_vertices)) - sink_side
        assert weight == theirs.value
        assert condensation(condense(g, ours)) == condensation(condense(g, theirs))


def test_source_side_levels_push_the_sink_side_flow():
    graphs = list(corpus()) + [reduction_dag("doubling", 64, draw) for draw in (1, 2)]
    for g in graphs:
        assert min_flow(g).edge_flow == sink_side_min_flow(g).edge_flow


def test_conservation_check_sums_each_vertex_once():
    checked = 0
    for g in corpus():
        f = min_flow(g)
        flow = list(f.edge_flow)
        assert idealcut._assert_conservation(g, flow) == f.value == source_outflow(g, flow)
        inner = [i for i, e in enumerate(g.edges) if {e.tail, e.head}.isdisjoint({g.source, g.sink})]
        if not inner:
            continue
        i = inner[len(inner) // 2]
        flow[i] += 1
        first = min(g.edges[i].tail, g.edges[i].head) + 1
        with pytest.raises(ContractViolation, match=f"^flow conservation fails at vertex {first}$"):
            idealcut._assert_conservation(g, flow)
        checked += 1
    assert checked > len(corpus()) // 2


def test_feasible_start_checks_conservation(monkeypatch):
    """Hand the start an order that lists vertex 3 before vertex 2, the
    tail of its only in-edge: vertex 3 pulls its shortfall from vertex 2
    after vertex 2 has had its turn.  Every lower bound still holds, so
    only the conservation check can see it."""
    g = WeightedDag(4, 0, 3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 3)))
    assert idealcut.validate_dag(g) == [0, 1, 2, 3]
    assert feasible_flow(g).value == 3
    monkeypatch.setattr(idealcut, "validate_dag", lambda h: [0, 2, 1, 3])
    with pytest.raises(ContractViolation, match="^flow conservation fails at vertex 2$"):
        feasible_flow(g)


@pytest.fixture
def phase_counts(monkeypatch):
    """Count the level searches of each min_flow call: one per phase,
    the last of which finds that the sink cannot reach the source."""
    counts: list[int] = []
    real = idealcut._source_levels

    def counted(*args):
        counts[-1] += 1
        return real(*args)

    def run(g: WeightedDag) -> int:
        counts.append(0)
        min_flow(g)
        return counts[-1]

    monkeypatch.setattr(idealcut, "_source_levels", counted)
    return run


def test_phases_stay_within_the_vertex_count(phase_counts):
    for g in corpus():
        assert phase_counts(g) <= g.num_vertices


# Measured with the feasible start along first in- and out-edges, on cut
# graphs built from the canonical rotation order, so rotation discovery
# cannot move them.  The start decides where the flow begins, so any
# change to it moves these counts.  A change here is a finding about the
# engine or its start, to be re-pinned to the new exact counts with its
# reason.
SEEDED_PHASES = {
    ("doubling", 16, 0): 6,
    ("doubling", 16, 1): 7,
    ("doubling", 16, 2): 5,
    ("doubling", 32, 0): 12,
    ("doubling", 32, 1): 11,
    ("doubling", 32, 2): 10,
    ("doubling", 64, 0): 22,
}


def test_phase_counts_on_seeded_doubling(phase_counts):
    found = {key: phase_counts(reduction_dag(*key)) for key in SEEDED_PHASES}
    assert found == SEEDED_PHASES


# The feasible start's value on every doubling graph of the corpus, which
# follows the cut graph's vertex and edge numbering; the per-edge path
# start of ``path_feasible_flow`` gives about twice as much (6384 on
# (64, 0)).
SEEDED_FEASIBLE = {
    ("doubling", 8, 0): 66,
    ("doubling", 8, 1): 64,
    ("doubling", 8, 2): 74,
    ("doubling", 16, 0): 218,
    ("doubling", 16, 1): 227,
    ("doubling", 16, 2): 200,
    ("doubling", 32, 0): 799,
    ("doubling", 32, 1): 803,
    ("doubling", 32, 2): 796,
    ("doubling", 64, 0): 2970,
}


def test_seeded_cut_graphs_do_not_follow_the_rotation_ids(shuffled_rotation_ids):
    keys = [key for key in FAMILY_GRAPHS if key[1] <= 16]
    graphs = [reduction_dag(*key).edges for key in keys]
    moved = shuffled_rotation_ids(7)
    assert [reduction_dag(*key).edges for key in keys] == graphs
    assert sum(moved) > len(keys) // 2


def test_feasible_values_on_seeded_doubling():
    assert [key for key in FAMILY_GRAPHS if key[0] == "doubling"] == list(SEEDED_FEASIBLE)
    found = {key: feasible_flow(reduction_dag(*key)).value for key in SEEDED_FEASIBLE}
    assert found == SEEDED_FEASIBLE


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


def reversed_arcs(heads: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """The head adjacency with every arc turned around."""
    tails: list[list[int]] = [[] for _ in heads]
    for v, row in enumerate(heads):
        for w in row:
            tails[w].append(v)
    return tails


class ScanCountedRow(tuple):
    """An adjacency row that counts how often it is iterated."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_components_are_the_mutually_reachable_classes_in_topological_order():
    zero = WeightFunction(tuple((0,) * 16 for _ in range(16)))
    doubling_zero = build_reduction(canonical(build_poset(family_instance("doubling", 16))), zero).dag
    for g in (*corpus(), doubling_zero):
        for f in (feasible_flow(g), min_flow(g)):
            res = residual(g, f)
            rows = [ScanCountedRow(row) for row in res]
            comps = idealcut._components(rows)
            # Once per search: the depth-first search resumes each row where
            # it left off, and the reversed arcs are built in one pass.
            assert max(row.scans for row in rows) <= 2
            comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
            assert len(comp_of) == sum(map(len, comps)) == g.num_vertices
            # Reaching each other is an equivalence, so each component must
            # be what its first vertex reaches and is reached from.
            tails = reversed_arcs(res)
            for comp in comps:
                assert set(comp) == _reachable(res, comp[0]) & _reachable(tails, comp[0])
            assert all(comp_of[v] <= comp_of[u] for v, heads in enumerate(res) for u in heads)
    assert len(condense(doubling_zero, min_flow(doubling_zero))[0]) == 16 * 15 // 2 + 2


def distances_to(heads: tuple[tuple[int, ...], ...], target: int) -> list[int]:
    """Length of the shortest path from each vertex to target in a head
    adjacency, -1 where target is out of reach: a breadth-first search
    from target over the reversed arcs."""
    tails = reversed_arcs(heads)
    dist = [-1] * len(heads)
    dist[target] = 0
    queue = deque([target])
    while queue:
        w = queue.popleft()
        for v in tails[w]:
            if dist[v] == -1:
                dist[v] = dist[w] + 1
                queue.append(v)
    return dist


class FirstLevels(Exception):
    """Carries the first level search's result out of ``min_flow``."""


def test_first_level_search_gives_residual_distances(monkeypatch):
    real = idealcut._source_levels

    def stop_after_one(*args):
        raise FirstLevels(real(*args))

    monkeypatch.setattr(idealcut, "_source_levels", stop_after_one)
    stopped_early = 0
    for g in corpus():
        with pytest.raises(FirstLevels) as caught:
            min_flow(g)
        (level,) = caught.value.args
        dist = distances_to(residual(g, feasible_flow(g)), g.source)
        labelled = [v for v in range(g.num_vertices) if level[v] >= 0]
        assert all(level[v] == dist[v] for v in labelled)
        if level[g.sink] >= 0:
            # An early stop labels every vertex nearer than the sink and
            # none further out.
            stopped_early += 1
            assert max(level) == level[g.sink]
            assert all(level[v] >= 0 for v in range(g.num_vertices) if 0 <= dist[v] < dist[g.sink])
        else:
            # No early stop: the search labelled exactly what reaches the source.
            assert labelled == [v for v in range(g.num_vertices) if dist[v] >= 0]
    # Most feasible starts are not minimal, so most searches stop early.
    assert stopped_early > len(corpus()) // 2
