"""The edge-order gate: no answer of the flow path follows the order in
which a graph lists its edges.

The engine scans each vertex's edges in edge order, so permuting the
edge list can move its per-edge flows, its phases and the numbering of
the residual components between the poles.  What every minimum flow
shares must not move: the flow value, the maximum cut with the largest
source side and its weight, and the residual condensation taken as sets
of vertex sets.  Cycle errors and both ``cut-solve`` reports must not
move either.

Every corpus graph also numbers its vertices in topological order, the
source first and the sink last, so the vertex-relabel gate shuffles the
vertex ids too: what every minimum flow shares, mapped back, must not
move, and must still agree with the Edmonds-Karp referee.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_dag
from stablecut import Edge, WeightedDag, condense, max_weight_ideal_cut, min_flow, residual, validate_dag
from stablecut.cli import RunConfig, run
from stablecut.idealcut import _reachable
from stablecut.oracle import MAX_ORACLE_VERTICES
from test_min_flow_engine import condensation, corpus, edmonds_karp_min_flow, reduction_dag


def permuted(g: WeightedDag, rng: random.Random) -> tuple[WeightedDag, list[int]]:
    """g with its edges shuffled, and the order they came from: the
    permuted graph's edge k is g's edge ``order[k]``."""
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    edges = tuple(g.edges[i] for i in order)
    return WeightedDag(g.num_vertices, g.source, g.sink, edges, g.scale), order


def test_permuted_edges_keep_the_value_the_cut_and_the_condensation():
    rng = random.Random(28)
    moved = 0
    for g in corpus():
        f = min_flow(g)
        cut = max_weight_ideal_cut(g)
        shared = condensation(condense(g, f))
        for _ in range(3):
            h, order = permuted(g, rng)
            fh = min_flow(h)
            assert fh.value == f.value
            assert max_weight_ideal_cut(h) == cut
            assert condensation(condense(h, fh)) == shared
            back = [0] * len(order)
            for k, i in enumerate(order):
                back[i] = fh.edge_flow[k]
            moved += tuple(back) != f.edge_flow
    # The permutations reach the engine: many of them move per-edge flows.
    assert moved > len(corpus()) // 2


def relabelled(g: WeightedDag, rng: random.Random) -> tuple[WeightedDag, list[int]]:
    """g with its vertex ids shuffled, and the map back: the relabelled
    graph's vertex v is g's vertex ``old[v]``."""
    old = list(range(g.num_vertices))
    rng.shuffle(old)
    new = [0] * len(old)
    for v, u in enumerate(old):
        new[u] = v
    edges = tuple(Edge(new[e.tail], new[e.head], e.weight) for e in g.edges)
    return WeightedDag(g.num_vertices, new[g.source], new[g.sink], edges, g.scale), old


def test_relabelled_vertices_keep_the_value_the_cut_and_the_condensation():
    rng = random.Random(32)
    poles_moved = 0
    for g in corpus():
        f = min_flow(g)
        cut = max_weight_ideal_cut(g)
        shared = condensation(condense(g, f))
        h, old = relabelled(g, rng)

        def back(side: frozenset[int]) -> frozenset[int]:
            return frozenset(old[v] for v in side)

        fh, referee = min_flow(h), edmonds_karp_min_flow(h)
        assert fh.value == referee.value == f.value
        cut_h, weight_h = max_weight_ideal_cut(h)
        assert (back(cut_h), weight_h) == cut
        assert cut_h == frozenset(range(h.num_vertices)) - _reachable(residual(h, referee), h.sink)
        for flow in (fh, referee):
            comps, arcs = condense(h, flow)
            assert condensation((tuple(map(back, comps)), arcs)) == shared
        poles_moved += (h.source, h.sink) != (0, h.num_vertices - 1)
    # The shuffles move the poles away from the first and last ids.
    assert poles_moved > len(corpus()) // 2


def test_permuted_edges_keep_the_cycle_witness():
    rng = random.Random(29)
    for _ in range(60):
        g = random_dag(rng, max_vertices=12)
        back = [Edge(e.head, e.tail, e.weight) for e in rng.sample(g.edges, min(3, len(g.edges)))]
        cyclic = WeightedDag(g.num_vertices, g.source, g.sink, g.edges + tuple(back))
        with pytest.raises(ValueError, match="^graph has a cycle through vertices") as first:
            validate_dag(cyclic)
        for _ in range(3):
            with pytest.raises(ValueError) as again:
                validate_dag(permuted(cyclic, rng)[0])
            assert str(again.value) == str(first.value)


def test_cut_solve_reports_do_not_follow_the_edge_rows(tmp_path):
    rng = random.Random(30)
    small = [reduction_dag(family, n, draw) for family, n in (("doubling", 4), ("cyclic", 6)) for draw in range(3)]
    path = tmp_path / "dag.txt"
    oracle_runs = 0
    for g in list(corpus()) + small:
        header = [f"{g.num_vertices} {len(g.edges)}", f"{g.source + 1} {g.sink + 1}"]
        rows = [f"{e.tail + 1} {e.head + 1} {e.weight}" for e in g.edges]
        modes = (False, True) if g.num_vertices <= MAX_ORACLE_VERTICES else (False,)
        reports = []
        for _ in range(3):
            path.write_text("\n".join(header + rows) + "\n")
            reports.append([run(RunConfig("cut-solve", dag_path=str(path), oracle=o)) for o in modes])
            rng.shuffle(rows)
        assert reports[0] == reports[1] == reports[2]
        assert all(status == 0 for status, _ in reports[0])
        oracle_runs += len(modes) - 1
    assert oracle_runs >= 60
