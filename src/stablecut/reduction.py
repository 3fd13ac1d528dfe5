"""Reduction from weighted stable matching to maximum-weight ideal cut.

The cut graph has one vertex per rotation between artificial source and
sink.  Every stable pair that is matched in some but not all stable
matchings gets a directed path whose endpoints encode when the pair is
present; adding the pair's weight to each path edge makes every ideal
cut weigh exactly as much as the stable matching it selects, up to a
constant for the pairs present everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import ContractViolation, Instance, Matching, WeightFunction, gale_shapley, matching_weight
from .idealcut import Edge, IdealCut, WeightedDag, _bfs_parents, check_ideal_cut, cut_weight, max_weight_ideal_cut, validate_dag
from .rotations import RotationPoset, _check_partner, build_poset, closed_set_to_matching

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class ReductionArtifacts:
    """The cut graph plus everything needed to translate answers back.

    ``dag`` vertex 0 is the source, vertex ``len(rotations) + 1`` the sink,
    and rotation r sits at vertex r + 1; without rotations the graph is the
    one edge from source to sink.  ``path_of_pair`` maps each stable
    pair that varies across matchings to the edge indices of its path.
    ``base_weight`` is the total weight of pairs present in every stable
    matching and must be added to any cut weight.  The instance is
    ``poset.inst``.
    """

    poset: RotationPoset
    dag: WeightedDag
    path_of_pair: Mapping[Pair, tuple[int, ...]]
    base_weight: int
    vertex_of_rotation: tuple[int, ...]


def build_reduction(poset: RotationPoset, w: WeightFunction) -> ReductionArtifacts:
    """Build the weighted cut graph for a rotation poset's instance.

    Raises ContractViolation unless the poset's rotations, replayed in id
    order, lead from the instance's boy-optimal matching to its
    girl-optimal one.
    """
    inst = poset.inst
    if w.n != inst.n:
        raise ValueError("weight table size does not match the instance")
    m0 = gale_shapley(inst, "boys")
    mz = gale_shapley(inst, "girls")
    k = len(poset.rotations)
    source, sink = 0, k + 1
    vertex_of_rotation = tuple(rid + 1 for rid in range(k))

    has_pred = {b for _, b in poset.edges}
    has_succ = {a for a, _ in poset.edges}
    # With no rotations the one stable matching is the one ideal cut {source}.
    edge_list = [] if k else [Edge(source, sink, 0)]
    for rid in range(k):
        if rid not in has_pred:
            edge_list.append(Edge(source, vertex_of_rotation[rid], 0))
    arc_edge: dict[tuple[int, int], int] = {}
    for a, b in sorted(poset.edges):
        arc_edge[(a, b)] = len(edge_list)
        edge_list.append(Edge(vertex_of_rotation[a], vertex_of_rotation[b], 0))
    for rid in range(k):
        if rid not in has_succ:
            edge_list.append(Edge(vertex_of_rotation[rid], sink, 0))

    out_edges = WeightedDag(k + 2, source, sink, tuple(edge_list)).out_edges
    heads = [e.head for e in edge_list]
    trees: dict[int, list[int]] = {}

    def tree_path(start: int, goal: int) -> tuple[int, ...]:
        """The edge path to goal in the breadth-first tree from start."""
        if start not in trees:
            trees[start] = _bfs_parents(out_edges, heads, start)
        parent = trees[start]
        if parent[goal] == -1:
            raise ContractViolation("required path is missing from the cut graph")
        path = []
        v = goal
        while v != start:
            i = parent[v]
            path.append(i)
            v = edge_list[i].tail
        path.reverse()
        return tuple(path)

    base_weight = 0
    accumulated = [0] * len(edge_list)
    path_of_pair: dict[Pair, tuple[int, ...]] = {}

    def add_pair(pair: Pair, path: tuple[int, ...]) -> None:
        path_of_pair[pair] = path
        weight = w.table[pair[0]][pair[1]]
        for i in path:
            accumulated[i] += weight

    # Replay the rotations in id order, the elimination order, from the
    # boy-optimal matching.  Each pair a rotation breaks was made by the
    # last rotation to move its boy, or is boy-optimal when none has.
    partner = list(m0.partner_of_boy)
    giver = [-1] * inst.n
    for rho in poset.rotations:
        r = len(rho.pairs)
        for i, (b, g) in enumerate(rho.pairs):
            _check_partner(rho, b, g, partner)
            if giver[b] < 0:
                add_pair((b, g), tree_path(source, vertex_of_rotation[rho.id]))
            else:
                # A pair handed on is exactly what makes the precedence
                # arc (giver, rho), so its path is that arc's edge.
                edge = arc_edge.get((giver[b], rho.id))
                if edge is None:
                    raise ContractViolation("required path is missing from the cut graph")
                add_pair((b, g), (edge,))
            partner[b] = rho.pairs[(i + 1) % r][1]
            giver[b] = rho.id
    if partner != list(mz.partner_of_boy):
        raise ContractViolation("rotations do not end at the girl-optimal matching")
    # A boy no rotation moves keeps one partner in every stable matching,
    # which only shifts the total by a constant.
    for b, g in enumerate(partner):
        if giver[b] < 0:
            base_weight += w.table[b][g]
        else:
            add_pair((b, g), tree_path(vertex_of_rotation[giver[b]], sink))

    weighted = tuple(
        Edge(e.tail, e.head, acc) for e, acc in zip(edge_list, accumulated)
    )
    dag = WeightedDag(k + 2, source, sink, weighted, w.scale)
    validate_dag(dag)
    return ReductionArtifacts(
        poset=poset,
        dag=dag,
        path_of_pair=path_of_pair,
        base_weight=base_weight,
        vertex_of_rotation=vertex_of_rotation,
    )


def cut_to_matching(art: ReductionArtifacts, cut: IdealCut) -> Matching:
    """Translate an ideal cut of the reduction graph into the stable
    matching generated by the rotations on the cut's source side."""
    check_ideal_cut(art.dag, cut.source_side)
    closed = frozenset(
        rid for rid, v in enumerate(art.vertex_of_rotation) if v in cut.source_side
    )
    return closed_set_to_matching(art.poset, closed)


def matching_weight_from_cut(art: ReductionArtifacts, cut: IdealCut) -> int:
    """Weight of the matching selected by the cut, computed on the cut side
    of the correspondence: cut weight plus the always-present base."""
    return cut_weight(art.dag, cut) + art.base_weight


def solve_max_weight(inst: Instance, w: WeightFunction) -> tuple[Matching, int]:
    """A maximum-weight stable matching and its scaled weight.

    Among equally heavy optima this returns the pole with the most
    rotations eliminated, which is the girl-favouring end of the optimal
    sublattice.
    """
    art = build_reduction(build_poset(inst), w)
    cut, weight = max_weight_ideal_cut(art.dag)
    m = cut_to_matching(art, cut)
    total = weight + art.base_weight
    if total != matching_weight(m, w):
        raise ContractViolation("cut weight does not transport to the matching")
    return m, total
