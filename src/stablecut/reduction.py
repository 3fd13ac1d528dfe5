"""Reduction from weighted stable matching to maximum-weight ideal cut.

The cut graph has one vertex per rotation between artificial source and
sink.  Every stable pair that is matched in some but not all stable
matchings puts its weight on one edge, from the rotation that makes the
pair (or the source) to the rotation that breaks it (or the sink).  An
ideal cut crosses that edge exactly when its matching holds the pair, so
every ideal cut weighs exactly as much as the stable matching it
selects, up to a constant for the pairs present everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import ContractViolation, Instance, Matching, WeightFunction, gale_shapley, matching_weight
from .idealcut import Edge, IdealCut, WeightedDag, check_ideal_cut, cut_weight, max_weight_ideal_cut, validate_dag
from .rotations import RotationPoset, _check_partner, build_poset, closed_set_to_matching

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class ReductionArtifacts:
    """The cut graph plus everything needed to translate answers back.

    ``dag`` vertex 0 is the source, vertex ``len(rotations) + 1`` the sink,
    and rotation r sits at vertex r + 1; without rotations the graph is the
    one edge from source to sink.  ``path_of_pair`` maps each stable
    pair that varies across matchings to a one-edge path: the index of
    the edge from its maker's vertex (or the source) to its breaker's
    vertex (or the sink), which it shares with every pair of the same
    two ends.  ``base_weight`` is the total weight of pairs present in
    every stable matching and must be added to any cut weight.  The
    instance is ``poset.inst``.
    """

    poset: RotationPoset
    dag: WeightedDag
    path_of_pair: Mapping[Pair, tuple[int, ...]]
    base_weight: int
    vertex_of_rotation: tuple[int, ...]


def build_reduction(poset: RotationPoset, w: WeightFunction) -> ReductionArtifacts:
    """Build the weighted cut graph for a rotation poset's instance.

    The poset's arcs come first, as edges in sorted order; each other
    edge is appended when the replay first puts a pair on it.  Raises
    ContractViolation unless the poset's rotations, replayed in id order,
    lead from the instance's boy-optimal matching to its girl-optimal one
    and every pair handed between two rotations has their arc.
    """
    inst = poset.inst
    if w.n != inst.n:
        raise ValueError("weight table size does not match the instance")
    m0 = gale_shapley(inst, "boys")
    mz = gale_shapley(inst, "girls")
    k = len(poset.rotations)
    source, sink = 0, k + 1
    vertex_of_rotation = tuple(rid + 1 for rid in range(k))

    # Each edge is keyed by its (tail, head) and numbered in insertion
    # order: the poset's arcs first, sorted, then each new pair of ends as
    # the replay first needs it.  With no rotations the one stable
    # matching is the one ideal cut {source}.
    edge_of: dict[tuple[int, int], int] = {} if k else {(source, sink): 0}
    for a, b in sorted(poset.edges):
        edge_of[(vertex_of_rotation[a], vertex_of_rotation[b])] = len(edge_of)
    path_of_pair: dict[Pair, tuple[int, ...]] = {}

    def add_pair(pair: Pair, tail: int, head: int) -> None:
        """Put the pair on the edge from the vertex that makes it to the
        vertex that breaks it."""
        path_of_pair[pair] = (edge_of.setdefault((tail, head), len(edge_of)),)

    # Replay the rotations in id order, the elimination order, from the
    # boy-optimal matching.  Each pair a rotation breaks was made by the
    # last rotation to move its boy, or is boy-optimal when none has.
    partner = list(m0.partner_of_boy)
    giver = [-1] * inst.n
    for rho in poset.rotations:
        r = len(rho.pairs)
        taker = vertex_of_rotation[rho.id]
        for i, (b, g) in enumerate(rho.pairs):
            _check_partner(rho, b, g, partner)
            if giver[b] < 0:
                add_pair((b, g), source, taker)
            else:
                # A pair handed on is exactly what makes the precedence
                # arc (giver, rho), so its edge is that arc's edge.
                maker = vertex_of_rotation[giver[b]]
                if (maker, taker) not in edge_of:
                    raise ContractViolation(
                        f"rotation {rho.id} takes boy {b + 1} from rotation"
                        f" {giver[b]}, but the poset has no arc {giver[b]} -> {rho.id}"
                    )
                add_pair((b, g), maker, taker)
            partner[b] = rho.pairs[(i + 1) % r][1]
            giver[b] = rho.id
    if partner != list(mz.partner_of_boy):
        raise ContractViolation("rotations do not end at the girl-optimal matching")
    # A boy no rotation moves keeps one partner in every stable matching,
    # which only shifts the total by a constant.
    base_weight = 0
    for b, g in enumerate(partner):
        if giver[b] < 0:
            base_weight += w.table[b][g]
        else:
            add_pair((b, g), vertex_of_rotation[giver[b]], sink)

    weight = [0] * len(edge_of)
    for (b, g), (i,) in path_of_pair.items():
        weight[i] += w.table[b][g]
    edges = tuple(Edge(tail, head, wt) for (tail, head), wt in zip(edge_of, weight))
    dag = WeightedDag(k + 2, source, sink, edges, w.scale)
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
