"""Reduction from weighted stable matching to maximum-weight ideal cut.

The cut graph has one vertex per rotation between artificial source and
sink.  Every stable pair that is matched in some but not all stable
matchings adds its weight to the one edge from the rotation that makes
the pair (or the source) to the rotation that breaks it (or the sink),
shared by every pair with the same two ends.  An ideal cut crosses that
edge exactly when its matching holds the pair, so every ideal cut weighs
exactly as much as the stable matching it selects, up to a constant for
the pairs present everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ContractViolation, Instance, Matching, WeightFunction, gale_shapley, matching_weight
from .idealcut import Edge, IdealCut, WeightedDag, check_ideal_cut, max_weight_ideal_cut
from .rotations import RotationPoset, _replay, build_poset, closed_set_to_matching


@dataclass(frozen=True, eq=False)
class ReductionArtifacts:
    """The cut graph plus everything needed to translate answers back.

    ``dag`` vertex 0 is the source, vertex ``len(rotations) + 1`` the sink,
    and rotation r sits at vertex r + 1; without rotations the graph is the
    one edge from source to sink.  Each edge's (tail, head) is unique, and
    its weight is the total over the varying pairs made at its tail (or
    boy-optimal, at the source) and broken at its head (or kept to the
    girl-optimal matching, at the sink).  ``base_weight`` is the total
    weight of pairs present in every stable matching and must be added to
    any cut weight.  The instance is ``poset.inst``.
    """

    poset: RotationPoset
    dag: WeightedDag
    base_weight: int
    vertex_of_rotation: tuple[int, ...]


def build_reduction(poset: RotationPoset, w: WeightFunction) -> ReductionArtifacts:
    """Build the weighted cut graph for a rotation poset's instance.

    The poset's arcs come first, as zero-weight edges in sorted order;
    each other edge is appended when the replay first puts a pair on it,
    and every pair adds its weight to the edge between its maker and its
    breaker.  Raises ContractViolation unless the poset's rotations,
    replayed in id order, lead from the instance's boy-optimal matching to
    its girl-optimal one and every pair handed between two rotations has
    their arc.  The graph's acyclicity and reachability are checked once,
    by the flow that reads it (``feasible_flow`` inside ``min_flow``).
    """
    inst = poset.inst
    if w.n != inst.n:
        raise ValueError("weight table size does not match the instance")
    m0 = gale_shapley(inst, "boys")
    mz = gale_shapley(inst, "girls")
    k = len(poset.rotations)
    source, sink = 0, k + 1
    vertex_of_rotation = tuple(rid + 1 for rid in range(k))

    # Edge (tail, head) -> weight; insertion order is the edge order.
    # With no rotations the one stable matching is the one ideal cut
    # {source}.
    weight: dict[tuple[int, int], int] = {} if k else {(source, sink): 0}
    for a, b in sorted(poset.edges):
        weight[(vertex_of_rotation[a], vertex_of_rotation[b])] = 0
    base_weight = 0
    for b, g, maker, breaker in _replay(poset.rotations, m0):
        if breaker < 0 and mz.partner_of_boy[b] != g:
            raise ContractViolation("rotations do not end at the girl-optimal matching")
        if maker < 0 and breaker < 0:
            # A boy no rotation moves keeps one partner in every stable
            # matching, which only shifts the total by a constant.
            base_weight += w.table[b][g]
            continue
        ends = (
            source if maker < 0 else vertex_of_rotation[maker],
            sink if breaker < 0 else vertex_of_rotation[breaker],
        )
        # A pair handed on is exactly what makes the precedence arc
        # (maker, breaker), so its edge is that arc's edge.
        if maker >= 0 and breaker >= 0 and ends not in weight:
            raise ContractViolation(
                f"rotation {breaker} takes boy {b + 1} from rotation"
                f" {maker}, but the poset has no arc {maker} -> {breaker}"
            )
        weight[ends] = weight.get(ends, 0) + w.table[b][g]

    edges = tuple(Edge(tail, head, wt) for (tail, head), wt in weight.items())
    return ReductionArtifacts(
        poset=poset,
        dag=WeightedDag(k + 2, source, sink, edges, w.scale),
        base_weight=base_weight,
        vertex_of_rotation=vertex_of_rotation,
    )


def cut_to_matching(art: ReductionArtifacts, cut: IdealCut) -> Matching:
    """Translate an ideal cut of the reduction graph into the stable
    matching generated by the rotations on the cut's source side.  Raises
    ContractViolation unless the cut is an ideal cut of ``art.dag``."""
    try:
        check_ideal_cut(art.dag, cut.source_side)
    except ValueError as exc:
        raise ContractViolation(str(exc)) from None
    closed = frozenset(
        rid for rid, v in enumerate(art.vertex_of_rotation) if v in cut.source_side
    )
    return closed_set_to_matching(art.poset, closed)


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
