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
from typing import Iterable

from .core import ContractViolation, Instance, Matching, WeightFunction, gale_shapley, matching_weight
from .idealcut import Edge, WeightedDag, _net_outflow, check_ideal_cut, max_weight_ideal_cut
from .rotations import RotationPoset, build_poset, closed_set_to_matching


@dataclass(frozen=True, eq=False)
class ReductionArtifacts:
    """The cut graph plus everything needed to translate answers back.

    ``dag`` vertex 0 is the source, vertex ``len(rotations) + 1`` the sink,
    and rotation r sits at vertex r + 1; without rotations the graph is the
    one edge from source to sink.  A cut of ``dag`` is its source side, a
    frozenset of 0-based vertex ids, and :meth:`rotations_in` reads the
    rotations it holds.  Each edge's (tail, head) is unique, and
    its weight is the total over the varying pairs made at its tail (or
    boy-optimal, at the source) and broken at its head (or kept to the
    girl-optimal matching, at the sink).  ``base_weight`` is the total
    weight of pairs present in every stable matching and must be added to
    any cut weight.  ``net[v]`` is vertex v's out-weight less its
    in-weight, so a cut weighs the sum of ``net`` over its source side.
    ``start`` is a flow on ``dag``, one value per edge, that meets every
    edge's weight and is conserved, for ``min_flow`` to start from: each
    boy some rotation moves sends his cap, the largest weight among his
    varying pairs or 0 if that is larger, along the edges of those pairs,
    which form one source-to-sink path.  The instance is ``poset.inst``.
    """

    poset: RotationPoset
    dag: WeightedDag
    base_weight: int
    net: tuple[int, ...]
    start: tuple[int, ...]

    def rotations_in(self, vertices: Iterable[int]) -> frozenset[int]:
        """The ids of the rotations at the given ``dag`` vertices; the source
        and the sink hold none."""
        sink = self.dag.sink
        return frozenset(v - 1 for v in vertices if 0 < v < sink)


def build_reduction(poset: RotationPoset, w: WeightFunction) -> ReductionArtifacts:
    """Build the weighted cut graph for a rotation poset's instance and
    check it, in one replay of the rotations in id order, the elimination
    order, from the boy-optimal matching m0.

    The replay holds each boy's maker: the vertex of the rotation that
    gave him his partner, or the source.  Each pair a rotation breaks adds
    its weight to the edge from its maker to that rotation, and each final
    pair to the edge from its maker to the sink, or to ``base_weight``
    when no rotation moves its boy.  Each of those pairs also adds its
    boy's cap to its edge's start flow; the caps come first, from one pass
    over the rotations' pairs and the girl-optimal matching.  The poset's
    arcs come first, as zero-weight edges in sorted order; each other edge
    is appended when the replay first puts a pair on it, the final pairs
    by boy.

    Raises ContractViolation when a rotation breaks a pair its boy does
    not hold, a pair is handed between two rotations without their arc,
    the replay does not end at the girl-optimal matching, or a prefix of
    the id order does not transport its weight.  Edges run from lower ids
    to higher ones, so the source plus rotations 0..j-1 is an ideal cut
    whose matching is the replay's after j eliminations: the cut {source}
    must weigh m0 less the base, and each rotation's vertex, out-weight
    less in-weight over the built edges, must weigh what eliminating the
    rotation changes the matching's weight by.  Every edge leaves the
    source or a rotation, so a wrong edge weight fails the check at its
    tail, the first vertex whose weight it changes.  The graph's
    acyclicity and reachability, and the start's lower bounds and
    conservation, are checked once, by the ``min_flow`` that reads them.
    """
    inst = poset.inst
    if w.n != inst.n:
        raise ValueError("weight table size does not match the instance")
    table = w.table
    m0 = gale_shapley(inst, "boys")
    mz = gale_shapley(inst, "girls")
    k = len(poset.rotations)
    source, sink = 0, k + 1

    # A moved boy's varying pairs lie on one source-to-sink path: from the
    # source to the rotation that first moves him, on from each maker to
    # its breaker, and last to the sink.  An edge's weight sums one pair
    # of each boy whose path it is on, so the caps summed along the paths
    # meet every edge's weight, and paths conserve.  A boy no rotation
    # moves gets a cap too, which no edge reads.
    cap = [max(0, table[b][g]) for b, g in enumerate(mz.partner_of_boy)]
    for rho in poset.rotations:
        for b, g in rho:
            if table[b][g] > cap[b]:
                cap[b] = table[b][g]

    # Edge (tail, head) -> its index in weights and start; insertion order
    # is the edge order.  With no rotations the one stable matching is the
    # one ideal cut {source}.  Each key is made after the sort, so the
    # keys lie in memory about in the order the replay looks them up;
    # sorting keys made beforehand made the replay half again as slow
    # at doubling n = 512.
    index: dict[tuple[int, int], int] = {} if k else {(source, sink): 0}
    for a, b in sorted(poset.edges):
        index[(a + 1, b + 1)] = len(index)
    weights = [0] * len(index)
    start = [0] * len(index)

    def new_edge(pair: tuple[int, int]) -> int:
        i = index[pair] = len(index)
        weights.append(0)
        start.append(0)
        return i

    partner = list(m0.partner_of_boy)
    maker = [source] * inst.n  # the vertex that gave each boy his partner
    gain = [0] * sink  # per rotation vertex, its elimination's weight change
    for v, rho in enumerate(poset.rotations, 1):
        for (b, g), (_, g_next) in zip(rho, rho[1:] + rho[:1]):
            if partner[b] != g:
                raise ContractViolation(
                    f"rotation {v - 1} moves boy {b + 1} from girl {g + 1},"
                    f" but his partner is girl {partner[b] + 1}"
                )
            pair = (maker[b], v)
            i = index.get(pair)
            if i is None:
                # A pair handed on is exactly what makes the precedence
                # arc (maker, breaker), so its edge is that arc's edge.
                if maker[b] != source:
                    raise ContractViolation(
                        f"rotation {v - 1} takes boy {b + 1} from rotation"
                        f" {maker[b] - 1}, but the poset has no arc {maker[b] - 1} -> {v - 1}"
                    )
                i = new_edge(pair)
            weights[i] += table[b][g]
            start[i] += cap[b]
            gain[v] += table[b][g_next] - table[b][g]
            partner[b] = g_next
            maker[b] = v
    if tuple(partner) != mz.partner_of_boy:
        raise ContractViolation("rotations do not end at the girl-optimal matching")
    base_weight = 0
    for b, g in enumerate(partner):
        if maker[b] == source:
            # A boy no rotation moves keeps one partner in every stable
            # matching, which only shifts the total by a constant.
            base_weight += table[b][g]
        else:
            pair = (maker[b], sink)
            i = index.get(pair)
            if i is None:
                i = new_edge(pair)
            weights[i] += table[b][g]
            start[i] += cap[b]

    edges = tuple(Edge(tail, head, wt) for (tail, head), wt in zip(index, weights))
    dag = WeightedDag(k + 2, source, sink, edges, w.scale)
    net = _net_outflow(dag, (e.weight for e in dag.edges))
    if net[source] + base_weight != matching_weight(m0, w):
        raise ContractViolation("the cut {source} does not weigh the boy-optimal matching")
    for v in range(1, sink):
        if net[v] != gain[v]:
            raise ContractViolation(
                f"the cut graph weighs rotation {v - 1} at {net[v]}, but eliminating"
                f" it changes the matching's weight by {gain[v]}"
            )
    return ReductionArtifacts(
        poset=poset, dag=dag, base_weight=base_weight, net=tuple(net), start=tuple(start)
    )


def cut_to_matching(art: ReductionArtifacts, side: frozenset[int]) -> Matching:
    """Translate an ideal cut of the reduction graph, given as its source
    side of 0-based vertex ids, into the stable matching generated by the
    rotations there: rotation r is vertex r + 1.  Raises ContractViolation
    unless the side is an ideal cut of ``art.dag``."""
    try:
        check_ideal_cut(art.dag, side)
    except ValueError as exc:
        raise ContractViolation(str(exc)) from None
    return closed_set_to_matching(art.poset, art.rotations_in(side))


def solve_max_weight(inst: Instance, w: WeightFunction) -> tuple[Matching, int]:
    """A maximum-weight stable matching and its scaled weight.

    Among equally heavy optima this returns the pole with the most
    rotations eliminated, which is the girl-favouring end of the optimal
    sublattice.
    """
    art = build_reduction(build_poset(inst), w)
    cut, weight = max_weight_ideal_cut(art.dag, art.start)
    m = cut_to_matching(art, cut)
    total = weight + art.base_weight
    if total != matching_weight(m, w):
        raise ContractViolation("cut weight does not transport to the matching")
    return m, total
