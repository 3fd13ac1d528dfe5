"""The sublattice of maximum-weight stable matchings.

Condensing the optimal flow's residual graph groups rotations into
meta-rotations.  The first element holds the cut graph's source and the
last its sink.  Closed subsets of the meta-rotation poset that contain
the first element and avoid the last generate exactly the
maximum-weight stable matchings, so the optima inherit meet, join, and
two extreme poles from the full lattice.  A second weight w2 is
optimised over the optima of w1 by one cut on edge weights
spread·w1(e) + w2(e), spread = Σ|w2(e)| + 1: two cuts' w2 weights differ
by less than spread and unequal w1 weights by at least 1, so this orders
cuts by w1 first and w2 second.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .core import ContractViolation, Instance, Matching, WeightFunction, _inverse, matching_weight
from .idealcut import Edge, WeightedDag, condense, max_weight_ideal_cut, min_flow
from .ideals import _preds_from_edges, _proper_ideals
from .reduction import build_reduction, cut_to_matching
from .rotations import Pair, RotationPoset, build_poset, closed_set_to_matching


@dataclass(frozen=True, eq=False)
class MetaRotationPoset:
    """Rotations grouped by residual component, with component precedence.

    ``rotation_sets[i]`` holds the rotation ids of element i; element 0
    holds the source marker and the last element the sink marker (both
    may also hold rotations).  Every rotation belongs to exactly one
    element.  ``preds[i]`` holds the direct predecessors of element i
    under ``edges``.  The instance is ``poset.inst``; ``weight`` is the
    scaled weight under ``w`` that every optimum has.
    """

    poset: RotationPoset
    rotation_sets: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int]]
    preds: tuple[frozenset[int], ...]
    w: WeightFunction
    weight: int


def meta_rotation_poset(inst: Instance, w: WeightFunction) -> MetaRotationPoset:
    """Group rotations by how the optimal flow's residual connects them.

    The elements are numbered by the instance alone, not by the flow or
    the rotation ids: the source element first, the sink element last
    (the one precedes and the other follows every element), and the
    others by Kahn's algorithm, taking the ready element with the
    smallest (boy, girl) pair first.  A pair lies in at most one
    rotation, so no two elements tie.  Raises ContractViolation unless
    the elements partition the rotations, the source element weighs the
    flow's value and every other element but the sink gains nothing:
    each middle element and the ideal just below it are both optimal.
    """
    poset = build_poset(inst)
    art = build_reduction(poset, w)
    flow = min_flow(art.dag, art.start)
    components, edges = condense(art.dag, flow)
    rotation_sets = [art.rotations_in(comp) for comp in components]
    covered: set[int] = set()
    for group in rotation_sets:
        if covered & group:
            raise ContractViolation("a rotation appears in two meta-rotations")
        covered |= group
    if covered != set(range(len(poset.rotations))):
        raise ContractViolation("meta-rotations do not cover every rotation")
    if sum(art.net[v] for v in components[0]) != flow.value:
        raise ContractViolation("the source meta-rotation does not weigh the minimum flow")
    if any(sum(art.net[v] for v in comp) for comp in components[1:-1]):
        raise ContractViolation("a middle meta-rotation changes the optimum's weight")
    last = len(components) - 1
    succs: list[list[int]] = [[] for _ in components]
    waiting = [0] * len(components)
    for a, b in edges:
        if 0 < a and b < last:
            succs[a].append(b)
            waiting[b] += 1

    def ready(i: int) -> tuple[Pair, int]:
        return min(min(poset.rotations[r]) for r in rotation_sets[i]), i

    heap = [ready(i) for i in range(1, last) if not waiting[i]]
    heapify(heap)
    order = [0]
    while heap:
        _, i = heappop(heap)
        order.append(i)
        for j in succs[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heappush(heap, ready(j))
    order.append(last)
    number = _inverse(order)
    edges = frozenset((number[a], number[b]) for a, b in edges)
    return MetaRotationPoset(
        poset=poset,
        rotation_sets=tuple(rotation_sets[i] for i in order),
        edges=edges,
        preds=tuple(_preds_from_edges(len(components), edges)),
        w=w,
        weight=flow.value + art.base_weight,
    )


def _elements_to_matching(p: MetaRotationPoset, subset: frozenset[int]) -> Matching:
    closed: set[int] = set()
    for i in subset:
        closed |= p.rotation_sets[i]
    return closed_set_to_matching(p.poset, frozenset(closed))


def closed_subset_to_max_matching(
    p: MetaRotationPoset, subset: frozenset[int]
) -> Matching:
    """The maximum-weight matching generated by a closed subset of
    meta-rotations containing the source element 0 and not the last, the
    sink element.  Raises ContractViolation unless it weighs ``p.weight``."""
    subset = frozenset(subset)
    for i in subset:
        if not 0 <= i < len(p.rotation_sets):
            raise ValueError(f"meta-rotation index {i} out of range")
    if 0 not in subset:
        raise ContractViolation("subset must contain the source element")
    if len(p.rotation_sets) - 1 in subset:
        raise ContractViolation("subset must not contain the sink element")
    preds = p.preds
    if not all(preds[i] <= subset for i in subset):
        raise ContractViolation("subset is not predecessor-closed")
    m = _elements_to_matching(p, subset)
    if matching_weight(m, p.w) != p.weight:
        raise ContractViolation("meta-rotation matching does not weigh the optimum")
    return m


def boy_optimal_max(p: MetaRotationPoset) -> Matching:
    """The optimum every boy weakly prefers: only the source element's
    rotations, element 0's, are eliminated."""
    return closed_subset_to_max_matching(p, frozenset({0}))


def girl_optimal_max(p: MetaRotationPoset) -> Matching:
    """The optimum every girl weakly prefers: everything but the sink
    element, the last one, is eliminated."""
    return closed_subset_to_max_matching(p, frozenset(range(len(p.rotation_sets) - 1)))


def enumerate_max_matchings(p: MetaRotationPoset, cap: int) -> tuple[list[Matching], bool]:
    """All maximum-weight stable matchings, by size then lexicographic
    ideal, with a truncation flag once ``cap`` results are out.

    The walk stops at the ideal after the ``cap``-th, which shows
    truncation and is never translated.  Every element other than the
    poles holds a rotation, so distinct ideals give distinct matchings; a
    repeat is a ContractViolation.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    out: list[Matching] = []
    truncated = False
    for ideal in _proper_ideals(p.preds):
        if len(out) == cap:
            truncated = True
            break
        out.append(_elements_to_matching(p, ideal))
    if len({m.partner_of_boy for m in out}) != len(out):
        raise ContractViolation("two meta-rotation ideals give the same matching")
    return out, truncated


def solve_bi_objective(
    inst: Instance, w1: WeightFunction, w2: WeightFunction
) -> tuple[Matching, int, int]:
    """Maximise w2 over the maximum-w1 stable matchings.

    One maximum-weight ideal cut with edge weights spread·w1(e) + w2(e),
    spread = Σ|w2(e)| + 1: two cuts' w2 weights differ by less than spread
    and unequal w1 weights by at least 1.  Of the optima it takes the
    largest source side, the girl-most one.  Returns both scaled weights.
    The combined graph's flow starts along first edges (``feasible_flow``):
    the two reductions' boys'-path starts, combined the same way, took
    three to four times as many augmentations there on doubling n = 64.
    """
    poset = build_poset(inst)
    art1, art2 = build_reduction(poset, w1), build_reduction(poset, w2)
    g, e2 = art1.dag, art2.dag.edges
    if [e[:2] for e in g.edges] != [e[:2] for e in e2]:
        raise ContractViolation("the two weights' cut graphs list different edges")
    spread = sum(abs(e.weight) for e in e2) + 1
    edges = tuple(Edge(a.tail, a.head, spread * a.weight + b.weight) for a, b in zip(g.edges, e2))
    cut, weight = max_weight_ideal_cut(WeightedDag(g.num_vertices, g.source, g.sink, edges))
    m = cut_to_matching(art1, cut)
    v1, v2 = matching_weight(m, w1), matching_weight(m, w2)
    if weight != spread * (v1 - art1.base_weight) + (v2 - art2.base_weight):
        raise ContractViolation("lexicographic cut weight does not transport to the matching")
    return m, v1, v2
