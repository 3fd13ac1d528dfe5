"""Rotations of a stable matching instance and their precedence poset.

A rotation is an ordered cycle of matched pairs that can be shifted in one
step to move from a stable matching to the next one below it.  The
predecessor-closed subsets of the rotation poset are in bijection with the
stable matchings, which is what every solver in this package builds on.

One elimination walk from the boy-optimal matching to the girl-optimal
one (:func:`_walk`) discovers the rotations and records each precedence
arc as it eliminates the rotation at its head, so the poset takes one pass
over the pairs; :func:`build_poset` is its one caller.
:func:`closed_set_to_matching` eliminates a closed set, checking that each
rotation is exposed when its turn comes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import ContractViolation, Instance, Matching, gale_shapley
from .ideals import _preds_from_edges

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class RotationPoset:
    """All rotations of the instance ``inst`` plus their precedence arcs.

    ``rotations[r]`` is rotation r, an ordered cycle ((b0, g0), ...,
    (bk-1, gk-1)) of matched (boy, girl) pairs; its id r is its discovery
    index, which is also its elimination order.  An arc (a, b) in
    ``edges`` means rotation a precedes rotation b: any predecessor-closed
    subset containing b must contain a.  Every arc has a < b, so
    increasing id is a topological order.  ``preds[r]`` holds
    the tails of the arcs into r.  :func:`build_poset` stores the
    instance it enumerated, so consumers take the poset alone and cannot
    pair it with another instance.
    """

    inst: Instance
    rotations: tuple[tuple[Pair, ...], ...]
    edges: frozenset[tuple[int, int]]
    preds: tuple[frozenset[int], ...]

    def is_closed(self, members: frozenset[int]) -> bool:
        return all(self.preds[r] <= members for r in members)

    @cached_property
    def boy_optimal(self) -> Matching:
        """The instance's boy-optimal matching, which every closed set is
        eliminated from: one Gale–Shapley run, made the first time it is
        read and kept for the life of the poset."""
        return gale_shapley(self.inst, "boys")


def rotation_count_limit(n: int) -> int:
    """n(n-1)/2: a pair lies in at most one rotation, the n girl-optimal
    pairs lie in none, and every rotation has at least two pairs."""
    return n * (n - 1) // 2


Walk = tuple[list[tuple[Pair, ...]], set[tuple[int, int]], int]


def _walk(inst: Instance, top: Matching, bottom: Matching, floor: Matching) -> Walk:
    """Eliminate rotations from the boy-optimal matching ``top`` down to
    the girl-optimal ``bottom``, recording every rotation and every
    precedence arc as the walk meets it.  Returns the rotations in
    elimination order, the precedence arcs between their ids, and the
    successor probes the walk made.

    One walk keeps a stack of boys (Gusfield 1987; Gusfield & Irving
    1989, 3.2).  It pushes the partner of the top boy's successor girl,
    the first girl below the top boy's partner who strictly prefers him
    to her own.  When that boy is already on the stack, the stack from
    him up is an exposed rotation, which the walk eliminates at once and
    pops, continuing from the boy below.  No boy left on the stack moves,
    and only the new top's successor girl can have changed, so the stack
    stays a path of successors once the top is probed again.  Girls only
    rise, so each boy's probe position only moves down his list.  A boy
    away from his girl-optimal partner has a successor girl, and her
    partner is away from his too, so walks start from such boys, smallest
    first, and never run dry.  Each push is popped by one elimination,
    whose exposure check probes each of its boys once more, so the walk
    makes at most two probes per rotation pair plus one per rotation:
    O(n^2) in all.  Rotation ids, list positions, are the elimination
    order and so a topological order of the poset.

    Two arc families generate the precedence order (Gusfield & Irving
    1989, 3.3), and each arc is recorded when its head is eliminated.
    The rotation that gave a boy his partner precedes the one that moves
    him on.  And a girl g that a probe of boy b skips already ranks her
    partner above b; unless her partner in ``floor`` did, a rotation has
    lifted her across b, and it precedes the rotation that moves b past
    her.  Each girl's rises are kept as her partners' negated ranks
    (ascending) beside their lifters, starting from her partner in
    ``floor``, so the probe finds that lifter by one bisect, and b keeps
    it until he moves.  A rise is only recorded when it is above the last
    one.

    Then an end check confirms that no rotation is exposed in the final
    matching, whatever ``bottom`` said.  ``probes`` counts the walk's
    successor probes, exposure checks included.  Raises
    ContractViolation when a boy away from ``bottom`` has no successor
    girl, when a girl does not rise or a skipped girl has no lifter in
    her rises, or when the end check finds an exposed rotation.
    """
    n = inst.n
    boy_prefs, boy_rank, girl_rank = inst.boy_prefs, inst.boy_rank, inst.girl_rank
    boy_partner = list(top.partner_of_boy)
    girl_partner = list(top.partner_of_girl)
    last = bottom.partner_of_boy
    # Next position worth probing in each boy's list: in a stable matching
    # no girl above a boy's partner prefers him.
    cursor = [boy_rank[b][g] + 1 for b, g in enumerate(boy_partner)]
    maker = [-1] * n  # the rotation that gave each boy his partner
    floor_rank = [girl_rank[g][b] for g, b in enumerate(floor.partner_of_girl)]
    negated = [-r for r in range(n)]  # one int per rank, shared by every rise
    rises = [[negated[r]] for r in floor_rank]
    lifters = [[-1] for _ in range(n)]
    crossed: list[list[int]] = [[] for _ in range(n)]  # lifters of girls each boy skipped
    rotations: list[tuple[Pair, ...]] = []
    edges: set[tuple[int, int]] = set()
    stack: list[int] = []
    depth = [-1] * n  # each boy's stack position, -1 when off it
    probes = 0
    for start in range(n):
        while stack or boy_partner[start] != last[start]:
            if not stack:
                depth[start] = 0
                stack.append(start)
            b = stack[-1]
            prefs, i, skipped = boy_prefs[b], cursor[b], crossed[b]
            while i < n:
                g = prefs[i]
                row = girl_rank[g]
                r = row[b]
                if r < row[girl_partner[g]]:
                    break
                if r < floor_rank[g]:  # a rotation has lifted her across b
                    k = bisect_right(rises[g], -r)
                    if k == len(rises[g]):
                        raise ContractViolation(
                            f"girl {g + 1} never crosses boy {b + 1} yet a rotation skips her"
                        )
                    skipped.append(lifters[g][k])
                i += 1
            cursor[b] = i
            probes += 1
            if i == n:
                raise ContractViolation(
                    f"boy {b + 1} is not girl-optimal but has no successor girl"
                )
            b = girl_partner[prefs[i]]
            d = depth[b]
            if d < 0:
                depth[b] = len(stack)
                stack.append(b)
                continue
            cycle = stack[d:]
            del stack[d:]
            pivot = cycle.index(min(cycle))
            cycle = cycle[pivot:] + cycle[:pivot]
            girls = [boy_partner[x] for x in cycle]
            rid = len(rotations)
            rotations.append(tuple(zip(cycle, girls)))
            before = {maker[x] for x in cycle}
            probes += len(cycle)
            for x, g in zip(cycle, girls[1:] + girls[:1]):  # g: the girl x moves to
                pos = cursor[x]
                if boy_prefs[x][pos] != g:
                    raise ContractViolation(
                        f"rotation is not exposed: boy {x + 1} does not lead to girl {g + 1}"
                    )
                if crossed[x]:
                    before.update(crossed[x])
                    crossed[x] = []
                r = negated[girl_rank[g][x]]
                if r <= rises[g][-1]:
                    raise ContractViolation(f"girl {g + 1} does not rise to her next partner")
                rises[g].append(r)
                lifters[g].append(rid)
                boy_partner[x] = g
                girl_partner[g] = x
                maker[x] = rid
                cursor[x] = pos + 1
                depth[x] = -1
            before.discard(-1)
            edges.update((a, rid) for a in before)

    # No rotation is exposed in the final matching: the successor chains
    # have no cycle.  Each boy's successor girl is found from the girls'
    # side, since only a boy that a girl ranks above her partner can have
    # her as his, and positions above his cursor hold none.
    found = [n] * n  # per boy, his successor girl's list position
    for g, b in enumerate(girl_partner):
        for x in inst.girl_prefs[g][: girl_rank[g][b]]:
            pos = boy_rank[x][g]
            if cursor[x] <= pos < found[x]:
                found[x] = pos
    seen = [0] * n  # 1 on the chain being followed, 2 once known acyclic
    for b in range(n):
        chain = []
        while b >= 0 and not seen[b]:
            seen[b] = 1
            chain.append(b)
            b = girl_partner[boy_prefs[b][found[b]]] if found[b] < n else -1
        if b >= 0 and seen[b] == 1:
            raise ContractViolation("elimination chain did not end girl-optimal")
        for x in chain:
            seen[x] = 2
    if len(rotations) > rotation_count_limit(n):
        raise ContractViolation("rotation count exceeds the n(n-1)/2 bound")
    return rotations, edges, probes


def enumerate_rotations(inst: Instance) -> list[tuple[Pair, ...]]:
    """Every rotation of the instance, each as its cycle of (boy, girl)
    pairs rotated so its smallest boy comes first, in elimination order:
    :func:`build_poset`'s rotations as a list, with the same checks."""
    return list(build_poset(inst).rotations)


def build_poset(inst: Instance) -> RotationPoset:
    """The rotations and precedence arcs of one :func:`_walk` from the
    boy-optimal matching to the girl-optimal one.  The girls' rises start
    from a second boy-optimal run, so a wrong start that lifted a girl the
    walk then skips fails a check; not every wrong start does.  Raises
    ContractViolation unless every arc runs from a lower id to a higher one."""
    rotations, edges, _ = _walk(
        inst, gale_shapley(inst, "boys"), gale_shapley(inst, "girls"), gale_shapley(inst, "boys")
    )
    for a, b in edges:
        if a >= b:
            raise ContractViolation(
                f"precedence arc ({a}, {b}) does not follow rotation ids"
            )
    return RotationPoset(
        inst=inst,
        rotations=tuple(rotations),
        edges=frozenset(edges),
        preds=tuple(_preds_from_edges(len(rotations), edges)),
    )


def _eliminate(inst: Instance, m: Matching, rotations: Iterable[tuple[Pair, ...]]) -> Matching:
    """Eliminate the rotations in turn from the stable matching m, each
    after checking that it is exposed: its pairs are matched, and each of
    its boys' successor girls, the first girl below his partner who
    prefers him to her own, is the next pair's girl."""
    boy_prefs, boy_rank, girl_rank = inst.boy_prefs, inst.boy_rank, inst.girl_rank
    boy_partner = list(m.partner_of_boy)
    girl_partner = list(m.partner_of_girl)
    for rho in rotations:
        for b, g in rho:
            if boy_partner[b] != g:
                raise ContractViolation(
                    f"rotation pair ({b + 1}, {g + 1}) is not matched here"
                )
        nexts = [g for _, g in rho[1:]]
        nexts.append(rho[0][1])  # the girl each boy moves to
        for (b, g), g_next in zip(rho, nexts):
            lo, hi = boy_rank[b][g], boy_rank[b][g_next]
            rank = girl_rank[g_next]
            exposed = lo < hi and rank[b] < rank[girl_partner[g_next]]
            for h in boy_prefs[b][lo + 1 : hi]:
                if girl_rank[h][b] < girl_rank[h][girl_partner[h]]:
                    exposed = False
            if not exposed:
                raise ContractViolation(
                    f"rotation is not exposed: boy {b + 1} does not lead to girl {g_next + 1}"
                )
        for (b, _), g_next in zip(rho, nexts):
            boy_partner[b] = g_next
            girl_partner[g_next] = b
    return Matching(tuple(boy_partner))


def closed_set_to_matching(poset: RotationPoset, closed: Iterable[int]) -> Matching:
    """Eliminate exactly the rotations in ``closed`` from the poset's
    boy-optimal matching, in increasing id, which is a precedence order.
    The walk copies that matching, so the poset's stays as it was.  Raises
    ContractViolation when the set is not predecessor-closed."""
    members = frozenset(closed)
    for rid in members:
        if not 0 <= rid < len(poset.rotations):
            raise ValueError(f"rotation id {rid} out of range")
    if not poset.is_closed(members):
        raise ContractViolation("rotation set is not predecessor-closed")
    return _eliminate(poset.inst, poset.boy_optimal, (poset.rotations[r] for r in sorted(members)))
