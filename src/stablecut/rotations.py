"""Rotations of a stable matching instance and their precedence poset.

A rotation is an ordered cycle of matched pairs that can be shifted in one
step to move from a stable matching to the next one below it.  The
predecessor-closed subsets of the rotation poset are in bijection with the
stable matchings, which is what every solver in this package builds on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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


class _ChainWalk:
    """Mutable elimination state along a downward chain of stable matchings.

    Girls only improve along any chain, so each boy's candidate pointer
    moves one way; the walk answers successor queries in amortised
    constant time and stays correct across every elimination it applies.
    """

    def __init__(self, inst: Instance, matching: Matching) -> None:
        self.inst = inst
        self.boy_partner = list(matching.partner_of_boy)
        self.girl_partner = list(matching.partner_of_girl)
        # Next position worth probing in each boy's list, -1 until his
        # first probe.  In a stable matching no girl above the current
        # partner prefers the boy, so that probe starts just below the
        # partner; every boy is probed before he moves.
        self.cursor = [-1] * inst.n

    def successor_girl(self, b: int) -> int:
        """First girl below b's partner who strictly prefers b to her own,
        or -1 when there is none."""
        prefs = self.inst.boy_prefs[b]
        girl_rank, girl_partner = self.inst.girl_rank, self.girl_partner
        i = self.cursor[b]
        if i < 0:
            i = self.inst.boy_rank[b][self.boy_partner[b]] + 1
        n = len(prefs)
        while i < n:
            g = prefs[i]
            rank = girl_rank[g]
            if rank[b] < rank[girl_partner[g]]:
                break
            i += 1
        self.cursor[b] = i
        return prefs[i] if i < n else -1

    def apply_cycle(self, pairs: tuple[Pair, ...]) -> None:
        """Shift every boy in the cycle to the next girl, after verifying the
        cycle really is exposed in the current matching."""
        boy_partner, girl_partner = self.boy_partner, self.girl_partner
        boys, girls = [], []
        for b, g in pairs:
            if boy_partner[b] != g:
                raise ContractViolation(
                    f"rotation pair ({b + 1}, {g + 1}) is not matched here"
                )
            boys.append(b)
            girls.append(g)
        nexts = girls[1:] + girls[:1]  # the girl each boy moves to
        for b, g_next in zip(boys, nexts):
            if self.successor_girl(b) != g_next:
                raise ContractViolation(
                    f"rotation is not exposed: boy {b + 1} does not lead to"
                    f" girl {g_next + 1}"
                )
        for b, g_next in zip(boys, nexts):
            boy_partner[b] = g_next
            girl_partner[g_next] = b

    def matching(self) -> Matching:
        return Matching(tuple(self.boy_partner))


def rotation_count_limit(n: int) -> int:
    """n(n-1)/2: a pair lies in at most one rotation, the n girl-optimal
    pairs lie in none, and every rotation has at least two pairs."""
    return n * (n - 1) // 2


def enumerate_rotations(inst: Instance) -> list[tuple[Pair, ...]]:
    """Discover every rotation of the instance, each as its cycle of
    (boy, girl) pairs rotated so its smallest boy comes first, in
    elimination order.

    One walk keeps a stack of boys from the boy-optimal matching down to
    the girl-optimal one (Gusfield 1987; Gusfield & Irving 1989, 3.2).
    It pushes the partner of the top boy's successor girl; when that boy
    is already on the stack, the stack from him up is an exposed
    rotation, which the walk eliminates at once and pops, continuing
    from the boy below.  No boy left on the stack moves, and only the
    new top's successor girl can have changed, so the stack stays a
    path of successors once the top is probed again.  A boy away from
    his girl-optimal partner has a successor girl, and her partner is
    away from his too, so walks start from such boys, smallest first,
    and never run dry.  Each push is popped by one elimination, so the
    walk probes at most twice per rotation pair plus once per rotation:
    O(n^2) in all.  List positions, the rotation ids, are the
    elimination order and so a topological order of the poset.
    """
    walk = _ChainWalk(inst, gale_shapley(inst, "boys"))
    last = gale_shapley(inst, "girls")
    boy_partner, girl_partner = walk.boy_partner, walk.girl_partner
    order: list[tuple[Pair, ...]] = []
    stack: list[int] = []
    depth = [-1] * inst.n  # each boy's stack position, -1 when off it
    for start in range(inst.n):
        while stack or boy_partner[start] != last.partner_of_boy[start]:
            if not stack:
                depth[start] = 0
                stack.append(start)
            g = walk.successor_girl(stack[-1])
            if g < 0:
                raise ContractViolation(
                    f"boy {stack[-1] + 1} is not girl-optimal but has no successor girl"
                )
            b = girl_partner[g]
            if depth[b] < 0:
                depth[b] = len(stack)
                stack.append(b)
                continue
            cycle = stack[depth[b]:]
            del stack[depth[b]:]
            pivot = cycle.index(min(cycle))
            pairs = tuple((x, boy_partner[x]) for x in cycle[pivot:] + cycle[:pivot])
            for x in cycle:
                depth[x] = -1
            walk.apply_cycle(pairs)
            order.append(pairs)
    if walk.matching() != last:
        raise ContractViolation("elimination chain did not end girl-optimal")
    if len(order) > rotation_count_limit(inst.n):
        raise ContractViolation("rotation count exceeds the n(n-1)/2 bound")
    return order


def _replay(
    rotations: Iterable[tuple[Pair, ...]], m0: Matching
) -> Iterator[tuple[int, int, int, int]]:
    """Replay the rotations, pair cycles whose list position is their id,
    in id order, the elimination order, from the boy-optimal matching m0,
    and yield (b, g, maker, breaker) for every pair a boy holds along the
    chain.

    ``maker`` is the rotation that gave boy b girl g (-1 when the pair is
    boy-optimal) and ``breaker`` the one that moves him on (-1 when he
    keeps her to the end).  Each rotation's pairs come in id order, then
    every boy's final pair by boy id.  Raises ContractViolation when a
    rotation breaks a pair its boy does not hold.
    """
    partner = list(m0.partner_of_boy)
    maker = [-1] * len(partner)
    for rid, rho in enumerate(rotations):
        r = len(rho)
        for i, (b, g) in enumerate(rho):
            if partner[b] != g:
                raise ContractViolation(
                    f"rotation {rid} moves boy {b + 1} from girl {g + 1},"
                    f" but his partner is girl {partner[b] + 1}"
                )
            yield b, g, maker[b], rid
            partner[b] = rho[(i + 1) % r][1]
            maker[b] = rid
    for b, g in enumerate(partner):
        yield b, g, maker[b], -1


def build_poset(inst: Instance) -> RotationPoset:
    """Enumerate rotations and connect them with precedence arcs.

    Two arc families suffice to generate the full precedence order.  If one
    rotation hands a pair to another, the maker precedes the breaker: these
    arcs come straight from :func:`_replay`.  And if a rotation drags boy b
    past a girl g he never stably holds, then g must already rank her
    partner above b at that point, so the unique rotation that lifted g
    across b precedes it.  Ids are the elimination order, so walking the
    rotations in id order meets each girl's rises in the order the chain
    made them, and each rotation's lookups see exactly the rises before it.
    """
    rotations = tuple(enumerate_rotations(inst))
    m0 = gale_shapley(inst, "boys")
    boy_rank, girl_rank = inst.boy_rank, inst.girl_rank
    edges = {
        (maker, breaker)
        for _, _, maker, breaker in _replay(rotations, m0)
        if maker >= 0 and breaker >= 0
    }
    # Per girl, her new partners' negated ranks (ascending) and their lifters.
    rises: list[list[int]] = [[] for _ in range(inst.n)]
    lifters: list[list[int]] = [[] for _ in range(inst.n)]
    for rid, rho in enumerate(rotations):
        r = len(rho)
        for i, (b, g_from) in enumerate(rho):
            g_to = rho[(i + 1) % r][1]
            lo, hi = boy_rank[b][g_from], boy_rank[b][g_to]
            for g in inst.boy_prefs[b][lo + 1 : hi]:
                threshold = girl_rank[g][b]
                if girl_rank[g][m0.partner_of_girl[g]] < threshold:
                    continue
                j = bisect_right(rises[g], -threshold)
                if j == len(rises[g]):
                    raise ContractViolation(
                        f"girl {g + 1} never crosses boy {b + 1} yet a rotation skips her"
                    )
                edges.add((lifters[g][j], rid))
        for i, (b, g) in enumerate(rho):
            rank = girl_rank[g][rho[(i - 1) % r][0]]
            if rank >= girl_rank[g][b]:
                raise ContractViolation(f"girl {g + 1} does not rise to her next partner")
            rises[g].append(-rank)
            lifters[g].append(rid)

    for a, b in edges:
        if a >= b:
            raise ContractViolation(
                f"precedence arc ({a}, {b}) does not follow rotation ids"
            )
    return RotationPoset(
        inst=inst,
        rotations=rotations,
        edges=frozenset(edges),
        preds=tuple(_preds_from_edges(len(rotations), edges)),
    )


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
    walk = _ChainWalk(poset.inst, poset.boy_optimal)
    for rid in sorted(members):
        walk.apply_cycle(poset.rotations[rid])
    return walk.matching()
