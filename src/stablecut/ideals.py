"""Enumeration of predecessor-closed subsets (order ideals) of a finite poset."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def iter_ideals(preds: Sequence[frozenset[int]]) -> Iterator[frozenset[int]]:
    """Yield every subset of 0..len(preds)-1 that contains all predecessors of
    each of its members, smallest subsets first and lexicographic within a
    size.  ``preds[i]`` are the direct predecessors of element i; the walk
    closes them transitively on its own.

    Every predecessor must have a smaller id than its element; raises
    ValueError otherwise.  Then removing an ideal's largest element leaves
    an ideal, its one parent, so each ideal is built exactly once: from its
    parent J, by adding one of J's candidates, the elements above max J
    whose predecessors all lie in J.  Each ideal carries its candidates in
    increasing id (Squire 1995).  A child J + e keeps J's candidates above
    e and gains those successors of e whose predecessors all lie in J + e,
    so only e's successors are ever checked; a child that gains none
    shares J's list, read from the entry after e.  Walking the previous
    level in order, and each J's candidates upwards, gives lexicographic
    order, and each ideal is yielded as soon as it is built.  Memory is the
    last size level plus the one being built, each ideal with its
    candidate list, so callers that only need a bounded prefix should stop
    consuming early.
    """
    succs: list[list[int]] = [[] for _ in range(len(preds))]
    minimal = []
    for element, below in enumerate(preds):
        for p in below:
            if not 0 <= p < element:
                raise ValueError(f"element {element} has predecessor {p}, which is not smaller")
            succs[p].append(element)
        if not below:
            minimal.append(element)
    yield frozenset()
    # Each ideal with a list whose entries from ``start`` on are its candidates.
    level: list[tuple[frozenset[int], list[int], int]] = [(frozenset(), minimal, 0)]
    while level:
        grown: list[tuple[frozenset[int], list[int], int]] = []
        for ideal, candidates, start in level:
            for i in range(start, len(candidates)):
                element = candidates[i]
                child = ideal | {element}
                yield child
                gained = [s for s in succs[element] if preds[s] <= child]
                if gained:
                    grown.append((child, sorted(candidates[i + 1 :] + gained), 0))
                else:
                    grown.append((child, candidates, i + 1))
        level = grown


def _preds_from_edges(count: int, edges: Iterable[tuple[int, int]]) -> list[frozenset[int]]:
    """Direct predecessor sets of elements 0..count-1 under arcs (a, b),
    each meaning a precedes b."""
    preds: list[set[int]] = [set() for _ in range(count)]
    for a, b in edges:
        preds[b].add(a)
    return [frozenset(p) for p in preds]


def _proper_ideals(preds: Sequence[frozenset[int]]) -> Iterator[frozenset[int]]:
    """:func:`iter_ideals` without the empty and the full set.  When the
    poles are the unique minimum and maximum, these are exactly the
    ideals that hold the first pole and not the second."""
    full = frozenset(range(len(preds)))
    for ideal in iter_ideals(preds):
        if ideal and ideal != full:
            yield ideal
