"""Enumeration of predecessor-closed subsets (order ideals) of a finite poset."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

S = TypeVar("S")
T = TypeVar("T")


def iter_ideals(count: int, preds: Sequence[frozenset[int]]) -> Iterator[frozenset[int]]:
    """Yield every subset of 0..count-1 that contains all predecessors of
    each of its members, smallest subsets first and lexicographic within a
    size.  ``preds[i]`` are the direct predecessors of element i; the walk
    closes them transitively on its own.

    Memory is proportional to the widest size level, so callers that only
    need a bounded prefix should stop consuming early.
    """
    level: set[frozenset[int]] = {frozenset()}
    while level:
        for ideal in sorted(level, key=lambda c: tuple(sorted(c))):
            yield ideal
        grown: set[frozenset[int]] = set()
        for ideal in level:
            for element in range(count):
                if element not in ideal and preds[element] <= ideal:
                    grown.add(ideal | {element})
        level = grown


def _preds_from_edges(count: int, edges: Iterable[tuple[int, int]]) -> list[frozenset[int]]:
    """Direct predecessor sets of elements 0..count-1 under arcs (a, b),
    each meaning a precedes b."""
    preds: list[set[int]] = [set() for _ in range(count)]
    for a, b in edges:
        preds[b].add(a)
    return [frozenset(p) for p in preds]


def _proper_ideals(count: int, preds: Sequence[frozenset[int]]) -> Iterator[frozenset[int]]:
    """:func:`iter_ideals` without the empty and the full set.  When the
    poles are the unique minimum and maximum, these are exactly the
    ideals that hold the first pole and not the second."""
    full = frozenset(range(count))
    for ideal in iter_ideals(count, preds):
        if ideal and ideal != full:
            yield ideal


def _capped(items: Iterable[S], cap: int, convert: Callable[[S], T]) -> tuple[list[T], bool]:
    """``convert`` applied to the first ``cap`` items, plus whether any item
    was left over.  Only listed items are converted, so the one that
    reveals truncation costs nothing."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    out: list[T] = []
    for item in items:
        if len(out) == cap:
            return out, True
        out.append(convert(item))
    return out, False
