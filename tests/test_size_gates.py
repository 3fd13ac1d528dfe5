"""Size bounds on the rotation poset and the cut graph, checked without a clock.

* Precedence arcs ≤ n².  Each (boy, girl) pair gives at most one arc.
* Cut-graph edges ≤ arcs + 2n.  The only edges that are not precedence
  arcs leave the source or enter the sink, at most one per boy each; a
  change that brings back per-pair edges fails here.

A bound that a change breaks is a finding about the change.  Never raise
a bound to make it pass.
"""

from __future__ import annotations

import random

import pytest

from conftest import family_instance, random_instance, random_weights
from stablecut import build_poset, build_reduction

SEEDS = (1, 2, 3)
CASES = (
    [("doubling", n) for n in (1, 2, 4, 8, 16, 32, 64)]
    + [("cyclic", n) for n in (1, 2, 3, 7, 16, 40)]
    + [("random", n) for n in (1, 2, 5, 16, 40)]
)


@pytest.mark.parametrize("family,n", CASES)
def test_arcs_and_cut_graph_edges_stay_within_their_bounds(family, n):
    for seed in SEEDS:
        rng = random.Random(seed)
        if family == "random":
            inst = random_instance(rng, n)
        else:
            inst = family_instance(family, n, seed)
        poset = build_poset(inst)
        assert len(poset.edges) <= n * n
        dag = build_reduction(poset, random_weights(rng, n)).dag
        assert len(dag.edges) <= len(poset.edges) + 2 * n
