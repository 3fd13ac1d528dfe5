"""The order ``stablecut enumerate`` lists optima in, pinned.

Optima are listed by size then lexicographic over the meta-rotation ideals.
The meta-rotations are numbered by the instance alone: the source element
first, the sink element last, and the others by Kahn's algorithm taking
the ready element with the smallest (boy, girl) pair first.  So neither
the minimum flow that ``min_flow`` happens to return nor the order in
which the rotation walk discovers rotations can reorder a listing, or,
under ``--cap``, change which optima are listed; the three-way test below
checks both.  The relabelled doubling family with 0..1 weights ties often
enough to have many optima and several orders between them.

The pins below are the sha256 of each whole report, and they guard the
numbering rule.  Re-pin them only alongside a CHANGES.md entry that names
the listings that were reordered and the change that reordered them.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import families
from stablecut import sublattice
from stablecut.cli import RunConfig, run
from test_min_flow_engine import edmonds_karp_min_flow

N = 32
CAP = 50
REPORT_SHA256 = {
    1: "c3daff293492e9f19a30170391788e7a9d7dd3d72821606ad85e823107530790",
    2: "0d06865c9abe9976726e795bf5daf636a94288d63dcd6380dbb971e461fc27ea",
    3: "4f943049cb1a5e4e422ca8cf96db7e83fd8601aa72b1574f9db226c1cd69a908",
    4: "0c239162b0c8e5ba5a6962282be563f9c1cc3f4b385056d80a23551f841953ad",
    5: "98162113e3beb1ae121b6278b58772046764244a83531ba49712dcb9ed2a26b1",
}


def enumerate_report(tmp_path, prefs, table) -> str:
    inst, w = tmp_path / "inst.txt", tmp_path / "w.txt"
    families.write_instance(inst, *prefs)
    families.write_weights(w, table, 0)
    status, report = run(
        RunConfig("enumerate", instance_path=str(inst), weights_path=str(w), cap=CAP)
    )
    assert status == 0, report
    return report


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_enumerate_listing_order_is_pinned(tmp_path, seed):
    rng = random.Random(seed)
    prefs = families.relabel(rng, *families.doubling_prefs(N))
    report = enumerate_report(tmp_path, prefs, families.random_weights(rng, N, 0, 1, 0))
    assert report.startswith(f"count {CAP}\n") and report.endswith("truncated: yes")
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[seed]


def listing_corpus() -> list[tuple[tuple[families.Prefs, families.Prefs], list[list[int]]]]:
    """300 seeded inputs with weights in {-1, 0, 1}, a third each random
    n = 4..9, relabelled cyclic n = 4..10 and relabelled doubling n = 8
    or 16, then relabelled doubling n = 32, 32, 64 and 64 with tied 0..1
    weights."""
    rng = random.Random(12)
    corpus = []
    for i in range(300):
        if i % 3 == 0:
            prefs = families.random_prefs(rng, rng.randint(4, 9))
        elif i % 3 == 1:
            prefs = families.relabel(rng, *families.cyclic_prefs(rng.randint(4, 10)))
        else:
            prefs = families.relabel(rng, *families.doubling_prefs(rng.choice((8, 16))))
        corpus.append((prefs, families.random_weights(rng, len(prefs[0]), -1, 1, 0)))
    for n in (32, 32, 64, 64):
        prefs = families.relabel(rng, *families.doubling_prefs(n))
        corpus.append((prefs, families.random_weights(rng, n, 0, 1, 0)))
    return corpus


def test_listing_follows_neither_the_flow_nor_the_rotation_ids(
    tmp_path, monkeypatch, shuffled_rotation_ids
):
    corpus = listing_corpus()
    reports = [enumerate_report(tmp_path, *case) for case in corpus]
    # The optima, unlike their order, are the instance's: 126 of the 304
    # listings hold more than one.
    assert sum(not r.startswith("count 1\n") for r in reports) == 126
    with monkeypatch.context() as m:
        m.setattr(sublattice, "min_flow", edmonds_karp_min_flow)
        assert [enumerate_report(tmp_path, *case) for case in corpus] == reports
    moved = shuffled_rotation_ids(12)
    assert [enumerate_report(tmp_path, *case) for case in corpus] == reports
    # The ids moved on 108 of the 304 inputs.
    assert (sum(moved), len(moved)) == (108, 304)
