"""The order ``stablecut enumerate`` lists optima in, pinned.

Optima are listed by size then lexicographic over the meta-rotation ideals,
and the meta-rotations are numbered in the order ``condense`` lists the
residual components.  That is one topological order among several, and
which one comes out depends on which minimum flow ``min_flow`` returns, so
an engine change that returns another minimum flow can reorder a listing
or, under ``--cap``, change which optima are listed, while every other
check still passes.  The relabelled doubling family with 0..1 weights ties
often enough to have many optima and several component orders.

The pins below are the sha256 of each whole report.  Re-pin them only
alongside a CHANGES.md entry that names the listings that were reordered
and the engine change that reordered them.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import families
from stablecut.cli import RunConfig, run

N = 32
CAP = 50
REPORT_SHA256 = {
    1: "82a061c567126af8e5ca41a53bc2e4b0ab7be25eb66fe0d45220d5d4006eea59",
    2: "1ae7b973998e90d86333e97eaa89011a10c2bc0312af3a416a5353366dc0beae",
    3: "410cc4bab3b282fb291231e6fcc0669bf9b936532129915222b8a5dd01625fd6",
    4: "3cfd4f20be52238089b0eb4da87df85bda2540a41eef42884fee7a89239f20fd",
    5: "aa103a2b8e341a250a9bf4b9289c5ff908916c6c885fb940f0448de792798785",
}


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_enumerate_listing_order_is_pinned(tmp_path, seed):
    rng = random.Random(seed)
    inst, w = tmp_path / "inst.txt", tmp_path / "w.txt"
    families.write_instance(inst, *families.relabel(rng, *families.doubling_prefs(N)))
    families.write_weights(w, families.random_weights(rng, N, 0, 1, 0), 0)
    status, report = run(
        RunConfig("enumerate", instance_path=str(inst), weights_path=str(w), cap=CAP)
    )
    assert status == 0
    assert report.startswith(f"count {CAP}\n") and report.endswith("truncated: yes")
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[seed]
