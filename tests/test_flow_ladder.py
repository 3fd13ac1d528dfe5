"""``scripts/flow_ladder.py`` end to end on small rungs.

The script patches ``idealcut`` in the process that measures and never
restores it, so it runs here as a subprocess, as it does for its users.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "flow_ladder.py"


def test_flow_ladder_prints_one_sound_line_per_rung():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--doubling", "8", "--cyclic", "10"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(row["family"], row["n"]) for row in rows] == [("doubling", 8), ("cyclic", 10)]
    for row in rows:
        assert row["phases"] >= 1
        assert row["min_value"] <= row["feasible_value"]
        assert 0 <= row["rotations_ms"] <= row["build_poset_ms"]
        stages = ("build_poset", "rotations", "build_reduction", "feasible_flow", "min_flow", "cut")
        for stage in stages:
            assert 0 <= row[f"{stage}_cpu_ms"]
        assert row["gc_collections"] >= 0 and row["gc_ms"] >= 0
        # Each push is popped by an elimination: see test_rotations.
        assert row["probes"] <= 2 * row["rotation_pairs"] + row["rotations"]
    assert [(row["rotations"], row["rotation_pairs"]) for row in rows] == [(28, 56), (9, 90)]
    # Doubling n=8 probes as often as test_rotations.SEEDED_PROBES pins.
    # Cyclic n=10 walks each of its 9 rotations afresh from boy 1: 9
    # probes that push, 1 that closes the cycle and 10 exposure checks.
    assert [row["probes"] for row in rows] == [128, 180]
