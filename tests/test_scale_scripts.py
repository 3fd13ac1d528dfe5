"""``scripts/enumerate_scale.py`` and ``scripts/parse_scale.py`` end to end
at small n.

Each script measures in one child process per n, so it runs here as a
subprocess, as it does for its users, and must print one JSON line per n.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _rows(script: str, *args: str) -> list[dict]:
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_enumerate_scale_prints_one_sound_line_per_n():
    cap = 20
    rows = _rows("enumerate_scale.py", "--n", "4", "8", "--cap", str(cap))
    assert [row["n"] for row in rows] == [4, 8]
    for row in rows:
        assert 1 <= row["listed"] <= cap
        assert row["meta_elements"] >= 2 and row["subset_checks"] >= 0
        for stage in ("meta_poset", "ideals", "translation", "rendering"):
            assert row[f"{stage}_ms"] >= 0 and row[f"{stage}_cpu_ms"] >= 0
        # Every listed optimum is replayed from the poset's one boy-optimal
        # matching.
        assert row["translation_gale_shapley"] == 1
        assert row["report_mb"] >= 0 and row["peak_rss_mb"] > 0
        assert row["gc_collections"] >= 0 and row["gc_ms"] >= 0
    # Doubling n=8 has far more than 20 stable matchings, all optimal under
    # zero weights.
    assert rows[1]["listed"] == cap


def test_parse_scale_prints_one_sound_line_per_n():
    rows = _rows("parse_scale.py", "--n", "10", "20")
    assert [row["n"] for row in rows] == [10, 20]
    for row in rows:
        assert row["parse_instance_ms"] >= 0 and row["parse_weights_ms"] >= 0
        assert row["instance_mb"] >= 0 and row["weights_mb"] >= 0
        assert row["peak_rss_mb"] > 0 and row["parse_added_rss_mb"] >= 0
