"""A slice of ``scripts/report_digest.py`` pinned byte for byte.

The first 30 instances of the seed-1 corpus give about a thousand CLI
reports (every subcommand, ``--oracle`` included) and the reduction DAG
files they read.  The pin was taken before the minimum flow moved to
blocking flows; re-pin only alongside a CHANGES.md entry that says which
reports changed and why.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_slice_is_unchanged(tmp_path):
    count, hexdigest = load_script().digest(1, tmp_path, instances=30)
    assert (count, hexdigest) == (
        1018,
        "5021cdc98ed23b52e96fa39da652aa785439047639b9ed7728d5af0a419bc011",
    )
