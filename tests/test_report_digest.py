"""A slice of ``scripts/report_digest.py`` pinned byte for byte.

The first 30 instances of the seed-1 corpus give about a thousand CLI
reports (every subcommand, ``--oracle`` included) and the reduction DAG
files they read.  The pin was last moved when the persistent rotation
walk renumbered rotations and the meta-rotations came to be numbered by
their pairs; re-pin only alongside a CHANGES.md entry that says which
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
        "0e31b021a5441ae7faaa72e1f45f44726e4663d0d7521d94e14347db1b6dd84d",
    )
