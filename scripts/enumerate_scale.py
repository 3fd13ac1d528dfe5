"""Stage times and memory of ``enumerate`` on the doubling family.

For each n it writes a relabelled doubling instance (n(n-1)/2 rotations,
drawn with ``bench/families.py``) and an all-zero weight table, so every
stable matching is an optimum, to a temporary directory.  Then one child
process per n imports stablecut, reads both files, and runs the stages of
``stablecut enumerate --cap CAP`` one after another: the meta-rotation
poset, the first CAP + 1 ideals of its condensed poset, the translation of
CAP of them into matchings, and the report.  One JSON line per n gives
each stage's wall time in ms and, as ``<stage>_cpu_ms``, its CPU time,
the report's size, the child's peak RSS after the report, and
``gc_collections`` and ``gc_ms``: the cyclic garbage collector's passes
during the four stages and their wall time in ms (part of the stage
times), read through ``gc.callbacks``; the stages run with the collector
on, as a library caller runs them.  Two
counts come from second, untimed passes: the subset checks the ideal
walk makes, and the ``gale_shapley`` runs that translating the same
ideals makes on a meta poset built afresh.  Linux only: the peak is read
from ``/proc/self/status``.

Usage:
    python scripts/enumerate_scale.py --n 32 64 128 --cap 5000 --seed 1
"""

import argparse
import json
import random
import sys
import tempfile
from itertools import islice
from pathlib import Path

from flow_ladder import _collector_cost, _cpu_key, _timed
from parse_scale import _peak_rss_mb, run_child  # importing it puts this checkout's src first


def _counted(preds: list[frozenset[int]]) -> tuple[list[frozenset[int]], list[int]]:
    """Copies of ``preds`` whose subset checks (``<=``) are tallied in the
    returned one-item list."""
    tally = [0]

    class Counted(frozenset):
        def __le__(self, other):
            tally[0] += 1
            return frozenset.__le__(self, other)

    return [Counted(p) for p in preds], tally


def measure(inst_path: str, weights_path: str, cap: int) -> dict:
    """Run the enumerate stages once in this process; times in ms."""
    from stablecut import cli, rotations
    from stablecut.core import parse_instance, parse_weights
    from stablecut.ideals import _proper_ideals
    from stablecut.sublattice import _elements_to_matching, meta_rotation_poset

    inst = parse_instance(Path(inst_path).read_text())
    w = parse_weights(Path(weights_path).read_text(), inst.n)
    ms: dict[str, float] = {}

    def first_ideals(preds):
        return list(islice(_proper_ideals(preds), cap + 1))

    def translate(q):
        return [_elements_to_matching(q, ideal) for ideal in ideals[:cap]]

    with _collector_cost() as collector:
        p = _timed(meta_rotation_poset, ms, "meta_poset_ms")(inst, w)
        count, preds = len(p.rotation_sets), p.preds
        ideals = _timed(first_ideals, ms, "ideals_ms")(preds)
        matchings = _timed(translate, ms, "translation_ms")(p)
        report = _timed(cli._enumerate_report, ms, "rendering_ms")(matchings, len(ideals) > cap, inst.n)
    peak_rss_mb = _peak_rss_mb()

    counted, checks = _counted(preds)
    first_ideals(counted)
    fresh = meta_rotation_poset(inst, w)
    gale_shapley, runs = rotations.gale_shapley, [0]

    def gale_shapley_counted(*args):
        runs[0] += 1
        return gale_shapley(*args)

    rotations.gale_shapley = gale_shapley_counted
    translate(fresh)
    rotations.gale_shapley = gale_shapley
    return {
        "n": inst.n,
        "meta_elements": count,
        "listed": len(matchings),
        **{key: round(ms[key], 1) for stage in (
            "meta_poset_ms", "ideals_ms", "translation_ms", "rendering_ms",
        ) for key in (stage, _cpu_key(stage))},
        "subset_checks": checks[0],
        "translation_gale_shapley": runs[0],
        "report_mb": round(len(report) / 2**20, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "gc_collections": collector["gc_collections"],
        "gc_ms": round(collector["gc_ms"], 1),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--cap", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    import families

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            inst_path, weights_path = Path(tmp) / f"inst-{n}.txt", Path(tmp) / f"w-{n}.txt"
            boys, girls = families.relabel(rng, *families.doubling_prefs(n))
            families.write_instance(inst_path, boys, girls)
            families.write_weights(weights_path, families.zero_weights(n), 0)
            run_child(__file__, inst_path, weights_path, args.cap)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(measure(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
    else:
        main()
