"""Stage times of one weighted solve up the doubling and cyclic ladders.

For each family and n, one child process imports stablecut, draws a
relabelled instance of the family (``bench/families.py``) with -9..9
integer weights, seeded by (family, n, seed), and runs ``build_poset``,
``build_reduction`` and ``max_weight_ideal_cut`` once each, the cut from
the reduction's boys'-path start as the solvers run it.  Inside the
poset it times the rotation walk (``rotations._walk``: rotation
discovery and precedence arcs) and reads the successor probes the walk
counts; inside the cut it times ``min_flow`` and counts the flow's
phases (its level searches).  After the solve it times one
``feasible_flow`` on the same graph, the start that ``cut-solve`` and a
bare ``min_flow(g)`` take, for its value.  One JSON line per n gives the
rotation count and the rotations' total size in pairs, the cut graph's
V and E, each stage's wall time in ms (``rotations_ms`` is part of
``build_poset_ms``, ``cut_ms`` includes ``min_flow_ms``, and
``feasible_flow_ms`` is part of neither) and next to it, as
``<stage>_cpu_ms``, the process's CPU time in the stage, which other
load on a shared machine disturbs less than wall time; then the probes
(at most twice the rotation pairs plus the rotations), the phases, the
boys'-path start's value (``start_value``), the first-edge start's
(``feasible_value``), the minimum flow's value, the child's peak RSS
during the solve, and ``gc_collections`` and ``gc_ms``: the cyclic
garbage collector's passes during the three stages and their wall time
in ms (part of the stage times), read through ``gc.callbacks``.  The stages
run with the collector on, as a library caller runs them; ``stablecut``'s
command line pauses it for each request.  Linux only: the peak is read
from ``/proc/self/status``.
Random instances are parse-bound and have few rotations;
``parse_scale.py`` covers them.

Usage:
    python scripts/flow_ladder.py --doubling 32 64 128 256 --cyclic 100 200 400 800
"""

import argparse
import gc
import json
import random
import sys
from contextlib import contextmanager
from time import perf_counter, process_time

from parse_scale import _peak_rss_mb, run_child  # importing it puts this checkout's src first


def _timed(fn, into: dict, key: str):
    """``fn`` with its wall time in ms added to ``into[key]`` and its CPU
    time in ms to ``into[_cpu_key(key)]`` on every call."""
    cpu_key = _cpu_key(key)

    def run(*args):
        start, cpu_start = perf_counter(), process_time()
        try:
            return fn(*args)
        finally:
            into[key] = into.get(key, 0.0) + (perf_counter() - start) * 1e3
            into[cpu_key] = into.get(cpu_key, 0.0) + (process_time() - cpu_start) * 1e3

    return run


def _cpu_key(key: str) -> str:
    """``<stage>_cpu_ms`` for the wall-time key ``<stage>_ms``."""
    return key.removesuffix("_ms") + "_cpu_ms"


@contextmanager
def _collector_cost():
    """Yields a dict that counts, while the block runs, the cyclic
    collector's passes (``gc_collections``) and their wall time in ms
    (``gc_ms``)."""
    into = {"gc_collections": 0, "gc_ms": 0.0}
    started = [0.0]

    def watch(phase: str, _info: dict) -> None:
        if phase == "start":
            started[0] = perf_counter()
        else:
            into["gc_collections"] += 1
            into["gc_ms"] += (perf_counter() - started[0]) * 1e3

    gc.callbacks.append(watch)
    try:
        yield into
    finally:
        gc.callbacks.remove(watch)


def measure(family: str, n: int, seed: int) -> dict:
    """Solve one seeded weighted instance in this process; times in ms."""
    import families
    from stablecut import Instance, WeightFunction, build_poset, build_reduction, idealcut, rotations

    rng = random.Random(f"{family}-{n}-{seed}")
    prefs = families.doubling_prefs(n) if family == "doubling" else families.cyclic_prefs(n)
    boys, girls = families.relabel(rng, *prefs)
    inst = Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))
    w = WeightFunction(tuple(map(tuple, families.random_weights(rng, n, -9, 9, 0))))
    del prefs, boys, girls

    ms: dict[str, float] = {}
    phases = [0]
    levels = idealcut._source_levels

    def levels_counted(*args):
        phases[0] += 1
        return levels(*args)

    idealcut.min_flow = _timed(idealcut.min_flow, ms, "min_flow_ms")
    idealcut._source_levels = levels_counted
    probes: list[int] = []
    walk = _timed(rotations._walk, ms, "rotations_ms")

    def walk_counted(*args):
        found = walk(*args)
        probes.append(found[2])  # the whole result, kept, would add to the peak RSS
        return found

    rotations._walk = walk_counted

    with _collector_cost() as collector:
        poset = _timed(build_poset, ms, "build_poset_ms")(inst)
        art = _timed(build_reduction, ms, "build_reduction_ms")(poset, w)
        _, weight = _timed(idealcut.max_weight_ideal_cut, ms, "cut_ms")(art.dag, art.start)
    peak_rss_mb = _peak_rss_mb()
    dag = art.dag
    start_value = sum(art.start[i] for i in dag.out_edges[dag.source])
    feasible_value = _timed(idealcut.feasible_flow, ms, "feasible_flow_ms")(dag).value
    return {
        "family": family,
        "n": n,
        "rotations": len(poset.rotations),
        "rotation_pairs": sum(map(len, poset.rotations)),
        "vertices": art.dag.num_vertices,
        "edges": len(art.dag.edges),
        **{key: round(ms[key], 1) for stage in (
            "build_poset_ms", "rotations_ms", "build_reduction_ms",
            "feasible_flow_ms", "min_flow_ms", "cut_ms",
        ) for key in (stage, _cpu_key(stage))},
        "probes": probes[0],
        # The last level search finds that the sink cannot reach the source.
        "phases": phases[0],
        "start_value": start_value,
        "feasible_value": feasible_value,
        "min_value": weight,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "gc_collections": collector["gc_collections"],
        "gc_ms": round(collector["gc_ms"], 1),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--doubling", type=int, nargs="*", default=[32, 64, 128, 256])
    parser.add_argument("--cyclic", type=int, nargs="*", default=[100, 200, 400, 800])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for family, sizes in (("doubling", args.doubling), ("cyclic", args.cyclic)):
        for n in sizes:
            run_child(__file__, family, n, args.seed)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(measure(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))
    else:
        main()
