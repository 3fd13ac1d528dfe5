"""One digest over the command line reports of a fixed seeded corpus.

Draws random, relabelled cyclic and relabelled doubling instances with
n <= 16 from ``bench/families.py``, each with wide, coarse, zero and
2-decimal weight tables, writes them to a temporary directory and runs
``stablecut.cli.run`` on every configuration: ``solve`` (default,
``--pole boy``, ``--pole girl``, and ``--oracle`` for n <= 7),
``enumerate`` (caps 1 and 50), ``bi-objective`` and ``poset``.  Each
weight table's reduction DAG is written as a DAG file and run through
``cut-solve``, plus ``--oracle`` for DAGs of at most 20 vertices.  It prints
the report count and one sha256 over (configuration, DAG file text for
``cut-solve`` runs, exit status, report), with file paths given relative
to the temporary directory, so two checkouts print the same line exactly
when every report and every written DAG is byte-identical; a change to a
cut graph's edge order or weights shows even when its max cuts do not
move.

Usage:
    python scripts/report_digest.py --seed 1
"""

import argparse
import hashlib
import random
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# This checkout's own package first, so an installed copy is never digested.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import families  # noqa: E402
from stablecut import WeightedDag, build_poset, build_reduction, format_scaled  # noqa: E402
from stablecut.cli import RunConfig, run  # noqa: E402
from stablecut.core import parse_instance, parse_weights  # noqa: E402
from stablecut.oracle import MAX_ORACLE_VERTICES  # noqa: E402

FAMILIES = ("random", "cyclic", "doubling")
INSTANCES = 300
MAX_N = 16
ORACLE_LIMIT = 7
CAPS = (1, 50)
# name: (low, high, fraction digits); None is the all-zero table
WEIGHTS = {
    "wide": (-9, 9, 0),
    "coarse": (-1, 1, 0),
    "zero": None,
    "decimal": (-9, 9, 2),
}


def draw_prefs(rng: random.Random, family: str, max_n: int) -> tuple[families.Prefs, families.Prefs]:
    """A random instance, or a relabelled cyclic shift or doubling-family
    instance (n a power of two), with n at most max_n."""
    if family == "random":
        return families.random_prefs(rng, rng.randint(2, max_n))
    if family == "cyclic":
        return families.relabel(rng, *families.cyclic_prefs(rng.randint(2, max_n)))
    n = 2 ** rng.randint(1, max_n.bit_length() - 1)
    return families.relabel(rng, *families.doubling_prefs(n))


def instance_configs(n: int, inst: str, weights: list[str]) -> list[dict]:
    """Every configuration run on one instance; file fields hold names."""
    configs = [{"subcommand": "poset", "instance_path": inst}]
    for w in weights:
        solve = {"subcommand": "solve", "instance_path": inst, "weights_path": w}
        configs.append(solve)
        configs.extend({**solve, "pole": pole} for pole in ("boy", "girl"))
        if n <= ORACLE_LIMIT:
            configs.append({**solve, "oracle": True})
        configs.extend({**solve, "subcommand": "enumerate", "cap": cap} for cap in CAPS)
    for w1, w2 in zip(weights, weights[1:] + weights[:1]):
        configs.append(
            {
                "subcommand": "bi-objective",
                "instance_path": inst,
                "weights1_path": w1,
                "weights2_path": w2,
            }
        )
    return configs


def write_dag(path: Path, g: WeightedDag) -> None:
    rows = [f"{g.num_vertices} {len(g.edges)}", f"{g.source + 1} {g.sink + 1}"]
    rows.extend(f"{e.tail + 1} {e.head + 1} {format_scaled(e.weight, g.scale)}" for e in g.edges)
    path.write_text("\n".join(rows) + "\n")


def dag_configs(workdir: Path, inst: str, weights: list[str]) -> list[dict]:
    """Write each weight table's reduction DAG and list its cut-solve runs."""
    instance = parse_instance((workdir / inst).read_text())
    poset = build_poset(instance)
    configs = []
    for w in weights:
        table = parse_weights((workdir / w).read_text(), instance.n)
        g = build_reduction(poset, table).dag
        dag = f"dag-{w}"
        write_dag(workdir / dag, g)
        configs.append({"subcommand": "cut-solve", "dag_path": dag})
        if g.num_vertices <= MAX_ORACLE_VERTICES:
            configs.append({**configs[-1], "oracle": True})
    return configs


def requests(seed: int, workdir: Path, instances: int = INSTANCES) -> Iterator[tuple[dict, RunConfig]]:
    """Every request on the first ``instances`` instances of the seed's
    corpus, written under ``workdir`` one instance at a time: each
    configuration, with file fields holding names, and the ``RunConfig``
    that runs it."""
    rng = random.Random(seed)
    for i in range(instances):
        boys, girls = draw_prefs(rng, FAMILIES[i % len(FAMILIES)], MAX_N)
        n = len(boys)
        inst = f"inst{i}.txt"
        families.write_instance(workdir / inst, boys, girls)
        weights = []
        for name, spec in WEIGHTS.items():
            if spec is None:
                table, digits = families.zero_weights(n), 0
            else:
                low, high, digits = spec
                table = families.random_weights(rng, n, low, high, digits)
            weights.append(f"w{i}-{name}.txt")
            families.write_weights(workdir / weights[-1], table, digits)
        for config in instance_configs(n, inst, weights) + dag_configs(workdir, inst, weights):
            paths = {
                key: str(workdir / value) if key.endswith("_path") else value
                for key, value in config.items()
            }
            yield config, RunConfig(**paths)


def digest(seed: int, workdir: Path, instances: int = INSTANCES) -> tuple[int, str]:
    """Report count and sha256 over the first ``instances`` instances of
    the seed's corpus; a smaller count digests a prefix of the same draws."""
    h = hashlib.sha256()
    count = 0
    for config, cfg in requests(seed, workdir, instances):
        dag_text = Path(cfg.dag_path).read_text() if cfg.dag_path else ""
        status, report = run(cfg)
        h.update(repr((sorted(config.items()), dag_text, status, report)).encode())
        count += 1
    return count, h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        count, hexdigest = digest(args.seed, Path(tmp))
    print(f"{count} reports sha256 {hexdigest}")
    print(f"in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
