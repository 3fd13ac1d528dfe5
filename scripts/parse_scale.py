"""Time and memory of the parse stage at large n.

For each n it writes a random instance and a random weight table with 6
fraction digits in [-1000, 1000] (the benchmark's random-solve shape,
drawn with ``bench/families.py``) to a temporary directory.  Then one
child process per n imports stablecut, reads both files, and runs
``parse_instance`` and ``parse_weights`` once each.  One JSON line per n
gives the two parse times in ms, the file sizes, the child's peak RSS, and
the part of that peak added by parsing (peak after parsing minus peak
before it).  Linux only: the peak is read from ``/proc/self/status``.

Usage:
    python scripts/parse_scale.py --n 400 1000 2000 --seed 1
"""

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# This checkout's own package first, so an installed copy is never measured.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

DIGITS = 6


def _peak_rss_mb() -> float:
    """This process's peak resident set size (Linux ``VmHWM``).  Unlike
    ``ru_maxrss``, it does not start from the parent's peak, which a child
    inherits through fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure(inst_path: str, weights_path: str) -> dict:
    """Parse both files once in this process; times in ms, memory in MB."""
    from stablecut.core import parse_instance, parse_weights

    inst_text = Path(inst_path).read_text()
    weights_text = Path(weights_path).read_text()
    before = _peak_rss_mb()
    start = perf_counter()
    inst = parse_instance(inst_text)
    mid = perf_counter()
    parse_weights(weights_text, inst.n)
    end = perf_counter()
    peak = _peak_rss_mb()
    return {
        "n": inst.n,
        "parse_instance_ms": round((mid - start) * 1e3, 1),
        "parse_weights_ms": round((end - mid) * 1e3, 1),
        "instance_mb": round(len(inst_text) / 2**20, 1),
        "weights_mb": round(len(weights_text) / 2**20, 1),
        "peak_rss_mb": round(peak, 1),
        "parse_added_rss_mb": round(peak - before, 1),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[400, 1000, 2000])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    import families

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            inst_path, weights_path = Path(tmp) / f"inst-{n}.txt", Path(tmp) / f"w-{n}.txt"
            families.write_instance(inst_path, *families.random_prefs(rng, n))
            table = families.random_weights(rng, n, -1000, 1000, DIGITS)
            families.write_weights(weights_path, table, DIGITS)
            del table
            child = subprocess.run(
                [sys.executable, __file__, "--child", str(inst_path), str(weights_path)],
                capture_output=True,
                text=True,
                check=True,
            )
            print(child.stdout.strip(), flush=True)
            inst_path.unlink()
            weights_path.unlink()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(measure(sys.argv[2], sys.argv[3])))
    else:
        main()
