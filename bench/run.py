"""The stablecut benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload doubling --seed 1 --seconds 50 --trace 0

The run generates its inputs from the seed and writes them as files
(untimed), checks the CLI against brute force on oracle-sized instances,
starts one child process that calls ``stablecut.cli.run`` in a closed
loop with one client, and checks every report.  It prints human-readable
lines, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
It exits 2 without a result when the checkout holds no ``src/stablecut``.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import families
import yardstick
from tracer import metric_names
from verify import Referee, oracle_preflight

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SETUP_PROBES = 9
CHILD_DEADLINE_S = 150


def _request(key: str, subcommand: str, instance: Path, expect: dict | None = None, **config) -> dict:
    config = {k: str(v) if isinstance(v, Path) else v for k, v in config.items()}
    return {
        "key": key,
        "config": {"subcommand": subcommand, "instance_path": str(instance), **config},
        "expect": expect or {},
    }


def random_cyclic(rng: random.Random, work: Path) -> list[dict]:
    solves = []
    for i in range(3):
        inst, weights = work / f"random-{i}.txt", work / f"random-{i}-w.txt"
        families.write_instance(inst, *families.random_prefs(rng, 400))
        families.write_weights(weights, families.random_weights(rng, 400, -1000, 1000, 6), 6)
        solves.append(_request(f"random-solve-{i}", "solve", inst, weights_path=weights))
    n = 300
    boys, girls = families.relabel(rng, *families.cyclic_prefs(n))
    families.check_rotation_count("cyclic", boys, girls)
    inst, weights = work / "cyclic.txt", work / "cyclic-w.txt"
    families.write_instance(inst, boys, girls)
    families.write_weights(weights, families.random_weights(rng, n, -1000, 1000, 6), 6)
    cyclic_solve = _request("cyclic-solve", "solve", inst, weights_path=weights)
    poset = _request("cyclic-poset", "poset", inst, {"rotations": n - 1, "rotation_size": n})
    # The random solves are the majority, so the median latency is one of theirs.
    return [solves[0], cyclic_solve, solves[1], poset, solves[2]]


def doubling(rng: random.Random, work: Path) -> list[dict]:
    n = 64
    boys, girls = families.relabel(rng, *families.doubling_prefs(n))
    families.check_rotation_count("doubling", boys, girls)
    inst, zero = work / "doubling.txt", work / "doubling-zero.txt"
    families.write_instance(inst, boys, girls)
    families.write_weights(zero, families.zero_weights(n), 0)
    requests = []
    # Flow work depends on the weight draw, so each pass covers two draws.
    for i in range(2):
        w1, w2 = work / f"doubling-{i}-w1.txt", work / f"doubling-{i}-w2.txt"
        for path in (w1, w2):
            families.write_weights(path, families.random_weights(rng, n, -9, 9, 0), 0)
        requests += [
            _request(f"solve-{i}", "solve", inst, weights_path=w1),
            _request(f"solve-pole-boy-{i}", "solve", inst, weights_path=w1, pole="boy"),
            _request(f"bi-objective-{i}", "bi-objective", inst, weights1_path=w1, weights2_path=w2),
            _request(
                f"enumerate-{i}", "enumerate", inst, {"count": 5000, "truncated": True},
                weights_path=zero, cap=5000,
            ),
        ]
    return requests


WORKLOADS = {"random-cyclic": random_cyclic, "doubling": doubling}


def probe_setup() -> float:
    """Seconds from starting a child to its ``ready`` (interpreter start
    plus ``import stablecut``), scaled by the yardstick kernel timed just
    before."""
    kernel = yardstick.kernel_ms()
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), str(SRC), "--probe"], stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("setup probe did not come up")
    return yardstick.scaled(elapsed, kernel)


def drive_child(job_path: Path) -> tuple[list[dict], dict[str, bytes], dict]:
    """Run one job in a child; returns its frames, first reports by key,
    and its summary."""
    proc = subprocess.Popen([sys.executable, str(WORKER), str(SRC), str(job_path)], stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_DEADLINE_S, proc.kill)
    watchdog.start()
    frames: list[dict] = []
    reports: dict[str, bytes] = {}
    try:
        if proc.stdout.readline().strip() != b"ready":
            raise RuntimeError("benchmark child did not come up")
        while True:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("benchmark child ended without a summary")
            header = json.loads(line)
            if header.get("done"):
                return frames, reports, header
            if header["bytes"]:
                reports[header["key"]] = proc.stdout.read(header["bytes"])
            frames.append(header)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.wait() != 0:
            raise RuntimeError(f"benchmark child exited with status {proc.returncode}")


def judge(requests: list[dict], frames: list[dict], reports: dict[str, bytes]) -> tuple[int, str]:
    """Count failed requests and digest the distinct reports.

    A request fails on a non-zero exit status, a report the referee
    rejects, or a report that differs from the first answer to the same
    request.
    """
    referee = Referee()
    by_key = {request["key"]: request for request in requests}
    verdict: dict[str, str | None] = {}
    first_sha: dict[str, str] = {}
    failed = 0
    for frame in frames:
        key = frame["key"]
        if key not in verdict:
            first_sha[key] = frame["sha256"]
            verdict[key] = referee.check(by_key[key], frame["status"], reports[key].decode())
            if verdict[key]:
                print(f"FAILED {key}: {verdict[key]}")
        wrong = verdict[key] is not None or frame["sha256"] != first_sha[key]
        failed += wrong
    digest = hashlib.sha256()
    for request in requests:
        frame = next(f for f in frames if f["key"] == request["key"])
        digest.update(f"{request['key']} {frame['status']} {frame['sha256']}\n".encode())
    return failed, digest.hexdigest()


def _scaled_ms(frame: dict) -> float:
    return yardstick.scaled(frame["ms"], frame["kernel_ms"])


def _matchings_per_s(requests: list[dict], frames: list[dict]) -> float:
    """Stable matchings listed per second of the requests that list them:
    the enumerate requests when the workload has any, else every request
    that reports one matching."""
    by_key = {request["key"]: request for request in requests}

    def listing(subcommands: tuple[str, ...]) -> list[dict]:
        return [f for f in frames if by_key[f["key"]]["config"]["subcommand"] in subcommands]

    chosen = listing(("enumerate",)) or listing(("solve", "bi-objective"))
    listed = sum(by_key[f["key"]]["expect"].get("count", 1) for f in chosen)
    return 1000 * listed / sum(map(_scaled_ms, chosen))


def _requests_per_s(frames: list[dict]) -> float:
    """Completed requests per second of time spent inside ``cli.run``.  The
    loop's own wall time would also count the yardstick and the framing."""
    return 1000 * len(frames) / sum(map(_scaled_ms, frames))


def end_to_end(requests: list[dict], frames: list[dict], setup: list[float]) -> dict:
    return {
        "requests_per_s": (_requests_per_s(frames), "1/s"),
        "latency_p50_ms": (statistics.median(map(_scaled_ms, frames)), "ms"),
        "matchings_per_s": (_matchings_per_s(requests, frames), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(frames: list[dict], summary: dict) -> dict:
    """The tracer's per-request values (unscaled wall ms) plus the tracing
    overhead: traced minus untraced ``requests_per_s``."""
    layers = summary["layers"]
    values = {name: (layers[name], unit) for name, unit in metric_names()}
    untraced, traced = frames[: summary["requests"]], frames[summary["requests"] :]
    values["trace.rps_delta"] = (_requests_per_s(traced) - _requests_per_s(untraced), "1/s")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one stablecut benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stablecut" / "__init__.py").is_file():
        print(f"error: no stablecut package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stablecut

    if Path(stablecut.__file__).resolve().parent != SRC / "stablecut":
        print(f"error: imported stablecut from {stablecut.__file__}, not {SRC}", file=sys.stderr)
        return 2

    probe_setup()  # the first start compiles bytecode, which later starts reuse
    setup = [probe_setup() for _ in range(SETUP_PROBES)]

    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        oracle_preflight(random.Random(args.seed), work)
        requests = WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"), work)
        job = work / "job.json"
        job.write_text(json.dumps({"requests": requests, "seconds": args.seconds, "trace": args.trace}))
        frames, reports, summary = drive_child(job)
        failed, digest = judge(requests, frames, reports)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(frames, summary) if args.trace else end_to_end(requests, frames, setup)
    latencies: dict[str, list[float]] = {}
    for frame in frames:
        latencies.setdefault(frame["key"], []).append(_scaled_ms(frame))
    kernel = statistics.median(f["kernel_ms"] for f in frames)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: one client, closed loop")
    print(f"yardstick kernel median {kernel:.2f} ms (nominal {yardstick.NOMINAL_MS} ms)")
    print(f"unscaled wall: latency_p50_ms {statistics.median(f['ms'] for f in frames):.1f}")
    print(f"latency samples {len(frames)}; per request: count, median scaled ms")
    for key, values in latencies.items():
        print(f"  {key} {len(values)} {statistics.median(values):.1f}")
    print(f"error_rate {failed / len(frames):.4f} ({failed} of {len(frames)} failed)")
    print(f"report_sha256 {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(frames),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
