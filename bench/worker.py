"""Benchmark child process: one client calling ``stablecut.cli.run`` in a closed loop.

Usage (started by run.py, not by hand):

    python3 bench/worker.py SRC_DIR --probe     # import, say ready, exit
    python3 bench/worker.py SRC_DIR JOB.json    # import, say ready, serve the job

The child prints ``ready`` as soon as ``stablecut`` is imported.  For a
job it then sends the requests in order, each only after the previous
answer, round after round until the job's seconds have passed.
Right before each request the child times the yardstick kernel
(yardstick.py), which gauges the machine's current speed.
After every request it writes one frame to stdout: a JSON header line,
then the report bytes the first time that request is answered (later
answers are identified by their SHA-256 only).  A final JSON line
summarises the loop.  With ``trace`` set, the first half of the time runs
untraced and the second half under the tracer.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable

import yardstick


def closed_loop(requests: list[dict], seconds: float, answer: Callable) -> int:
    """Send ``requests`` in turn, round after round, until ``seconds`` have
    passed and every request has been answered at least once.

    Right before each request the yardstick kernel gauges the machine's
    speed.  ``answer(request, status, report, elapsed_s, kernel_ms)``
    receives every result.  Returns the number of requests completed.
    """
    from stablecut import cli

    configs = [cli.RunConfig(**request["config"]) for request in requests]
    done = 0
    start = perf_counter()
    while done < len(requests) or perf_counter() - start < seconds:
        request, config = requests[done % len(requests)], configs[done % len(configs)]
        kernel = yardstick.kernel_ms()
        t0 = perf_counter()
        status, report = cli.run(config)
        elapsed = perf_counter() - t0
        answer(request, status, report, elapsed, kernel)
        done += 1
    return done


def serve(job: dict, out) -> None:
    """Run the job's closed loop, writing one frame per answer to ``out``."""
    import hashlib
    import json

    from tracer import Tracer

    sent: set[str] = set()

    def answer(request: dict, status: int, report: str, elapsed: float, kernel: float) -> None:
        data = report.encode()
        first = request["key"] not in sent
        sent.add(request["key"])
        header = {
            "key": request["key"],
            "status": status,
            "ms": 1000 * elapsed,
            "kernel_ms": kernel,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data) if first else 0,
        }
        out.write(json.dumps(header).encode() + b"\n")
        if first:
            out.write(data)
        out.flush()

    requests, seconds = job["requests"], job["seconds"]
    summary: dict = {"done": True}
    if not job["trace"]:
        summary["requests"] = closed_loop(requests, seconds, answer)
    else:
        summary["requests"] = closed_loop(requests, seconds / 2, answer)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(requests, seconds / 2, answer)
        finally:
            tracer.uninstall()
        summary.update(traced=traced, layers=tracer.metrics(traced))
    out.write(json.dumps(summary).encode() + b"\n")
    out.flush()


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import stablecut.cli  # noqa: F401  (the import is what setup time measures)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if argv[1] == "--probe":
        return 0
    import json  # after ready, so that set-up time covers stablecut only

    with open(argv[1]) as f:
        job = json.load(f)
    serve(job, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
