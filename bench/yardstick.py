"""A fixed piece of pure-Python work that gauges the machine's current speed.

On a shared host the CPU's effective speed drifts by tens of percent over
seconds to minutes, and every wall time inherits the drift.  The
benchmark therefore times this kernel right before every timed step and
reports the step's time scaled to a nominal machine, on which the kernel
takes ``NOMINAL_MS``:

    scaled = wall * NOMINAL_MS / kernel_ms

The kernel is benchmark code that never changes with stablecut, so a
slower program still reads slower; only the machine's drift cancels.
"""

from __future__ import annotations

from time import perf_counter

# The kernel's time on the machine the benchmark was tuned on (2-vCPU
# Intel Xeon VM, Python 3.11.7).  It sets the unit, not the result's shape.
NOMINAL_MS = 80.0


def kernel_ms() -> float:
    """Milliseconds the kernel takes right now."""
    start = perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i
    return 1000 * (perf_counter() - start)


def scaled(seconds_or_ms: float, kernel: float) -> float:
    """A time measured next to a kernel run of ``kernel`` ms, in nominal units."""
    return seconds_or_ms * NOMINAL_MS / kernel
