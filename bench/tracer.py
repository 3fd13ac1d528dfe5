"""Outside-in tracing of stablecut's public functions.

``Tracer.install`` rebinds each traced function in every ``stablecut``
module namespace that holds it, so nested calls between modules (such as
``min_flow`` calling ``residual``) are timed too; ``uninstall`` puts the
originals back.  Each call is a span: its time, and its self time, which
is its time minus the time of the traced spans it caused.  Generators are
timed across their iteration: every resumption is a span of its own.

Totals are kept per function rather than as a span list, because the
enumerate workload makes tens of thousands of calls per request.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from typing import Callable

# The layers are stablecut's modules; oracle is a referee and is never timed.
TRACED = {
    "core": ("parse_instance", "parse_weights", "gale_shapley", "matching_weight"),
    "rotations": ("enumerate_rotations", "build_poset", "closed_set_to_matching"),
    "reduction": ("build_reduction", "cut_to_matching", "solve_max_weight"),
    "idealcut": (
        "validate_dag",
        "feasible_flow",
        "min_flow",
        "residual",
        "max_weight_ideal_cut",
        "condense",
    ),
    "sublattice": (
        "meta_rotation_poset",
        "solve_bi_objective",
        "enumerate_max_matchings",
        "boy_optimal_max",
        "closed_subset_to_max_matching",
    ),
    "ideals": ("iter_ideals",),
    "cli": ("run",),
}

# Counter name -> unit.  Each explains the work behind a layer's time.
COUNTERS = {
    "rotations.count": "count",
    "rotations.arcs": "count",
    "reduction.dag_edges": "count",
    "idealcut.flow_pushed": "weight",
    "sublattice.meta_elements": "count",
    "ideals.yielded": "count",
    "cli.report_bytes": "bytes",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.ms", "ms"), (f"{module}.{fn}.self_ms", "ms")]
        names.append((f"{module}.self_ms", "ms"))
    names.extend(COUNTERS.items())
    return names


class Tracer:
    """Per-function call counts, total and self time, plus work counters."""

    def __init__(self) -> None:
        names = [f"{module}.{fn}" for module, functions in TRACED.items() for fn in functions]
        self.calls = dict.fromkeys(names, 0)
        self.total = dict.fromkeys(names, 0.0)
        self.self_time = dict.fromkeys(names, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._feasible_value = 0

    def _span(self, name: str, elapsed: float) -> None:
        children = self._child_time.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        if self._child_time:
            self._child_time[-1] += elapsed

    def _wrap(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._child_time.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._span(name, perf_counter() - start)
                    tracer.counters["ideals.yielded"] += 1  # iter_ideals is the one generator
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._span(name, perf_counter() - start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _result_hooks(self) -> dict[str, Callable]:
        from stablecut import MetaRotationPoset, ReductionArtifacts

        c = self.counters

        def poset(p) -> None:
            c["rotations.count"] += len(p.rotations)
            c["rotations.arcs"] += len(p.edges)

        def reduction(art) -> None:
            if isinstance(art, ReductionArtifacts):
                c["reduction.dag_edges"] += len(art.dag.edges)

        def feasible(flow) -> None:
            self._feasible_value = flow.value

        def minimum(flow) -> None:
            # min_flow starts from the feasible flow it just computed.
            c["idealcut.flow_pushed"] += self._feasible_value - flow.value

        def meta(p) -> None:
            if isinstance(p, MetaRotationPoset):
                c["sublattice.meta_elements"] += len(p.rotation_sets)

        def report(outcome) -> None:
            c["cli.report_bytes"] += len(outcome[1].encode())

        return {
            "rotations.build_poset": poset,
            "reduction.build_reduction": reduction,
            "idealcut.feasible_flow": feasible,
            "idealcut.min_flow": minimum,
            "sublattice.meta_rotation_poset": meta,
            "cli.run": report,
        }

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "stablecut" or key.startswith("stablecut.")]
        hooks = self._result_hooks()
        for module, functions in TRACED.items():
            home = sys.modules[f"stablecut.{module}"]
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, hooks.get(name))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-request averages of every metric in :func:`metric_names`."""
        per = max(requests, 1)
        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            layer_self = 0.0
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                out[f"{name}.calls"] = self.calls[name] / per
                out[f"{name}.ms"] = 1000 * self.total[name] / per
                out[f"{name}.self_ms"] = 1000 * self.self_time[name] / per
                layer_self += out[f"{name}.self_ms"]
            out[f"{module}.self_ms"] = layer_self
        for name, value in self.counters.items():
            out[name] = value / per
        return out
