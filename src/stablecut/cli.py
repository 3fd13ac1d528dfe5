"""Command line front end.

Subcommands: solve, enumerate, poset, cut-solve, bi-objective.  Exit
status 0 on success, 1 for input and usage errors or a closed output
pipe, 2 for internal contract violations, 3 when memory runs out.  All
weights are printed as exact decimals.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import dataclass
from operator import getitem
from pathlib import Path

from .core import (
    ContractViolation,
    Instance,
    Matching,
    ParseError,
    WeightFunction,
    _content_lines,
    format_scaled,
    parse_instance,
    parse_weights,
    preset_desirable_undesirable,
    preset_egalitarian,
)
from .idealcut import max_weight_ideal_cut, parse_dag, validate_dag
from .oracle import _optimal_pole, heaviest_ideal_cuts, heaviest_stable_matchings
from .reduction import solve_max_weight
from .rotations import build_poset
from .sublattice import (
    boy_optimal_max,
    enumerate_max_matchings,
    meta_rotation_poset,
    solve_bi_objective,
)

PRESETS = ("egalitarian-min", "egalitarian-max", "desirable-undesirable")


@dataclass
class RunConfig:
    subcommand: str
    instance_path: str | None = None
    dag_path: str | None = None
    weights_path: str | None = None
    preset: str | None = None
    pairs_path: str | None = None
    weights1_path: str | None = None
    preset1: str | None = None
    weights2_path: str | None = None
    preset2: str | None = None
    cap: int = 1000
    oracle: bool = False
    pole: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablecut",
        description="Maximum-weight stable matchings via ideal cuts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_weight_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--weights", dest="weights_path", metavar="PATH", help="weight table file")
        p.add_argument("--preset", choices=PRESETS, help="built-in weight preset")
        p.add_argument(
            "--pairs",
            dest="pairs_path",
            metavar="PATH",
            help="pair file for the desirable-undesirable preset",
        )

    p = sub.add_parser("solve", help="one maximum-weight stable matching")
    p.add_argument("instance_path", metavar="instance", help="instance file")
    add_weight_options(p)
    p.add_argument("--pole", choices=("boy", "girl"), help="which optimal pole to report")
    p.add_argument("--oracle", action="store_true", help="use the brute-force path")

    p = sub.add_parser("enumerate", help="all maximum-weight stable matchings")
    p.add_argument("instance_path", metavar="instance", help="instance file")
    add_weight_options(p)
    p.add_argument("--cap", type=int, default=1000, help="truncate after this many")

    p = sub.add_parser("poset", help="dump the rotation poset")
    p.add_argument("instance_path", metavar="instance", help="instance file")

    p = sub.add_parser("cut-solve", help="maximum-weight ideal cut of a DAG")
    p.add_argument("dag_path", metavar="dag", help="graph file")
    p.add_argument("--oracle", action="store_true", help="use the brute-force path")

    p = sub.add_parser("bi-objective", help="best secondary weight among primary optima")
    p.add_argument("instance_path", metavar="instance", help="instance file")
    p.add_argument(
        "--weights1", dest="weights1_path", metavar="PATH", help="primary weight table file"
    )
    p.add_argument("--preset1", choices=PRESETS[:2], help="primary weight preset")
    p.add_argument(
        "--weights2", dest="weights2_path", metavar="PATH", help="secondary weight table file"
    )
    p.add_argument("--preset2", choices=PRESETS[:2], help="secondary weight preset")
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def _read(path: str) -> str:
    return Path(path).read_text()


def parse_pair_file(text: str, n: int) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Lines ``d B G`` mark desirable pairs and ``u B G`` undesirable ones,
    1-based; comments and blank lines are skipped."""
    desirable: set[tuple[int, int]] = set()
    undesirable: set[tuple[int, int]] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0].lower() not in ("d", "u"):
            raise ParseError(f"line {lineno}: expected 'd B G' or 'u B G'")
        try:
            b, g = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed pair") from None
        if not (1 <= b <= n and 1 <= g <= n):
            raise ParseError(f"line {lineno}: pair ({b}, {g}) out of range 1..{n}")
        desired = parts[0].lower() == "d"
        if (b - 1, g - 1) in (undesirable if desired else desirable):
            raise ParseError(f"line {lineno}: pair ({b}, {g}) is both desirable and undesirable")
        (desirable if desired else undesirable).add((b - 1, g - 1))
    return desirable, undesirable


def _load_weights(
    inst: Instance,
    weights_path: str | None,
    preset: str | None,
    pairs_path: str | None,
    slot: str = "",
) -> WeightFunction:
    """The weight function of one source; ``slot`` is the bi-objective
    flag suffix, "1" or "2", and empty for solve and enumerate."""
    tag = {"": "", "1": " primary", "2": " secondary"}[slot]
    if (weights_path is None) == (preset is None):
        raise ValueError(
            f"need exactly one{tag} weight source (--weights{slot} or --preset{slot})"
        )
    if pairs_path is not None and preset != "desirable-undesirable":
        raise ValueError("--pairs is only read by the desirable-undesirable preset")
    if weights_path is not None:
        return parse_weights(_read(weights_path), inst.n)
    if preset == "egalitarian-min":
        return preset_egalitarian(inst, "minimize")
    if preset == "egalitarian-max":
        return preset_egalitarian(inst, "maximize")
    if pairs_path is None:
        raise ValueError("the desirable-undesirable preset needs --pairs")
    desirable, undesirable = parse_pair_file(_read(pairs_path), inst.n)
    return preset_desirable_undesirable(inst, desirable, undesirable)


class _PairLabels(dict):
    """The report lines "b g" (1-based) of one boy's pairs, keyed by girl;
    each is built on first lookup."""

    def __init__(self, boy: int) -> None:
        self.prefix = f"{boy + 1} "

    def __missing__(self, girl: int) -> str:
        label = self[girl] = f"{self.prefix}{girl + 1}"
        return label


def _pair_labels(n: int) -> list[_PairLabels]:
    """One report's table of pair lines, ``labels[b][g]``.  Optima share
    most of their pairs, so a report that lists many builds each line once."""
    return [_PairLabels(b) for b in range(n)]


def _matching_block(m: Matching, labels: list[_PairLabels]) -> str:
    """The matching's report lines, one pair per line, as one string."""
    return "\n".join(map(getitem, labels, m.partner_of_boy))


def _run_solve(cfg: RunConfig) -> str:
    inst = parse_instance(_read(cfg.instance_path))
    w = _load_weights(inst, cfg.weights_path, cfg.preset, cfg.pairs_path)
    if cfg.oracle:
        optima, weight = heaviest_stable_matchings(inst, w)
        matching = _optimal_pole(optima, inst, "boys" if cfg.pole == "boy" else "girls")
    elif cfg.pole == "boy":
        p = meta_rotation_poset(inst, w)
        matching, weight = boy_optimal_max(p), p.weight
    else:
        matching, weight = solve_max_weight(inst, w)
    block = _matching_block(matching, _pair_labels(inst.n))
    return f"weight {format_scaled(weight, w.scale)}\n{block}"


def _run_enumerate(cfg: RunConfig) -> str:
    inst = parse_instance(_read(cfg.instance_path))
    w = _load_weights(inst, cfg.weights_path, cfg.preset, cfg.pairs_path)
    matchings, truncated = enumerate_max_matchings(meta_rotation_poset(inst, w), cfg.cap)
    return _enumerate_report(matchings, truncated, inst.n)


def _enumerate_report(matchings: list[Matching], truncated: bool, n: int) -> str:
    labels = _pair_labels(n)
    lines = [f"count {len(matchings)}"]
    for i, m in enumerate(matchings, start=1):
        lines.append(f"matching {i}")
        lines.append(_matching_block(m, labels))
    lines.append(f"truncated: {'yes' if truncated else 'no'}")
    return "\n".join(lines)


def _run_poset(cfg: RunConfig) -> str:
    inst = parse_instance(_read(cfg.instance_path))
    poset = build_poset(inst)
    label = [str(i + 1) for i in range(inst.n)]  # 1-based ids, converted once
    lines = [
        f"rotation {rid}: " + " ".join(f"({label[b]},{label[g]})" for b, g in rho)
        for rid, rho in enumerate(poset.rotations)
    ]
    lines += [f"edge {a} {b}" for a, b in sorted(poset.edges)]
    return "\n".join(lines) if lines else "no rotations"


def _run_cut_solve(cfg: RunConfig) -> str:
    g = parse_dag(_read(cfg.dag_path))
    if cfg.oracle:
        validate_dag(g)
        # The largest source side among the heaviest cuts, as the flow
        # path reports; they come listed by size.
        cuts, weight = heaviest_ideal_cuts(g)
        cut = cuts[-1]
    else:
        cut, weight = max_weight_ideal_cut(g)
    side = " ".join(str(v + 1) for v in sorted(cut))
    return f"weight {format_scaled(weight, g.scale)}\nS: {side}"


def _run_bi_objective(cfg: RunConfig) -> str:
    inst = parse_instance(_read(cfg.instance_path))
    w1 = _load_weights(inst, cfg.weights1_path, cfg.preset1, None, slot="1")
    w2 = _load_weights(inst, cfg.weights2_path, cfg.preset2, None, slot="2")
    m, v1, v2 = solve_bi_objective(inst, w1, w2)
    return "\n".join([
        f"weight1 {format_scaled(v1, w1.scale)}",
        f"weight2 {format_scaled(v2, w2.scale)}",
        _matching_block(m, _pair_labels(inst.n)),
    ])


_DISPATCH = {
    "solve": _run_solve,
    "enumerate": _run_enumerate,
    "poset": _run_poset,
    "cut-solve": _run_cut_solve,
    "bi-objective": _run_bi_objective,
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute a configuration; returns (exit status, report text).

    A request makes no reference cycles, so the cyclic garbage collector
    is paused while it runs and turned back on afterwards only if it was
    on; ``tests/test_gc.py`` checks that a request leaves nothing for it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return 0, _DISPATCH[cfg.subcommand](cfg)
    except ContractViolation as exc:
        return 2, f"error: {exc}"
    except (ValueError, OSError) as exc:
        return 1, f"error: {exc}"
    except MemoryError:
        # Unbound, so leaving this clause frees the request's frames.
        return 3, "error: out of memory"
    finally:
        if collecting:
            gc.enable()


def main(argv: list[str] | None = None) -> None:
    try:
        cfg = config_from_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # A usage error is bad input; argparse's own code 2 is ours for contracts.
        if exc.code:
            sys.exit(1)
        raise
    status, report = run(cfg)
    out = sys.stdout if status == 0 else sys.stderr
    try:
        print(report, file=out)
        out.flush()
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head -1`).  Point the stream
        # at devnull so the flush at exit cannot raise again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
