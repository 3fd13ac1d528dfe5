"""``cli.run`` pauses the cyclic garbage collector for each request.

A request makes no reference cycles, so the collector would only spend
time finding nothing.  ``run`` turns it off before dispatch and back on
afterwards, on every exit, only if it was on.  The gate here runs every
subcommand on the first instances of ``scripts/report_digest.py``'s
corpus (relabelled doubling and cyclic-shift instances and random ones),
then each error exit, and after each request asserts that a full
collection finds nothing, so the pause can never hold back real garbage.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import families
import stablecut
from stablecut import (
    ContractViolation,
    Instance,
    WeightFunction,
    build_poset,
    build_reduction,
    enumerate_max_matchings,
    max_weight_ideal_cut,
    meta_rotation_poset,
    solve_bi_objective,
    solve_max_weight,
)
from stablecut.cli import RunConfig, run
from test_report_digest import load_script

# Two instances of each family (doubling n = 16 and 2, cyclic n = 12 and
# 10, random n = 4 and 9): 202 requests, of every kind in VARIANTS.
CORPUS_INSTANCES = 6
VARIANTS = {
    ("solve", None, False),
    ("solve", "boy", False),
    ("solve", "girl", False),
    ("solve", None, True),
    ("enumerate", None, False),
    ("bi-objective", None, False),
    ("poset", None, False),
    ("cut-solve", None, False),
    ("cut-solve", None, True),
}
TWO_BY_TWO_TEXT = "2\n1 2\n2 1\n2 1\n1 2\n"
TIE_TABLE_TEXT = "3 2\n2 1\n"


@contextmanager
def collector(on: bool):
    """Runs the block with the collector on or off, then restores the
    state it found."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def run_collecting_after(cfg: RunConfig) -> tuple[int, str]:
    """``run(cfg)`` with the collector off from a full collection before
    it to one after it; asserts that the one after finds nothing."""
    gc.collect()
    with collector(False):
        result = run(cfg)
        unreachable = gc.collect()
    assert unreachable == 0, f"{cfg} left {unreachable} objects in reference cycles"
    return result


def check_corpus(workdir: Path) -> set[tuple]:
    """Every corpus request through ``run_collecting_after``; returns the
    (subcommand, pole, oracle) kinds that ran."""
    seen = set()
    for _, cfg in load_script().requests(1, workdir, CORPUS_INSTANCES):
        status, report = run_collecting_after(cfg)
        assert status == 0, report
        seen.add((cfg.subcommand, cfg.pole, cfg.oracle))
    return seen


def test_the_corpus_leaves_no_garbage(tmp_path):
    assert check_corpus(tmp_path) == VARIANTS


@pytest.fixture
def solve_config(tmp_path) -> RunConfig:
    inst, weights = tmp_path / "inst.txt", tmp_path / "w.txt"
    inst.write_text(TWO_BY_TWO_TEXT)
    weights.write_text(TIE_TABLE_TEXT)
    return RunConfig("solve", instance_path=str(inst), weights_path=str(weights))


def _raise(exc: BaseException):
    def stage(*_):
        raise exc

    return stage


@pytest.fixture
def request_with_exit(tmp_path, solve_config, monkeypatch):
    """``make(status)`` returns a solve request that exits with that
    status: 0, 1 on a malformed instance, 2 on a stage raising
    ``ContractViolation``, 3 on a stage raising ``MemoryError``."""

    def make(status: int) -> RunConfig:
        if status == 1:
            bad = tmp_path / "bad.txt"
            bad.write_text("2\n1 2\n2 x\n")
            return RunConfig("solve", instance_path=str(bad), weights_path=solve_config.weights_path)
        if status > 1:
            raised = ContractViolation("forced for the test") if status == 2 else MemoryError()
            monkeypatch.setattr("stablecut.cli.solve_max_weight", _raise(raised))
        return solve_config

    return make


@pytest.mark.parametrize("status", [0, 1, 2, 3])
def test_every_exit_leaves_no_garbage(request_with_exit, status):
    assert run_collecting_after(request_with_exit(status))[0] == status


def test_a_missing_file_leaves_no_garbage(tmp_path):
    cfg = RunConfig("cut-solve", dag_path=str(tmp_path / "absent.txt"))
    assert run_collecting_after(cfg)[0] == 1


def test_the_gate_sees_a_request_that_makes_a_cycle(solve_config, monkeypatch):
    def cyclic_stage(*args):
        loop: list = []
        loop.append(loop)
        return solve_max_weight(*args)

    monkeypatch.setattr("stablecut.cli.solve_max_weight", cyclic_stage)
    with pytest.raises(AssertionError, match="reference cycles"):
        run_collecting_after(solve_config)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("status", [0, 1, 2, 3])
def test_run_restores_the_collector_state(request_with_exit, status, collecting):
    cfg = request_with_exit(status)
    with collector(collecting):
        assert run(cfg)[0] == status
        assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False])
def test_the_stages_run_with_the_collector_off(solve_config, monkeypatch, collecting):
    seen = []

    def recording_stage(*args):
        seen.append(gc.isenabled())
        return solve_max_weight(*args)

    monkeypatch.setattr("stablecut.cli.solve_max_weight", recording_stage)
    with collector(collecting):
        assert run(solve_config)[0] == 0
    assert seen == [False]


@pytest.mark.parametrize("collecting", [True, False])
def test_importing_the_cli_leaves_the_collector_alone(collecting):
    code = (
        f"import gc; gc.{'enable' if collecting else 'disable'}(); "
        "import stablecut.cli; print(gc.isenabled())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(stablecut.__file__).parents[1])),
    ).stdout
    assert out == f"{collecting}\n"


@pytest.mark.parametrize("collecting", [True, False])
def test_library_calls_leave_the_collector_alone(collecting):
    rng = random.Random(29)
    inst = Instance(*(tuple(map(tuple, prefs)) for prefs in families.random_prefs(rng, 8)))
    w1, w2 = (
        WeightFunction(tuple(map(tuple, families.random_weights(rng, 8, -9, 9, 0))))
        for _ in range(2)
    )
    with collector(collecting):
        solve_max_weight(inst, w1)
        solve_bi_objective(inst, w1, w2)
        enumerate_max_matchings(meta_rotation_poset(inst, w1), 10)
        max_weight_ideal_cut(build_reduction(build_poset(inst), w2).dag)
        assert gc.isenabled() is collecting
