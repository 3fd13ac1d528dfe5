"""Tests of the benchmark's own parts: generators, referee, tracer, child protocol.

Run with ``PYTHONPATH=src python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

import families
import run
import stablecut
from stablecut import Instance, cli, enumerate_rotations, is_stable, Matching
from tracer import Tracer, metric_names
from verify import Referee, oracle_preflight
from worker import closed_loop


def _instance(boys, girls) -> Instance:
    return Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))


@pytest.mark.parametrize("n", [2, 6, 25])
def test_cyclic_family_has_n_minus_one_rotations(n):
    boys, girls = families.relabel(random.Random(n), *families.cyclic_prefs(n))
    assert len(enumerate_rotations(_instance(boys, girls))) == n - 1
    families.check_rotation_count("cyclic", boys, girls)


@pytest.mark.parametrize("n, count", [(4, 6), (8, 28), (32, 496), (64, 2016)])
def test_doubling_family_reaches_the_quadratic_bound(n, count):
    boys, girls = families.relabel(random.Random(n), *families.doubling_prefs(n))
    assert families.expected_rotations("doubling", n) == count
    assert len(enumerate_rotations(_instance(boys, girls))) == count
    families.check_rotation_count("doubling", boys, girls)


def test_rotation_self_check_fails_on_a_wrong_count():
    boys, girls = families.random_prefs(random.Random(3), 8)
    with pytest.raises(RuntimeError, match="rotations, expected 7"):
        families.check_rotation_count("cyclic", boys, girls)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    texts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        run.doubling(random.Random("doubling/5"), work)
        texts.append(sorted((p.name, p.read_text()) for p in work.iterdir()))
    assert texts[0] == texts[1]


def test_oracle_preflight_passes(tmp_path):
    oracle_preflight(random.Random(0), tmp_path)


def _solve_case(tmp_path: Path) -> tuple[dict, str, Instance]:
    rng = random.Random(11)
    boys, girls = families.random_prefs(rng, 12)
    inst_path, w_path = tmp_path / "inst.txt", tmp_path / "w.txt"
    families.write_instance(inst_path, boys, girls)
    families.write_weights(w_path, families.random_weights(rng, 12, -50, 50, 2), 2)
    request = run._request("solve", "solve", inst_path, weights_path=w_path)
    status, report = cli.run(cli.RunConfig(**request["config"]))
    assert status == 0
    return request, report, _instance(boys, girls)


def test_referee_accepts_a_correct_solve_report(tmp_path):
    request, report, _ = _solve_case(tmp_path)
    assert Referee().check(request, 0, report) is None


def test_referee_rejects_a_swapped_pair(tmp_path):
    request, report, inst = _solve_case(tmp_path)
    lines = report.split("\n")
    partner = [int(line.split()[1]) - 1 for line in lines[1:]]
    for a in range(len(partner)):
        for b in range(a + 1, len(partner)):
            swapped = list(partner)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            if not is_stable(inst, Matching(tuple(swapped))):
                break
        else:
            continue
        break
    corrupted = [lines[0]] + [f"{boy + 1} {girl + 1}" for boy, girl in enumerate(swapped)]
    assert "block the matching" in Referee().check(request, 0, "\n".join(corrupted))


def test_referee_rejects_an_off_by_one_weight(tmp_path):
    request, report, _ = _solve_case(tmp_path)
    head, rest = report.split("\n", 1)
    scaled = round(float(head.split()[1]) * 100) + 1
    corrupted = f"weight {families.format_fixed(scaled, 2)}\n{rest}"
    assert "differs from the sum" in Referee().check(request, 0, corrupted)


def test_referee_rejects_a_duplicated_enumerate_entry(tmp_path):
    inst_path, zero = tmp_path / "inst.txt", tmp_path / "zero.txt"
    families.write_instance(inst_path, *families.doubling_prefs(8))
    families.write_weights(zero, families.zero_weights(8), 0)
    request = run._request(
        "enumerate", "enumerate", inst_path, {"count": 20, "truncated": True}, weights_path=zero, cap=20
    )
    status, report = cli.run(cli.RunConfig(**request["config"]))
    referee = Referee()
    assert referee.check(request, status, report) is None
    lines = report.split("\n")
    lines[11:19] = lines[2:10]  # matching 2's pairs become matching 1's
    assert "listed twice" in referee.check(request, 0, "\n".join(lines))


def _doubling_requests(tmp_path: Path) -> list[dict]:
    rng = random.Random(7)
    boys, girls = families.relabel(rng, *families.doubling_prefs(16))
    inst = tmp_path / "inst.txt"
    families.write_instance(inst, boys, girls)
    w1, w2, zero = tmp_path / "w1.txt", tmp_path / "w2.txt", tmp_path / "zero.txt"
    families.write_weights(w1, families.random_weights(rng, 16, -9, 9, 0), 0)
    families.write_weights(w2, families.random_weights(rng, 16, -9, 9, 0), 0)
    families.write_weights(zero, families.zero_weights(16), 0)
    return [
        run._request("solve", "solve", inst, weights_path=w1),
        run._request("pole", "solve", inst, weights_path=w1, pole="boy"),
        run._request("bi", "bi-objective", inst, weights1_path=w1, weights2_path=w2),
        run._request("enum", "enumerate", inst, {"count": 30, "truncated": True}, weights_path=zero, cap=30),
        run._request("poset", "poset", inst, {"rotations": 120}),
    ]


def _one_pass(requests: list[dict]) -> tuple[list[dict], dict[str, bytes]]:
    frames, reports = [], {}

    def answer(request, status, report, elapsed, kernel):
        data = report.encode()
        reports[request["key"]] = data
        frames.append({"key": request["key"], "status": status, "sha256": hashlib.sha256(data).hexdigest()})

    assert closed_loop(requests, 0, answer) == len(requests)
    return frames, reports


def test_tracer_leaves_reports_unchanged_and_restores_functions(tmp_path):
    requests = _doubling_requests(tmp_path)
    originals = {name: value for name, value in vars(stablecut.reduction).items() if callable(value)}
    run_before, cut_before = cli.run, stablecut.max_weight_ideal_cut
    plain = _one_pass(requests)
    tracer = Tracer()
    tracer.install()
    try:
        assert stablecut.reduction.max_weight_ideal_cut is not originals["max_weight_ideal_cut"]
        traced = _one_pass(requests)
    finally:
        tracer.uninstall()
    assert traced[1] == plain[1]
    assert run.judge(requests, *traced) == run.judge(requests, *plain)
    assert run.judge(requests, *plain)[0] == 0
    assert {n: v for n, v in vars(stablecut.reduction).items() if callable(v)} == originals
    assert cli.run is run_before and stablecut.max_weight_ideal_cut is cut_before


def test_tracer_counts_nested_calls_and_generator_time(tmp_path):
    requests = _doubling_requests(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        _one_pass(requests[:1])
        solve = tracer.metrics(1)
        _one_pass(requests[3:4])
        both = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert solve["core.gale_shapley.calls"] == 6
    assert solve["idealcut.residual.calls"] == 2  # min_flow's certificate, then the cut
    assert solve["rotations.count"] == 120 and solve["reduction.dag_edges"] > 0
    assert 0 <= solve["idealcut.min_flow.self_ms"] <= solve["idealcut.min_flow.ms"]
    assert solve["cli.run.ms"] >= solve["reduction.solve_max_weight.ms"]
    assert both["rotations.closed_set_to_matching.calls"] == 1 + 30
    # The empty ideal, thirty optima, and the one that shows truncation.
    assert both["ideals.iter_ideals.calls"] == 1 and both["ideals.yielded"] == 32
    assert both["ideals.iter_ideals.ms"] > 0
    assert set(both) == {name for name, _ in metric_names()}


def test_child_serves_a_job_and_reports_every_request(tmp_path):
    requests = _doubling_requests(tmp_path)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"requests": requests, "seconds": 0, "trace": 1}))
    frames, reports, summary = run.drive_child(job)
    assert [f["key"] for f in frames] == [r["key"] for r in requests] * 2
    assert set(reports) == {r["key"] for r in requests}
    assert summary["traced"] == len(requests)
    assert run.judge(requests, frames, reports)[0] == 0
