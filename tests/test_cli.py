"""End-to-end command line behaviour: formats, exit codes, determinism."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import families
import stablecut
from conftest import IDENTITY_THREE_TEXT, TWO_BY_TWO_TEXT, without_last_rotation
from stablecut import ContractViolation, ParseError
from stablecut.cli import (
    RunConfig,
    build_parser,
    config_from_args,
    main,
    parse_pair_file,
    run,
)

BRANCH_FOUR_TEXT = """\
4
2 4 3 1
3 4 2 1
3 2 1 4
2 1 4 3
1 4 2 3
2 3 4 1
4 1 2 3
3 2 1 4
"""

DIAMOND_TEXT = "4 4\n1 4\n1 2 1\n1 3 4\n2 4 3\n3 4 2\n"
# The feasible start sends 3 over each of 1-3-4 and 1-2-4; the minimum
# flow sends its 3 over 1-2-3-4.
DETOUR_TEXT = "4 5\n1 4\n1 2 3\n1 3 0\n2 4 0\n3 4 3\n2 3 -5\n"

TIE_TABLE_TEXT = "3 2\n2 1\n"
SINGLE_TABLE_TEXT = "1 0\n0 0\n"


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_solve_unique_optimum(files):
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            weights_path=files("w.txt", SINGLE_TABLE_TEXT),
        )
    )
    assert status == 0
    assert report == "weight 1\n1 1\n2 2"


def test_solve_tie_defaults_to_the_girl_side_pole(files):
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            weights_path=files("w.txt", TIE_TABLE_TEXT),
        )
    )
    assert status == 0
    assert report == "weight 4\n1 2\n2 1"


def test_solve_pole_flag(files):
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    w = files("w.txt", TIE_TABLE_TEXT)
    status, report = run(RunConfig("solve", instance_path=inst, weights_path=w, pole="boy"))
    assert (status, report) == (0, "weight 4\n1 1\n2 2")
    status, report = run(RunConfig("solve", instance_path=inst, weights_path=w, pole="girl"))
    assert (status, report) == (0, "weight 4\n1 2\n2 1")


def test_solve_oracle_path(files):
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    w = files("w.txt", TIE_TABLE_TEXT)
    status, report = run(RunConfig("solve", instance_path=inst, weights_path=w, oracle=True))
    assert (status, report) == (0, "weight 4\n1 2\n2 1")
    status, report = run(
        RunConfig("solve", instance_path=inst, weights_path=w, oracle=True, pole="girl")
    )
    assert (status, report) == (0, "weight 4\n1 2\n2 1")
    status, report = run(
        RunConfig("solve", instance_path=inst, weights_path=w, oracle=True, pole="boy")
    )
    assert (status, report) == (0, "weight 4\n1 1\n2 2")


def test_solve_oracle_agrees_with_the_solver_on_weight(files):
    inst = files("inst.txt", BRANCH_FOUR_TEXT)
    w = files("w.txt", "2 -1 0 3\n0 1 4 -2\n1 0 2 5\n3 2 -1 0\n")
    _, fast = run(RunConfig("solve", instance_path=inst, weights_path=w))
    _, brute = run(RunConfig("solve", instance_path=inst, weights_path=w, oracle=True))
    assert fast.splitlines()[0] == brute.splitlines()[0] == "weight 10"


def test_solve_egalitarian_preset(files):
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", IDENTITY_THREE_TEXT),
            preset="egalitarian-min",
        )
    )
    assert status == 0
    assert report == "weight -12\n1 1\n2 2\n3 3"


def test_solve_desirable_undesirable_preset(files):
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            preset="desirable-undesirable",
            pairs_path=files("pairs.txt", "# favour the first couple\nd 1 1\n"),
        )
    )
    assert status == 0
    assert report == "weight 1\n1 1\n2 2"


def test_desirable_preset_requires_pairs(files):
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            preset="desirable-undesirable",
        )
    )
    assert status == 1
    assert "needs --pairs" in report


def test_weight_source_must_be_exactly_one(files):
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    status, report = run(RunConfig("solve", instance_path=inst))
    assert status == 1
    assert "exactly one" in report
    status, report = run(
        RunConfig(
            "solve",
            instance_path=inst,
            weights_path=files("w.txt", TIE_TABLE_TEXT),
            preset="egalitarian-min",
        )
    )
    assert status == 1
    assert "exactly one" in report


def test_parse_pair_file():
    desirable, undesirable = parse_pair_file("d 1 2\nu 2 1\n# done\n", 2)
    assert desirable == {(0, 1)}
    assert undesirable == {(1, 0)}


def test_parse_pair_file_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_pair_file("x 1 2\n", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse_pair_file("d 1 9\n", 2)
    with pytest.raises(ParseError, match="malformed"):
        parse_pair_file("d one 2\n", 2)


def test_pair_tagged_both_ways_names_the_later_line(files):
    with pytest.raises(ParseError, match=r"^line 3: pair \(1, 1\) is both desirable"):
        parse_pair_file("u 1 1\n# retagged\nd 1 1\n", 2)
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            preset="desirable-undesirable",
            pairs_path=files("pairs.txt", "d 1 1\nd 2 2\nu 1 1\n"),
        )
    )
    assert (status, report) == (
        1,
        "error: line 3: pair (1, 1) is both desirable and undesirable",
    )


def test_pairs_flag_is_rejected_unless_read(files):
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    pairs = files("pairs.txt", "d 1 1\n")
    for subcommand in ("solve", "enumerate"):
        for source in (
            {"weights_path": files("w.txt", TIE_TABLE_TEXT)},
            {"preset": "egalitarian-min"},
            {"preset": "egalitarian-max"},
        ):
            cfg = RunConfig(subcommand, instance_path=inst, pairs_path=pairs, **source)
            status, report = run(cfg)
            assert status == 1
            assert "--pairs" in report


def test_enumerate_tie(files):
    status, report = run(
        RunConfig(
            "enumerate",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            weights_path=files("w.txt", TIE_TABLE_TEXT),
        )
    )
    assert status == 0
    assert report == (
        "count 2\nmatching 1\n1 1\n2 2\nmatching 2\n1 2\n2 1\ntruncated: no"
    )


def test_enumerate_cap(files):
    status, report = run(
        RunConfig(
            "enumerate",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            weights_path=files("w.txt", TIE_TABLE_TEXT),
            cap=1,
        )
    )
    assert status == 0
    assert report == "count 1\nmatching 1\n1 1\n2 2\ntruncated: yes"


def test_poset_output(files):
    status, report = run(
        RunConfig("poset", instance_path=files("inst.txt", BRANCH_FOUR_TEXT))
    )
    assert status == 0
    assert report == (
        "rotation 0: (1,4) (2,3)\n"
        "rotation 1: (1,3) (4,1)\n"
        "rotation 2: (2,4) (3,2)\n"
        "edge 0 1\n"
        "edge 0 2"
    )


def test_poset_without_rotations(files):
    status, report = run(
        RunConfig("poset", instance_path=files("inst.txt", IDENTITY_THREE_TEXT))
    )
    assert (status, report) == (0, "no rotations")


def test_cut_solve_diamond(files):
    dag = files("dag.txt", DIAMOND_TEXT)
    status, report = run(RunConfig("cut-solve", dag_path=dag))
    assert (status, report) == (0, "weight 7\nS: 1 2")
    status, report = run(RunConfig("cut-solve", dag_path=dag, oracle=True))
    assert (status, report) == (0, "weight 7\nS: 1 2")


def test_cut_solve_oracle_reports_the_largest_tied_side(files):
    dag = files("dag.txt", "3 2\n1 3\n1 2 2\n2 3 2\n")
    for oracle in (False, True):
        status, report = run(RunConfig("cut-solve", dag_path=dag, oracle=oracle))
        assert (status, report) == (0, "weight 2\nS: 1 2")


def test_cut_solve_decimal_weights(files):
    status, report = run(
        RunConfig("cut-solve", dag_path=files("dag.txt", "2 1\n1 2\n1 2 -3.5\n"))
    )
    assert (status, report) == (0, "weight -3.5\nS: 1")


def test_cut_solve_rejects_cyclic_graphs(files):
    text = "3 3\n1 3\n1 2 1\n2 1 1\n2 3 1\n"
    status, report = run(RunConfig("cut-solve", dag_path=files("dag.txt", text)))
    assert status == 1
    assert "cycle" in report


def test_bi_objective(files):
    status, report = run(
        RunConfig(
            "bi-objective",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            weights1_path=files("w1.txt", TIE_TABLE_TEXT),
            weights2_path=files("w2.txt", "0 1\n0 0\n"),
        )
    )
    assert status == 0
    assert report == "weight1 4\nweight2 1\n1 2\n2 1"


def test_bi_objective_with_presets(files):
    status, report = run(
        RunConfig(
            "bi-objective",
            instance_path=files("inst.txt", TWO_BY_TWO_TEXT),
            preset1="egalitarian-min",
            weights2_path=files("w2.txt", "1 0\n0 0\n"),
        )
    )
    assert status == 0
    # All matchings tie the egalitarian score here, so w2 decides.
    assert report == "weight1 -6\nweight2 1\n1 1\n2 2"


def test_bi_objective_needs_both_sources(files):
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    w = files("w.txt", TIE_TABLE_TEXT)
    primary = "error: need exactly one primary weight source (--weights1 or --preset1)"
    secondary = "error: need exactly one secondary weight source (--weights2 or --preset2)"
    for sources, message in (
        ({"weights1_path": w}, secondary),
        ({"weights2_path": w}, primary),
        ({"weights1_path": w, "weights2_path": w, "preset2": "egalitarian-max"}, secondary),
    ):
        cfg = RunConfig("bi-objective", instance_path=inst, **sources)
        assert run(cfg) == (1, message)


def test_every_subcommand_on_an_instance_with_one_stable_matching(files):
    inst = files("inst.txt", IDENTITY_THREE_TEXT)
    w = files("w.txt", "3 0 0\n0 -1 0\n0 0 2.5\n")
    only = "1 1\n2 2\n3 3"
    for extra in ({}, {"pole": "boy"}, {"pole": "girl"}, {"oracle": True}):
        cfg = RunConfig("solve", instance_path=inst, weights_path=w, **extra)
        assert run(cfg) == (0, f"weight 4.5\n{only}")
    for cap in (1000, 1):
        cfg = RunConfig("enumerate", instance_path=inst, weights_path=w, cap=cap)
        assert run(cfg) == (0, f"count 1\nmatching 1\n{only}\ntruncated: no")
    cfg = RunConfig(
        "bi-objective",
        instance_path=inst,
        preset1="egalitarian-min",
        preset2="egalitarian-max",
    )
    assert run(cfg) == (0, f"weight1 -12\nweight2 12\n{only}")


def test_missing_file_is_an_input_error():
    status, report = run(RunConfig("solve", instance_path="/nonexistent/file.txt"))
    assert status == 1
    assert report.startswith("error:")


def test_malformed_instance_reports_the_line(files):
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", "2\n1 1\n2 1\n2 1\n1 2\n"),
            weights_path=files("w.txt", TIE_TABLE_TEXT),
        )
    )
    assert status == 1
    assert "line 2" in report


def test_a_weight_beyond_64_bits_names_its_line(files, capsys):
    huge = "1" * 4301
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    weights = files("w.txt", f"1 0\n0 {huge}\n")
    dag = files("dag.txt", f"3 2\n1 3\n1 2 5\n2 3 -{huge[1:]}.5\n")
    for argv, line in ((["solve", inst, "--weights", weights], 2), (["cut-solve", dag], 4)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line {line}: a weight of 4301 digits exceeds the 64-bit range\n"


def test_contract_violations_exit_two(files, monkeypatch):
    def boom(_):
        raise ContractViolation("forced for the test")

    monkeypatch.setattr("stablecut.cli.max_weight_ideal_cut", boom)
    status, report = run(
        RunConfig("cut-solve", dag_path=files("dag.txt", DIAMOND_TEXT))
    )
    assert status == 2
    assert "forced" in report


def test_a_flow_stopped_at_its_feasible_start_exits_two(files, stalled_levels):
    dag = files("dag.txt", DETOUR_TEXT)
    assert run(RunConfig("cut-solve", dag_path=dag)) == (0, "weight 3\nS: 1 2 3")
    stalled_levels()
    status, report = run(RunConfig("cut-solve", dag_path=dag))
    assert (status, report) == (2, "error: residual still connects sink to source")


def test_a_poset_missing_its_last_rotation_exits_two(files, monkeypatch):
    real = stablecut.reduction.build_poset
    monkeypatch.setattr(
        stablecut.reduction, "build_poset", lambda inst: without_last_rotation(real(inst))
    )
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", BRANCH_FOUR_TEXT),
            weights_path=files("w.txt", "1 2 3 4\n" * 4),
        )
    )
    assert (status, report) == (2, "error: rotations do not end at the girl-optimal matching")


def test_components_out_of_topological_order_exit_two(files, monkeypatch):
    listed = stablecut.idealcut._components
    monkeypatch.setattr(
        "stablecut.idealcut._components", lambda res: list(reversed(listed(res)))
    )
    status, report = run(
        RunConfig(
            "enumerate",
            instance_path=files("inst.txt", BRANCH_FOUR_TEXT),
            weights_path=files("w.txt", "0 0 0 0\n" * 4),
        )
    )
    assert (status, report) == (2, "error: residual components are not listed in topological order")


def test_a_sink_side_missing_a_vertex_exits_two(files, monkeypatch):
    reach = stablecut.idealcut._reachable
    monkeypatch.setattr(
        "stablecut.idealcut._reachable", lambda heads, start: reach(heads, start) - {start}
    )
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", BRANCH_FOUR_TEXT),
            weights_path=files("w.txt", "1 2 3 4\n" * 4),
        )
    )
    assert (status, report) == (2, "error: cut must exclude the sink")


def test_a_lowered_cut_graph_edge_exits_two(files, lowered_edge):
    # Edge 0 is the arc 0 -> 1, laid down first.  Rotation 0 moves boy 1
    # from girl 4 (weight 1) to girl 3 (0) and boy 2 from girl 3 (2) to
    # girl 4 (0).
    lowered_edge(0)
    status, report = run(
        RunConfig(
            "solve",
            instance_path=files("inst.txt", BRANCH_FOUR_TEXT),
            weights_path=files("w.txt", "4 0 0 1\n0 3 2 0\n1 0 0 5\n0 2 3 0\n"),
        )
    )
    assert (status, report) == (
        2,
        "error: the cut graph weighs rotation 0 at -23, but eliminating it"
        " changes the matching's weight by -3",
    )


def test_poset_with_arcs_against_rotation_ids_exits_two(files, reversed_rotation_ids):
    status, report = run(
        RunConfig("poset", instance_path=files("inst.txt", BRANCH_FOUR_TEXT))
    )
    assert status == 2
    assert report == "error: precedence arc (2, 0) does not follow rotation ids"


def test_poset_with_a_wrong_girl_optimal_matching_exits_two(files, monkeypatch):
    # A girls' run that returns the boy-optimal matching leaves the walk
    # nothing to eliminate; the end check finds a rotation still exposed.
    real = stablecut.rotations.gale_shapley
    monkeypatch.setattr(
        stablecut.rotations, "gale_shapley", lambda inst, side="boys": real(inst, "boys")
    )
    status, report = run(
        RunConfig("poset", instance_path=files("inst.txt", BRANCH_FOUR_TEXT))
    )
    assert (status, report) == (2, "error: elimination chain did not end girl-optimal")


def test_cut_solve_rejects_a_header_with_too_few_edges(files, capsys):
    dag = files("dag.txt", "100000000 1\n1 2\n1 2 5\n")
    with pytest.raises(SystemExit) as exc:
        main(["cut-solve", dag])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1:")
    assert "Traceback" not in captured.err


def test_reports_are_deterministic(files):
    cfg = RunConfig(
        "enumerate",
        instance_path=files("inst.txt", BRANCH_FOUR_TEXT),
        weights_path=files("w.txt", "0 0 0 0\n" * 4),
    )
    assert run(cfg) == run(cfg)


def test_config_from_args_solve():
    cfg = config_from_args(
        ["solve", "inst.txt", "--weights", "w.txt", "--pole", "girl", "--oracle"]
    )
    assert cfg.subcommand == "solve"
    assert cfg.instance_path == "inst.txt"
    assert cfg.weights_path == "w.txt"
    assert cfg.pole == "girl"
    assert cfg.oracle


def test_config_from_args_bi_objective():
    cfg = config_from_args(
        ["bi-objective", "inst.txt", "--preset1", "egalitarian-max", "--weights2", "w.txt"]
    )
    assert cfg.subcommand == "bi-objective"
    assert cfg.preset1 == "egalitarian-max"
    assert cfg.weights2_path == "w.txt"


def test_main_success_prints_to_stdout(files, capsys):
    inst = files("inst.txt", TWO_BY_TWO_TEXT)
    w = files("w.txt", SINGLE_TABLE_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["solve", inst, "--weights", w])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == "weight 1\n1 1\n2 2\n"
    assert captured.err == ""


def test_main_failure_prints_to_stderr(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "/nonexistent/file.txt", "--preset", "egalitarian-min"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_usage_errors_exit_one_with_argparse_usage_text(capsys):
    for argv in (["solve"], ["solve", "i.txt", "--pole", "left"], ["frobnicate"], []):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        expected = capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == expected
        assert captured.err.startswith("usage: stablecut")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stablecut solve")


def test_closed_output_pipe_exits_one_without_a_traceback(tmp_path):
    # Every one of the doubling family's stable matchings weighs zero, so
    # the report runs far past one pipe buffer (64 KiB).
    n = 16
    inst, weights = tmp_path / "inst.txt", tmp_path / "w.txt"
    families.write_instance(inst, *families.doubling_prefs(n))
    families.write_weights(weights, families.zero_weights(n), 0)
    env = dict(os.environ, PYTHONPATH=str(Path(stablecut.__file__).parents[1]))
    argv = ["enumerate", str(inst), "--weights", str(weights), "--cap", "2000"]
    with subprocess.Popen(
        [sys.executable, "-m", "stablecut.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert first == b"count 2000\n"
    assert status == 1
    assert err == b""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak")
def test_running_out_of_memory_exits_three_without_a_traceback(tmp_path):
    # A weighted doubling n=128 solve needs more than 14 MB of address
    # space beyond what starting the command takes; the child alone gets
    # 8 MB.
    n = 128
    rng = random.Random(17)
    inst, weights = tmp_path / "inst.txt", tmp_path / "w.txt"
    families.write_instance(inst, *families.relabel(rng, *families.doubling_prefs(n)))
    families.write_weights(weights, families.random_weights(rng, n, -9, 9, 0), 0)
    env = dict(os.environ, PYTHONPATH=str(Path(stablecut.__file__).parents[1]))
    started = subprocess.run(
        [sys.executable, "-c", "import stablecut.cli; print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    peak_kb = int(next(line.split()[1] for line in started.splitlines() if line.startswith("VmPeak:")))
    limit = (peak_kb + 8000) * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "stablecut.cli", "solve", str(inst), "--weights", str(weights)],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


def _plain_pairs(m) -> list[str]:
    return [f"{b + 1} {g + 1}" for b, g in enumerate(m.partner_of_boy)]


def test_reports_render_the_library_results(tmp_path, capsys):
    """Each report, byte for byte, against the library's own answer
    written out line by line."""
    n = 16
    inst_path, zero = tmp_path / "inst.txt", tmp_path / "zero.txt"
    w1_path, w2_path = tmp_path / "w1.txt", tmp_path / "w2.txt"
    rng = random.Random(16)
    boys, girls = families.relabel(rng, *families.doubling_prefs(n))
    families.write_instance(inst_path, boys, girls)
    families.write_weights(zero, families.zero_weights(n), 0)
    for path in (w1_path, w2_path):
        families.write_weights(path, families.random_weights(rng, n, -9, 9, 2), 2)
    inst = stablecut.parse_instance(inst_path.read_text())
    w1 = stablecut.parse_weights(w1_path.read_text(), n)
    w2 = stablecut.parse_weights(w2_path.read_text(), n)

    m, weight = stablecut.solve_max_weight(inst, w1)
    solve = [f"weight {stablecut.format_scaled(weight, w1.scale)}", *_plain_pairs(m)]

    p = stablecut.meta_rotation_poset(inst, stablecut.WeightFunction.zero(n))
    optima, truncated = stablecut.enumerate_max_matchings(p, 30)
    assert len(optima) == 30 and truncated
    enumerate_ = ["count 30"]
    for i, m in enumerate(optima, start=1):
        enumerate_ += [f"matching {i}", *_plain_pairs(m)]
    enumerate_.append("truncated: yes")

    m, v1, v2 = stablecut.solve_bi_objective(inst, w1, w2)
    bi = [
        f"weight1 {stablecut.format_scaled(v1, w1.scale)}",
        f"weight2 {stablecut.format_scaled(v2, w2.scale)}",
        *_plain_pairs(m),
    ]

    cyclic_path = tmp_path / "cyclic.txt"
    families.write_instance(cyclic_path, *families.relabel(rng, *families.cyclic_prefs(12)))
    poset = stablecut.build_poset(stablecut.parse_instance(cyclic_path.read_text()))
    assert len(poset.rotations) == 11  # so ids reach two digits
    dump = [
        f"rotation {rid}: " + " ".join(f"({b + 1},{g + 1})" for b, g in rho)
        for rid, rho in enumerate(poset.rotations)
    ]
    dump += [f"edge {a} {b}" for a, b in sorted(poset.edges)]

    cases = [
        (["solve", str(inst_path), "--weights", str(w1_path)], solve),
        (["enumerate", str(inst_path), "--weights", str(zero), "--cap", "30"], enumerate_),
        (["bi-objective", str(inst_path), "--weights1", str(w1_path), "--weights2", str(w2_path)], bi),
        (["poset", str(cyclic_path)], dump),
    ]
    for argv, lines in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n", argv[0]
