"""Ideal cuts, lower-bounded minimum flow, and residual condensation."""

from __future__ import annotations

import random

import pytest

from conftest import diamond_dag, ideal_cuts, max_cut_sides, path_dag, random_dag
from stablecut import (
    ContractViolation,
    Edge,
    Flow,
    ParseError,
    WeightedDag,
    all_ideal_cuts,
    check_ideal_cut,
    condense,
    cut_weight,
    feasible_flow,
    idealcut,
    max_weight_ideal_cut,
    min_flow,
    parse_dag,
    residual,
    validate_dag,
)
from stablecut.cli import main
from stablecut.idealcut import _reachable
from stablecut.oracle import heaviest_ideal_cuts


def single_edge_dag(weight: int) -> WeightedDag:
    return WeightedDag(2, 0, 1, (Edge(0, 1, weight),))


# Two parallel edges: the largest 64-bit weight, and a weight with one
# fraction digit.
OVERSCALED_DAG_TEXT = "2 2\n1 2\n1 2 9223372036854775807\n1 2 0.1\n"


def test_dag_constructor_guards():
    with pytest.raises(ValueError, match="source and a sink"):
        WeightedDag(1, 0, 0, ())
    with pytest.raises(ValueError, match="differ"):
        WeightedDag(2, 0, 0, ())
    with pytest.raises(ValueError, match="self-loop"):
        WeightedDag(2, 0, 1, (Edge(1, 1, 3),))
    with pytest.raises(ValueError, match="vertex 6 out of range"):
        WeightedDag(2, 0, 5, ())
    with pytest.raises(ValueError, match="edge endpoint out of range"):
        WeightedDag(2, 0, 1, (Edge(0, 2, 1),))
    with pytest.raises(ValueError, match="scale must be a positive integer"):
        WeightedDag(2, 0, 1, (Edge(0, 1, 1),), scale=0)
    with pytest.raises(ValueError, match="scale 3 is not a power of ten"):
        WeightedDag(2, 0, 1, (Edge(0, 1, 1),), scale=3)
    assert WeightedDag(2, 0, 1, (Edge(0, 1, 1),), scale=1000).scale == 1000


def test_validate_accepts_the_fixtures():
    validate_dag(path_dag())
    validate_dag(diamond_dag())


def test_validate_rejects_cycles():
    g = WeightedDag(
        4, 0, 3, (Edge(0, 1, 0), Edge(1, 2, 0), Edge(2, 1, 0), Edge(2, 3, 0))
    )
    with pytest.raises(ValueError, match=r"cycle through vertices \[3, 2\]"):
        validate_dag(g)


def test_validate_rejects_unreachable_vertex():
    g = WeightedDag(4, 0, 3, (Edge(0, 3, 1), Edge(1, 2, 1), Edge(2, 3, 1)))
    with pytest.raises(ValueError, match="vertex 2 is not reachable"):
        validate_dag(g)


def test_validate_rejects_dead_end_vertex():
    g = WeightedDag(4, 0, 3, (Edge(0, 1, 1), Edge(0, 2, 1), Edge(1, 3, 1)))
    with pytest.raises(ValueError, match="vertex 3 cannot reach"):
        validate_dag(g)


# In each graph the vertex off every source-to-sink path lies before the
# one that puts it there: vertex 3 lacks an in-edge in the first and an
# out-edge in the second, yet both messages name vertex 2.
SMALLEST_FAILING = (
    (
        WeightedDag(4, 0, 3, (Edge(0, 3, 1), Edge(2, 1, 1), Edge(1, 3, 1), Edge(2, 3, 1))),
        "vertex 2 is not reachable from the source",
    ),
    (
        WeightedDag(4, 0, 3, (Edge(0, 3, 1), Edge(0, 1, 1), Edge(1, 2, 1))),
        "vertex 2 cannot reach the sink",
    ),
)


@pytest.mark.parametrize(("g", "message"), SMALLEST_FAILING)
def test_validation_names_the_smallest_failing_vertex(g, message, tmp_path, capsys):
    with pytest.raises(ValueError) as caught:
        validate_dag(g)
    assert str(caught.value) == message
    rows = [f"{g.num_vertices} {len(g.edges)}", f"{g.source + 1} {g.sink + 1}"]
    rows += [f"{e.tail + 1} {e.head + 1} {e.weight}" for e in g.edges]
    path = tmp_path / "dag.txt"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["cut-solve", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cut_weight_path_dag():
    g = path_dag()
    assert cut_weight(g, frozenset({0})) == 5
    assert cut_weight(g, frozenset({0, 1})) == -2


def test_cut_weight_diamond():
    assert cut_weight(diamond_dag(), frozenset({0, 1})) == 7


def test_cut_weight_rejects_invalid_cuts():
    g = diamond_dag()
    with pytest.raises(ValueError, match="contain the source"):
        cut_weight(g, frozenset({1}))
    with pytest.raises(ValueError, match="exclude the sink"):
        cut_weight(g, frozenset({0, 3}))
    # {s, t-side of an edge} without its tail has an entering edge.
    g2 = WeightedDag(4, 0, 3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1)))
    with pytest.raises(ValueError, match="enters the cut"):
        cut_weight(g2, frozenset({0, 2}))
    with pytest.raises(ValueError, match="vertex 8 out of range"):
        check_ideal_cut(g, frozenset({0, 7}))


def test_feasible_flow_path_dag():
    f = feasible_flow(path_dag())
    assert f.edge_flow == (5, 5)
    assert f.value == 5


def test_feasible_flow_meets_lower_bounds_on_diamond():
    g = diamond_dag()
    f = feasible_flow(g)
    for e, fe in zip(g.edges, f.edge_flow):
        assert fe >= e.weight
    assert f.value <= 10  # never more than the positive weight total


def test_min_flow_path_dag():
    assert min_flow(path_dag()).value == 5


def test_min_flow_diamond():
    assert min_flow(diamond_dag()).value == 7


def test_min_flow_single_negative_edge():
    assert min_flow(single_edge_dag(-3)).value == -3


def test_residual_structure_at_the_path_optimum():
    g = path_dag()
    f = min_flow(g)
    # Flow sits exactly on the bound of the first edge, 7 above the second,
    # so only the second edge gives a backward arc.
    assert f.edge_flow == (5, 5)
    res = residual(g, f)
    assert res == ((1,), (2,), (1,))
    assert 0 not in _reachable(res, 2)


def test_min_flow_leaves_no_sink_to_source_path():
    g = diamond_dag()
    assert 0 not in _reachable(residual(g, min_flow(g)), 3)


def test_max_cut_path_dag():
    cut, weight = max_weight_ideal_cut(path_dag())
    assert cut == frozenset({0})
    assert weight == 5


def test_max_cut_diamond():
    cut, weight = max_weight_ideal_cut(diamond_dag())
    assert cut == frozenset({0, 1})
    assert weight == 7


def test_max_cut_single_negative_edge():
    cut, weight = max_weight_ideal_cut(single_edge_dag(-3))
    assert cut == frozenset({0})
    assert weight == -3


def test_condense_path_dag():
    g = path_dag()
    components, edges = condense(g, min_flow(g))
    assert components == (frozenset({0}), frozenset({1, 2}))
    assert edges == frozenset({(0, 1)})


def test_condense_lists_the_pole_components_first_and_last():
    # On a validated graph the source's component comes first and the
    # sink's last; on these unvalidated ones a pole sits elsewhere.
    g = WeightedDag(3, 0, 2, (Edge(0, 1, 0), Edge(1, 2, 0)))
    components, _ = condense(g, Flow((0, 0), 0))
    assert components == (frozenset({0}), frozenset({1}), frozenset({2}))
    misplaced = [
        WeightedDag(3, 1, 2, (Edge(0, 1, 0), Edge(1, 2, 0))),  # source not first
        WeightedDag(3, 0, 1, (Edge(0, 2, 0), Edge(0, 1, 0))),  # sink not last
    ]
    for g in misplaced:
        with pytest.raises(ContractViolation, match="first and last"):
            condense(g, Flow((0, 0), 0))


def test_condense_rejects_non_optimal_flow():
    # 4 units on every edge of the diamond: every lower bound met and every
    # inner vertex balanced, but 8 leaves the source where 7 is the minimum.
    g = diamond_dag()
    f = Flow((4, 4, 4, 4), 8)
    assert all(x >= e.weight for x, e in zip(f.edge_flow, g.edges))
    for v in (1, 2):
        inflow = sum(x for x, e in zip(f.edge_flow, g.edges) if e.head == v)
        assert inflow == sum(x for x, e in zip(f.edge_flow, g.edges) if e.tail == v)
    assert f.value == sum(x for x, e in zip(f.edge_flow, g.edges) if e.tail == g.source)
    assert f.value > min_flow(g).value == 7
    with pytest.raises(ContractViolation, match="not optimal"):
        condense(g, f)


def test_enumerate_max_cuts_unique_optimum():
    g = path_dag()
    assert list(max_cut_sides(condense(g, min_flow(g)))) == [frozenset({0})]


def test_enumerate_max_cuts_tied_path():
    # Both cuts of s -> m -> t weigh 2, so the condensation keeps three
    # separate components.
    g = WeightedDag(3, 0, 2, (Edge(0, 1, 2), Edge(1, 2, 2)))
    components, _ = d = condense(g, min_flow(g))
    assert len(components) == 3
    assert list(max_cut_sides(d)) == [frozenset({0}), frozenset({0, 1})]


def test_iterate_ideal_cuts_diamond():
    sides = list(ideal_cuts(diamond_dag()))
    assert sides == [
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    ]


def test_oracle_cuts_match_iteration():
    g = diamond_dag()
    assert all_ideal_cuts(g) == list(ideal_cuts(g))


def test_parse_dag_round_trip():
    text = "4 4\n1 4\n1 2 1\n1 3 4\n2 4 3\n3 4 2\n"
    g = parse_dag(text)
    assert g.num_vertices == 4
    assert (g.source, g.sink) == (0, 3)
    assert g.edges == diamond_dag().edges
    assert g.scale == 1


def test_parse_dag_decimal_weights_share_one_scale():
    g = parse_dag("2 1\n1 2\n1 2 -3.5\n")
    assert g.scale == 10
    assert g.edges == (Edge(0, 1, -35),)


def test_parse_dag_errors():
    with pytest.raises(ParseError, match="missing graph header"):
        parse_dag("")
    with pytest.raises(ParseError, match="expected 'V E'"):
        parse_dag("3\n1 3\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_dag("2 1\n1 5\n1 2 0\n")
    with pytest.raises(ParseError, match="must differ"):
        parse_dag("2 1\n1 1\n1 2 0\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_dag("2 1\n1 2\n2 2 1\n")
    with pytest.raises(ParseError, match="expected 1 edge rows"):
        parse_dag("2 1\n1 2\n")
    with pytest.raises(ParseError, match="line 1: 100000000 vertices need at least"):
        parse_dag("100000000 1\n1 2\n1 2 5\n")
    with pytest.raises(ParseError, match="line 1: expected 'V E'"):
        parse_dag("2 x\n1 2\n1 2 0\n")
    with pytest.raises(ParseError, match="line 1: need at least two vertices"):
        parse_dag("1 1\n1 2\n1 2 0\n")
    with pytest.raises(ParseError, match="line 1: negative edge count"):
        parse_dag("2 -1\n1 2\n")
    with pytest.raises(ParseError, match="line 2: expected 's t'"):
        parse_dag("2 1\n1\n1 2 0\n")
    with pytest.raises(ParseError, match="line 2: expected 's t'"):
        parse_dag("2 1\n1 t\n1 2 0\n")
    with pytest.raises(ParseError, match="line 3: expected 'u v w'"):
        parse_dag("2 1\n1 2\n1 2\n")
    with pytest.raises(ParseError, match="line 3: malformed edge endpoints"):
        parse_dag("2 1\n1 2\n1 b 0\n")
    with pytest.raises(ParseError, match="line 3: vertex 3 out of range"):
        parse_dag("2 1\n1 2\n1 3 0\n")
    with pytest.raises(ParseError, match="line 3: '1e3' is not a decimal number"):
        parse_dag("2 1\n1 2\n1 2 1e3\n")


def test_parse_dag_checks_each_weight_after_scaling():
    # The second edge's fraction scales every weight by 10, which takes the
    # first edge past the 64-bit range.
    with pytest.raises(ParseError) as err:
        parse_dag(OVERSCALED_DAG_TEXT)
    assert str(err.value) == "line 3: weight exceeds the 64-bit range after scaling"
    g = parse_dag("2 2\n1 2\n1 2 -9223372036854775807\n1 2 1\n")
    assert [e.weight for e in g.edges] == [-(2**63 - 1), 1]


def test_cut_solve_exits_one_on_a_weight_past_64_bits_after_scaling(tmp_path, capsys):
    dag = tmp_path / "dag.txt"
    dag.write_text(OVERSCALED_DAG_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["cut-solve", str(dag)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: weight exceeds the 64-bit range after scaling\n"


def test_duality_on_random_dags():
    """Minimum flow value equals the brute-force maximum cut weight."""
    rng = random.Random(404)
    for _ in range(60):
        g = random_dag(rng, max_vertices=9)
        _, best = heaviest_ideal_cuts(g)
        assert min_flow(g).value == best


def test_returned_cut_is_a_maximum_on_random_dags():
    rng = random.Random(405)
    for _ in range(60):
        g = random_dag(rng, max_vertices=9)
        cut, weight = max_weight_ideal_cut(g)
        _, best = heaviest_ideal_cuts(g)
        assert weight == best
        assert cut_weight(g, cut) == best


def test_condensation_enumerates_exactly_the_maximum_cuts():
    rng = random.Random(406)
    for _ in range(40):
        g = random_dag(rng, max_vertices=9)
        d = condense(g, min_flow(g))
        sides = list(max_cut_sides(d))
        assert len(set(sides)) == len(sides)
        _, best = heaviest_ideal_cuts(g)
        expected = {c for c in all_ideal_cuts(g) if cut_weight(g, c) == best}
        assert set(sides) == expected


def test_maximum_cuts_close_under_union_and_intersection():
    rng = random.Random(407)
    for _ in range(40):
        g = random_dag(rng, max_vertices=8)
        _, best = heaviest_ideal_cuts(g)
        maxima = [c for c in all_ideal_cuts(g) if cut_weight(g, c) == best]
        for a in maxima:
            for b in maxima:
                assert cut_weight(g, a | b) == best
                assert cut_weight(g, a & b) == best


def test_feasible_flow_is_feasible_on_random_dags():
    rng = random.Random(408)
    for _ in range(60):
        g = random_dag(rng, max_vertices=12)
        f = feasible_flow(g)
        for e, fe in zip(g.edges, f.edge_flow):
            assert fe >= e.weight


def test_min_flow_handles_parallel_edges():
    g = WeightedDag(2, 0, 1, (Edge(0, 1, 3), Edge(0, 1, -1), Edge(0, 1, 0)))
    cut, weight = max_weight_ideal_cut(g)
    assert weight == 2
    assert cut == frozenset({0})


def test_a_flow_stopped_at_its_feasible_start_fails_the_certificate(stalled_levels):
    # Wherever the feasible start is not minimal, the sink still reaches
    # the source through its residual graph.
    rng = random.Random(426)
    stopped = 0
    for _ in range(60):
        g = random_dag(rng, max_vertices=12)
        if feasible_flow(g).value == min_flow(g).value:
            continue
        stalled_levels()
        with pytest.raises(ContractViolation, match="^residual still connects sink to source$"):
            min_flow(g)
        stopped += 1
    assert stopped > 20


def test_a_feasible_start_with_a_wrong_value_fails_the_composed_value(monkeypatch):
    real = idealcut.feasible_flow

    def off_by_one(g: WeightedDag) -> Flow:
        f = real(g)
        return Flow(f.edge_flow, f.value + 1)

    monkeypatch.setattr(idealcut, "feasible_flow", off_by_one)
    rng = random.Random(421)
    for _ in range(20):
        with pytest.raises(ContractViolation, match="^composed flow value is inconsistent$"):
            min_flow(random_dag(rng, max_vertices=12))


def test_a_minimum_flow_with_a_wrong_value_fails_the_cut_weight(monkeypatch):
    real = idealcut.min_flow

    def off_by_one(g: WeightedDag, start=None) -> Flow:
        f = real(g, start)
        return Flow(f.edge_flow, f.value - 1)

    monkeypatch.setattr(idealcut, "min_flow", off_by_one)
    rng = random.Random(443)
    for _ in range(20):
        with pytest.raises(ContractViolation, match="^cut weight does not match the flow value$"):
            max_weight_ideal_cut(random_dag(rng, max_vertices=12))
