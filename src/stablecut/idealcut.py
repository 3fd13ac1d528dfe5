"""Maximum-weight ideal cuts in a weighted DAG via lower-bounded min flow.

An ideal cut is a vertex set S with the source inside, the sink outside,
and no edge entering S; its weight is the total weight of edges leaving S.
The maximum-weight cut equals the minimum value of a flow that must carry
at least w(e) units on every edge e (weights may be negative), and the
strongly connected components of the optimal flow's residual graph encode
every maximum cut at once.

The minimum flow is found by blocking flows from a feasible start built
in two linear passes over the topological order that validation finds,
along each vertex's first in-edge and first out-edge.  In the residual
graph every edge can take more flow forwards, and an edge carrying more
than its weight can also give that slack back; the engine keeps the
flow as one slack array, flow minus weight.  Each phase labels vertices with
their residual distance to the source, by a breadth-first search from
the source over reversed arcs, and then augments from the sink along
arcs that descend one level, so the blocking search only walks shortest
sink-to-source paths.  :func:`condense` certifies optimality from its
own components.  Which minimum flow comes out is not part of the
contract: the value, the set the sink reaches in the residual graph,
and the residual components with the order between them are the same
for every minimum flow.  :func:`condense` always lists the source's
component first and the sink's last, but the components between them
come in one topological order among several, found by Kosaraju's two
searches over the flow's residual arcs (a depth-first search for
finishing times, then searches along reversed arcs), so their numbering
can differ between minimum flows.  Listings do not follow it:
``sublattice.meta_rotation_poset`` renumbers the components from the
instance alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .core import ContractViolation, ParseError, _check_scale, _content_lines, _parse_decimal
from .core import _scale_rows


class Edge(NamedTuple):
    tail: int
    head: int
    weight: int


@dataclass(frozen=True, eq=False)
class WeightedDag:
    """A directed graph with integer edge weights scaled by a power of ten.

    Parallel edges are kept distinct; self-loops are rejected.  Vertices
    are 0-based internally and 1-based in files and reports.
    """

    num_vertices: int
    source: int
    sink: int
    edges: tuple[Edge, ...]
    scale: int = 1

    def __post_init__(self) -> None:
        if self.num_vertices < 2:
            raise ValueError("graph needs at least a source and a sink")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        _check_scale(self.scale)
        for v in (self.source, self.sink):
            if not 0 <= v < self.num_vertices:
                raise ValueError(f"vertex {v + 1} out of range")
        for e in self.edges:
            if not (0 <= e.tail < self.num_vertices and 0 <= e.head < self.num_vertices):
                raise ValueError("edge endpoint out of range")
            if e.tail == e.head:
                raise ValueError(f"self-loop at vertex {e.tail + 1}")

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices leaving each vertex, in edge order."""
        return _incidence(self.num_vertices, [e.tail for e in self.edges])

    @cached_property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices entering each vertex, in edge order."""
        return _incidence(self.num_vertices, [e.head for e in self.edges])


def _incidence(n: int, near: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Entry v lists the ids i with ``near[i] == v``, in increasing i."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(near):
        adj[v].append(i)
    return tuple(map(tuple, adj))


@dataclass(frozen=True)
class Flow:
    """Per-edge flow values (scaled integers) and the net source-to-sink
    value, which may be negative."""

    edge_flow: tuple[int, ...]
    value: int


def _reachable(heads: Sequence[Sequence[int]], start: int) -> frozenset[int]:
    """Vertices reachable from start in a head adjacency such as
    :func:`residual` returns."""
    seen = {start}
    reached = [start]
    for v in reached:  # reached grows while it is scanned
        for w in heads[v]:
            if w not in seen:
                seen.add(w)
                reached.append(w)
    return frozenset(seen)


def validate_dag(g: WeightedDag) -> list[int]:
    """Check acyclicity and that every vertex lies on a source-to-sink path,
    and return the topological order Kahn's algorithm found.  Errors name
    a witness cycle, or the smallest vertex off every such path.

    In a graph with no cycles, walking back along in-edges always ends at
    a vertex without one, so every vertex is reachable from the source
    exactly when every other vertex has an in-edge; likewise every vertex
    reaches the sink exactly when every other vertex has an out-edge.  A
    search from the pole runs only to name the vertex when a check fails.
    """
    n = g.num_vertices
    indegree = [len(ins) for ins in g.in_edges]
    order = [v for v in range(n) if indegree[v] == 0]
    # order doubles as Kahn's queue: entries past ``done`` are waiting.
    done = 0
    while done < len(order):
        v = order[done]
        done += 1
        for i in g.out_edges[v]:
            head = g.edges[i].head
            indegree[head] -= 1
            if indegree[head] == 0:
                order.append(head)
    if done != n:
        # Every vertex still holding in-degree has an unprocessed
        # predecessor in the same set, so walking backwards, always to the
        # smallest such predecessor, must loop.
        remaining = {v for v in range(n) if indegree[v] > 0}
        start = min(remaining)
        walk = [start]
        pos = {start: 0}
        v = start
        while True:
            u = min(g.edges[i].tail for i in g.in_edges[v] if g.edges[i].tail in remaining)
            if u in pos:
                loop = walk[pos[u]:]
                break
            pos[u] = len(walk)
            walk.append(u)
            v = u
        cycle = [x + 1 for x in reversed(loop)]
        raise ValueError(f"graph has a cycle through vertices {cycle}")

    edges = g.edges
    if any(not ins for v, ins in enumerate(g.in_edges) if v != g.source):
        heads = [[edges[i].head for i in out] for out in g.out_edges]
        v = min(set(range(n)) - _reachable(heads, g.source))
        raise ValueError(f"vertex {v + 1} is not reachable from the source")
    if any(not out for v, out in enumerate(g.out_edges) if v != g.sink):
        tails = [[edges[i].tail for i in ins] for ins in g.in_edges]
        v = min(set(range(n)) - _reachable(tails, g.sink))
        raise ValueError(f"vertex {v + 1} cannot reach the sink")
    return order


def check_ideal_cut(g: WeightedDag, source_side: frozenset[int]) -> None:
    if g.source not in source_side:
        raise ValueError("cut must contain the source")
    if g.sink in source_side:
        raise ValueError("cut must exclude the sink")
    for v in source_side:
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"vertex {v + 1} out of range")
    for e in g.edges:
        if e.head in source_side and e.tail not in source_side:
            raise ValueError(
                f"edge ({e.tail + 1}, {e.head + 1}) enters the cut"
            )


def cut_weight(g: WeightedDag, side: frozenset[int]) -> int:
    """Total weight of the edges leaving an ideal cut's source side."""
    check_ideal_cut(g, side)
    return sum(e.weight for e in g.edges if e.tail in side and e.head not in side)


def feasible_flow(g: WeightedDag) -> Flow:
    """A flow meeting every lower bound, in O(V + E).

    Every edge starts at max(w, 0).  Then, in reverse topological order,
    each vertex that sends more than it receives pulls the shortfall over
    its first in-edge, which only adds to the outflow of that edge's
    tail, a vertex earlier in the order.  Last, in topological order,
    each vertex that receives more than it sends pushes the surplus on
    over its first out-edge, which only adds to the inflow of a later
    vertex.  :func:`validate_dag` gives the order and guarantees both
    edges.  Flow only ever rises, so every edge stays at or above its
    weight.  Raises ContractViolation unless the result meets every lower
    bound and is conserved at every vertex but the poles.
    """
    order = validate_dag(g)
    edges = g.edges
    flow = [max(e.weight, 0) for e in edges]
    surplus = [0] * g.num_vertices  # inflow minus outflow
    for e, f in zip(edges, flow):
        surplus[e.head] += f
        surplus[e.tail] -= f
    source, sink = g.source, g.sink
    in_edges, out_edges = g.in_edges, g.out_edges
    for v in reversed(order):
        short = surplus[v]
        if short < 0 and v != source:
            i = in_edges[v][0]
            flow[i] -= short
            surplus[v] = 0
            surplus[edges[i].tail] += short
    for v in order:
        extra = surplus[v]
        if extra > 0 and v != sink:
            i = out_edges[v][0]
            flow[i] += extra
            surplus[edges[i].head] += extra
    for f, e in zip(flow, edges):
        if f < e.weight:
            raise ContractViolation("constructed flow misses a lower bound")
    return Flow(tuple(flow), _assert_conservation(g, flow))


def residual(g: WeightedDag, f: Flow) -> tuple[tuple[int, ...], ...]:
    """Residual graph of f under the rule stated in :func:`min_flow`: every
    edge gives a forward arc, and an edge carrying more than its weight
    also gives a backward arc.

    Entry v lists the vertices v has a residual arc to: the heads of v's
    out-edges, then the tails of v's in-edges that carry more than their
    weight, each group by edge index.
    """
    heads: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for e in g.edges:
        heads[e.tail].append(e.head)
    for e, flow in zip(g.edges, f.edge_flow):
        if flow > e.weight:
            heads[e.head].append(e.tail)
    return tuple(tuple(lst) for lst in heads)


def _assert_conservation(g: WeightedDag, flow: Sequence[int]) -> int:
    """Check that every vertex but the poles passes on what it receives,
    naming the first that does not; return the source's net outflow, the
    flow value.  One pass over the edges sums every vertex's net outflow."""
    net = [0] * g.num_vertices
    for (tail, head, _), f in zip(g.edges, flow):
        net[tail] += f
        net[head] -= f
    value = net[g.source]
    net[g.source] = net[g.sink] = 0
    for v, x in enumerate(net):
        if x:
            raise ContractViolation(f"flow conservation fails at vertex {v + 1}")
    return value


def _source_levels(
    g: WeightedDag,
    preds: Sequence[Sequence[int]],
    heads: Sequence[int],
    slack: Sequence[int],
) -> list[int]:
    """Breadth-first residual distance to the source, -1 where unlabelled.

    The search runs from the source over reversed residual arcs.  A vertex
    y is one step further out than each tail of its in-edges
    (``preds[y]``), since every forward arc exists, and than the head of
    each out-edge with slack above its lower bound (a backward arc).  It
    stops as soon as the sink is labelled, so no vertex further out than
    the sink gets a level.
    """
    sink, out_edges = g.sink, g.out_edges
    level = [-1] * g.num_vertices
    level[g.source] = 0
    queue = deque([g.source])
    while queue:
        y = queue.popleft()
        up = level[y] + 1
        for x in preds[y]:
            if level[x] < 0:
                level[x] = up
                queue.append(x)
        # The sink has no out-edges, so only a backward arc leaves it.
        for i in out_edges[y]:
            if slack[i] > 0:
                x = heads[i]
                if level[x] < 0:
                    level[x] = up
                    if x == sink:
                        return level
                    queue.append(x)
    return level


def min_flow(g: WeightedDag) -> Flow:
    """Minimum-value flow subject to f(e) >= w(e) on every edge.

    Starts from :func:`feasible_flow` and pushes flow from the sink back
    to the source by blocking flows (Dinic's phases in the minimum-flow
    form of Ciurea and Ciupala).  The flow is kept as one slack array,
    f(e) - w(e), and comes out as w(e) plus the final slack.  The residual
    rule: any edge can take more flow forwards, since there is no upper
    bound, and an edge can give back (a backward step) its slack.  Each
    phase labels vertices by residual distance to the source, then
    augments along sink-to-source paths whose every step descends one
    level until none is left.  Those are exactly the shortest residual
    paths, so the depth-first search only backs out of branches that the
    phase's own pushes cut off.  The sink has no out-edges, so every
    sink-to-source path has a backward step, and the bottleneck is the
    smallest slack among the path's backward steps.  The result's value
    equals the maximum ideal cut weight.

    Per-edge flows are one minimum flow among many and are not part of
    the contract.  What callers read is the value, the set the sink
    reaches in the residual graph and the residual components with the
    order between them, which are the same for every minimum flow.
    """
    base = feasible_flow(g)
    source, sink = g.source, g.sink
    tails = [e.tail for e in g.edges]
    heads = [e.head for e in g.edges]
    slack = [f - e.weight for f, e in zip(base.edge_flow, g.edges)]
    pushed_total = 0
    # arcs[v]: v's candidate residual arcs for the blocking search, edge i
    # forwards as i and backwards as ~i, out-edges first.  preds[v]: the
    # tails of v's in-edges, which the level search steps to from v.
    arcs = [list(out) + [~i for i in inn] for out, inn in zip(g.out_edges, g.in_edges)]
    preds = [[tails[i] for i in inn] for inn in g.in_edges]
    while True:
        level = _source_levels(g, preds, heads, slack)
        if level[sink] < 0:
            break
        # Blocking flow: an iterative depth-first search from the sink with
        # one arc cursor per vertex; a dead end gets level -1.
        cursor = [0] * g.num_vertices
        path: list[int] = []
        stack: list[int] = []
        v = sink
        while True:
            if v == source:
                bottleneck = min(slack[~a] for a in path if a < 0)
                cut_at = -1
                for k, a in enumerate(path):
                    if a >= 0:
                        slack[a] += bottleneck
                    else:
                        i = ~a
                        left = slack[i] - bottleneck
                        slack[i] = left
                        if left < 0:
                            raise ContractViolation("augmentation broke a lower bound")
                        if cut_at < 0 and left == 0:
                            cut_at = k
                pushed_total += bottleneck
                # Resume the search where the first arc the push saturated starts.
                v = stack[cut_at]
                del path[cut_at:], stack[cut_at:]
                continue
            vertex_arcs = arcs[v]
            end = len(vertex_arcs)
            c = cursor[v]
            down = level[v] - 1
            while c < end:
                a = vertex_arcs[c]
                if a >= 0:
                    w = heads[a]
                    if level[w] == down:
                        break
                else:
                    w = tails[~a]
                    if level[w] == down and slack[~a] > 0:
                        break
                c += 1
            cursor[v] = c
            if c < end:
                path.append(a)
                stack.append(v)
                v = w
            elif v == sink:
                break
            else:
                level[v] = -1
                path.pop()
                v = stack.pop()

    flow = [s + e.weight for s, e in zip(slack, g.edges)]
    value = _assert_conservation(g, flow)
    if value != base.value - pushed_total:
        raise ContractViolation("composed flow value is inconsistent")
    result = Flow(tuple(flow), value)
    # Optimality certificate: with the flow minimal, the sink can no longer
    # reach the source through the residual graph.
    if g.source in _reachable(residual(g, result), g.sink):
        raise ContractViolation("residual still connects sink to source")
    return result


def max_weight_ideal_cut(g: WeightedDag) -> tuple[frozenset[int], int]:
    """The maximum-weight ideal cut with the largest source side, plus its
    weight.  A cut is its source side, a set of 0-based vertex ids.  The
    weight always equals the minimum flow value; a cut that is not ideal
    or weighs otherwise raises ContractViolation."""
    f = min_flow(g)
    sink_side = _reachable(residual(g, f), g.sink)
    cut = frozenset(range(g.num_vertices)) - sink_side
    try:
        weight = cut_weight(g, cut)
    except ValueError as exc:
        raise ContractViolation(str(exc)) from None
    if weight != f.value:
        raise ContractViolation("cut weight does not match the flow value")
    return cut, weight


def _components(res: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of a head adjacency, in topological
    order of the condensation, by Kosaraju's two searches.  A depth-first
    search lists the vertices by finishing time; then, latest finisher
    first, a search along reversed arcs from each unclaimed vertex claims
    that vertex's component."""
    n = len(res)
    seen = [False] * n
    finished: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(res[root]))]
        while stack:
            v, heads = stack[-1]
            for u in heads:
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, iter(res[u])))
                    break
            else:
                stack.pop()
                finished.append(v)
    tails: list[list[int]] = [[] for _ in range(n)]
    for v, heads in enumerate(res):
        for u in heads:
            tails[u].append(v)
    claimed = [False] * n
    components: list[list[int]] = []
    for root in reversed(finished):
        if claimed[root]:
            continue
        claimed[root] = True
        comp = [root]
        for v in comp:  # comp grows while it is scanned
            for u in tails[v]:
                if not claimed[u]:
                    claimed[u] = True
                    comp.append(u)
        components.append(comp)
    return components


def condense(
    g: WeightedDag, f: Flow
) -> tuple[tuple[frozenset[int], ...], frozenset[tuple[int, int]]]:
    """Shrink the residual graph of an optimal flow to its component DAG:
    the strongly connected components in topological order, and the
    deduplicated arcs (a, b) between components a < b.  Kosaraju's two
    searches, depth-first by finishing time and then along reversed
    arcs, give the components already in that order.

    The ideal cuts of the result, pulled back to vertex sets, are exactly
    the maximum-weight ideal cuts of g.  Requires g validated (see
    :func:`validate_dag`) and f optimal: forward arcs then carry the
    source to the sink, so the two share a component exactly when the
    sink reaches the source, which only a non-optimal f allows.  They
    also run from the source to every vertex and from every vertex to
    the sink, so the source's component is always first and the sink's
    always last; only the numbering of the components between them can
    vary with the flow, so a listing must not follow it
    (``sublattice.meta_rotation_poset`` renumbers them).  A shared pole
    component, a component listed after one it precedes, or a pole
    component out of place raises ContractViolation.
    """
    res = residual(g, f)
    comps = _components(res)
    comp_of = [0] * g.num_vertices
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    if comp_of[g.source] == comp_of[g.sink]:
        raise ContractViolation("flow is not optimal: sink reaches source")
    edges = {
        (comp_of[v], comp_of[u])
        for v, heads in enumerate(res)
        for u in heads
        if comp_of[v] != comp_of[u]
    }
    if any(a > b for a, b in edges):
        raise ContractViolation("residual components are not listed in topological order")
    if comp_of[g.source] != 0 or comp_of[g.sink] != len(comps) - 1:
        raise ContractViolation("pole components are not listed first and last")
    return tuple(frozenset(c) for c in comps), frozenset(edges)


def _int_pair(line: tuple[int, str], names: str) -> tuple[int, tuple[int, int]]:
    """The line number and the two integers of a (line number, text)
    header line; ``names`` is the 'a b' its error message expects."""
    lineno, text = line
    parts = text.split()
    if len(parts) == 2:
        try:
            return lineno, (int(parts[0]), int(parts[1]))
        except ValueError:
            pass
    raise ParseError(f"line {lineno}: expected '{names}'")


def parse_dag(text: str) -> WeightedDag:
    """Parse the V E / s t / edge-list format with decimal edge weights.

    Vertex ids are 1-based in the file.  Edge weights share one
    power-of-ten scale; parallel edges stay distinct.
    """
    lines = _content_lines(text)
    if len(lines) < 2:
        raise ParseError("line 1: missing graph header")
    lineno, (num_vertices, num_edges) = _int_pair(lines[0], "V E")
    if num_vertices < 2:
        raise ParseError(f"line {lineno}: need at least two vertices")
    if num_edges < 0:
        raise ParseError(f"line {lineno}: negative edge count")
    # Every vertex but the source needs an in-edge to be reachable, so the
    # header alone rules out larger graphs before anything is allocated.
    if num_vertices > num_edges + 1:
        raise ParseError(
            f"line {lineno}: {num_vertices} vertices need at least {num_vertices - 1} edges"
        )
    lineno, (source, sink) = _int_pair(lines[1], "s t")
    for v in (source, sink):
        if not 1 <= v <= num_vertices:
            raise ParseError(f"line {lineno}: vertex {v} out of range 1..{num_vertices}")
    if source == sink:
        raise ParseError(f"line {lineno}: source and sink must differ")
    rows = lines[2:]
    if len(rows) != num_edges:
        raise ParseError(f"expected {num_edges} edge rows, found {len(rows)}")
    ends = []
    weights = []
    for lineno, line in rows:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge endpoints") from None
        for x in (u, v):
            if not 1 <= x <= num_vertices:
                raise ParseError(f"line {lineno}: vertex {x} out of range 1..{num_vertices}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        try:
            value, digits = _parse_decimal(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        weights.append((lineno, digits, (value,)))
        ends.append((u - 1, v - 1))
    scaled, scale = _scale_rows(weights)
    edges = tuple(Edge(u, v, w) for (u, v), (w,) in zip(ends, scaled))
    return WeightedDag(num_vertices, source - 1, sink - 1, edges, scale)
