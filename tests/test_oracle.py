from __future__ import annotations

import importlib.util
import random
import time
import tracemalloc
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

import pytest

from mapfdc import engine, fpt
from mapfdc.errors import PreconditionError, ResourceLimitError
from mapfdc.graphs import Graph, complete_graph
from mapfdc.model import Instance, Schedule, detect_swaps, parse_instance, validate_schedule
from mapfdc.fpt import oracle_with_stats


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _optimum(inst: Instance, limit: Optional[int] = None) -> Optional[Tuple[int, Schedule]]:
    """The oracle's answer on `inst`, with its makespan limit set to `limit`
    when one is given."""
    if limit is not None:
        inst = replace(inst, makespan_limit=limit)
    return oracle_with_stats(inst)[0]


def _moves(g: Graph, cur: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Every placement one turn after `cur`: each agent stays or crosses one
    edge, no two agents share a vertex, and no two trade vertices."""
    out: List[Tuple[int, ...]] = []
    at = {v: a for a, v in enumerate(cur)}
    acc = list(cur)
    taken: Set[int] = set()

    def place(i: int) -> None:
        if i == len(cur):
            out.append(tuple(acc))
            return
        for v in sorted(g.neighbor_set(cur[i]) | {cur[i]}):
            b = at.get(v, i)
            if v in taken or (b < i and acc[b] == cur[i]):
                continue
            taken.add(v)
            acc[i] = v
            place(i + 1)
            taken.discard(v)

    place(0)
    return out


def _reference_optimum(inst: Instance, cap: int) -> Optional[int]:
    """Independent exhaustive check: breadth-first over joint placements
    from both ends (a turn played backwards is a turn), one layer of the
    smaller frontier at a time. Small inputs only."""
    start = tuple(inst.starts)
    goal = tuple(inst.targets)
    if start == goal:
        return 0
    seen = [{start}, {goal}]
    fronts = [[start], [goal]]
    for length in range(1, cap + 1):
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        nxt: List[Tuple[int, ...]] = []
        for cur in fronts[side]:
            for cand in _moves(inst.graph, cur):
                if cand in seen[1 - side]:
                    return length
                if cand not in seen[side]:
                    seen[side].add(cand)
                    nxt.append(cand)
        if not nxt:
            return None
        fronts[side] = nxt
    return None


def test_already_home_is_makespan_zero() -> None:
    inst = Instance(_path(3), (0, 2), (0, 2))
    result = _optimum(inst)
    assert result is not None
    m, sched = result
    assert m == 0
    assert sched.placements == ()
    assert validate_schedule(inst, sched).ok


def test_two_agents_on_an_edge_cannot_trade() -> None:
    inst = Instance(_path(2), (0, 1), (1, 0))
    assert _optimum(inst, limit=10) is None


def test_swap_on_k4_costs_two_turns() -> None:
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    result = _optimum(inst, limit=5)
    assert result is not None
    m, sched = result
    assert m == 2
    assert validate_schedule(inst, sched).ok


def test_single_agent_shortest_path() -> None:
    inst = Instance(_path(5), (0,), (4,))
    result = _optimum(inst)
    assert result is not None
    assert result[0] == 4


def test_cap_semantics() -> None:
    inst = Instance(_path(5), (0,), (4,))
    assert _optimum(inst, limit=3) is None
    result = _optimum(inst, limit=4)
    assert result is not None and result[0] == 4
    # limit 0 admits exactly the already-solved case
    assert _optimum(inst, limit=0) is None
    home = Instance(_path(5), (0,), (0,))
    zero = _optimum(home, limit=0)
    assert zero is not None and zero[0] == 0


def test_makespan_limit_on_instance_acts_as_cap() -> None:
    inst = Instance(_path(5), (0,), (4,), makespan_limit=3)
    assert _optimum(inst) is None


def _random_small_instance(rng: random.Random) -> Instance:
    n = rng.randint(1, 6)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.6
    ]
    g = Graph(n, edges)
    k = rng.randint(1, min(3, n))
    starts = tuple(rng.sample(range(n), k))
    targets = tuple(rng.sample(range(n), k))
    return Instance(g, starts, targets)


def test_optimum_matches_reference_enumeration() -> None:
    rng = random.Random(1234)
    for _ in range(120):
        inst = _random_small_instance(rng)
        expected = _reference_optimum(inst, cap=12)
        got = _optimum(inst, limit=12)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            m, sched = got
            assert m == expected
            assert validate_schedule(inst, sched).ok


def test_solver_is_deterministic() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (2, 0, 1))
    first = _optimum(inst)
    second = _optimum(inst)
    assert first is not None and second is not None
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_state_guard_trips_on_tiny_budget() -> None:
    # three agents rotate a third of the way round a 12-cycle: makespan 4,
    # so the search keeps at least the start and three placements between
    inst = Instance(_cycle(12), (0, 4, 8), (4, 8, 0))
    result, states = oracle_with_stats(inst)
    assert result is not None and result[0] == 4 and states > 3
    with pytest.raises(ResourceLimitError):
        oracle_with_stats(inst, state_guard=3)


def test_state_guard_bounds_the_kept_states_exactly() -> None:
    # the guard is checked before a placement is kept: a guard of exactly
    # the states a search keeps lets it finish unchanged, and one less
    # trips it with that many states kept
    graph, starts, targets = _cycle(12), (0, 4, 8), (4, 8, 0)
    res = engine.joint_bfs(graph, starts, targets)
    assert res.path is not None and len(res.path) == 5 and res.states > 3
    assert engine.joint_bfs(graph, starts, targets, state_guard=res.states) == res
    with pytest.raises(ResourceLimitError) as trip:
        engine.joint_bfs(graph, starts, targets, state_guard=res.states - 1)
    assert trip.value.states == res.states - 1


def test_byte_budget_bounds_the_kept_states_exactly(monkeypatch: pytest.MonkeyPatch) -> None:
    # the budget is a cap of BYTE_BUDGET // bytes_per_state(k) states for
    # k agents, checked where the state guard is: a budget of exactly the
    # bytes of the states a search keeps lets it finish unchanged, and one
    # state's bytes less trips it with that many states kept, naming the
    # budget rather than the guard
    graph, starts, targets = _cycle(12), (0, 4, 8), (4, 8, 0)
    res = engine.joint_bfs(graph, starts, targets)
    per_state = engine.bytes_per_state(len(starts))
    monkeypatch.setattr(engine, "BYTE_BUDGET", res.states * per_state)
    assert engine.joint_bfs(graph, starts, targets) == res
    monkeypatch.setattr(engine, "BYTE_BUDGET", (res.states - 1) * per_state)
    with pytest.raises(ResourceLimitError, match="^byte budget of ") as trip:
        engine.joint_bfs(graph, starts, targets)
    assert trip.value.states == res.states - 1


def test_byte_budget_stops_a_wide_search_within_a_second(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # tail 300/250: K300 plus the path 300-301 off vertex 0, one agent from
    # 301 to 299 and 249 standing on 1..249. The whole-graph search keeps
    # 250-agent placements of 3,200 bytes each, so 16 MB caps it at 5,242
    # states
    c, k = 300, 250
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)] + [(0, c), (c, c + 1)]
    still = tuple(range(1, k))
    inst = Instance(Graph(c + 2, edges), (c + 1,) + still, (c - 1,) + still)
    budget = 16 << 20
    monkeypatch.setattr(engine, "BYTE_BUDGET", budget)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^byte budget of ") as trip:
        oracle_with_stats(inst)
    assert time.perf_counter() - started < 1.0
    assert trip.value.states == budget // engine.bytes_per_state(k) == 5242


def test_option_rows_cost_the_vertices_asked_for_not_a_slot_per_vertex() -> None:
    # 75 agents on a 300-vertex path, each one step from its target: the
    # search keeps 2 states and asks each target's options for one vertex.
    # Its peak may pass that of building the distance tables alone by less
    # than half of one row list of n slots (8 bytes each) per target
    n, k = 300, 75
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    starts = tuple(4 * i for i in range(k))
    targets = tuple(4 * i + 1 for i in range(k))
    tracemalloc.start()
    try:
        tables = [engine._Options(g, t) for t in targets]
        base = tracemalloc.get_traced_memory()[1]
        del tables
        tracemalloc.reset_peak()
        res = engine.joint_bfs(g, starts, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == engine.BfsResult((starts, targets), 2, 1)
    assert peak < base + 8 * n * k // 2


def test_solve_with_stats_counts_states() -> None:
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    result, states = oracle_with_stats(replace(inst, makespan_limit=5))
    assert result is not None and result[0] == 2
    assert states > 0
    absent, states2 = oracle_with_stats(
        Instance(_path(2), (0, 1), (1, 0), makespan_limit=6)
    )
    assert absent is None and states2 > 0


def _near_clique(rng: random.Random, n: int, dc: int) -> Tuple[Graph, List[int]]:
    """A clique on n - dc vertices plus dc vertices joined to every other
    vertex by a coin flip; returns the graph and those dc vertices."""
    mods = sorted(rng.sample(range(n), dc))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u not in mods and v not in mods) or rng.random() < 0.5
    ]
    return Graph(n, edges), mods


def _assert_legal_path(
    g: Graph,
    path: Sequence[Tuple[int, ...]],
    starts: Tuple[int, ...],
    targets: Tuple[int, ...],
) -> None:
    assert path[0] == starts and path[-1] == targets
    for prev, cur in zip(path, path[1:]):
        assert len(set(cur)) == len(cur)
        assert all(u == v or g.has_edge(u, v) for u, v in zip(prev, cur))
        assert not detect_swaps(prev, cur)


def _differential_cases(rng: random.Random):
    """(graph, agents): 240 near-cliques, then 30 paths and 30 cycles."""
    for _ in range(240):
        g, _ = _near_clique(rng, rng.randint(7, 9), rng.randint(1, 3))
        yield g, rng.randint(4, 6)
    for i in range(60):
        n = rng.randint(3, 8)
        g = _path(n) if i % 2 else _cycle(n)
        yield g, rng.randint(1, min(3, n))


def test_pruned_search_matches_the_reference_with_caps() -> None:
    cap = 8
    rng = random.Random(2024)
    infeasible = capped = 0
    for g, agents in _differential_cases(rng):
        starts = tuple(rng.sample(range(g.n), agents))
        targets = tuple(rng.sample(range(g.n), agents))
        expected = _reference_optimum(Instance(g, starts, targets), cap)
        res = engine.joint_bfs(g, starts, targets, depth_cap=cap)
        assert res.generated >= res.states - 1
        if expected is None:
            infeasible += 1
            assert res.path is None
            continue
        assert res.path is not None and len(res.path) - 1 == expected
        _assert_legal_path(g, res.path, starts, targets)
        if expected > 0:
            capped += 1
            below = engine.joint_bfs(g, starts, targets, depth_cap=expected - 1)
            assert below.path is None
    assert infeasible >= 20 and capped >= 200


@pytest.mark.parametrize(
    "starts, targets",
    [
        ((0, 0), (1, 2)),
        ((0, 1), (0, -1)),
        ((0, -1), (0, 1)),
        ((0, 1), (0, 9)),
        ((9, 1), (0, 1)),
    ],
)
def test_joint_bfs_rejects_shared_or_unknown_vertices(starts, targets) -> None:
    with pytest.raises(PreconditionError):
        engine.joint_bfs(complete_graph(4), starts, targets)


def test_joint_bfs_answers_repeated_targets_without_a_search() -> None:
    res = engine.joint_bfs(complete_graph(4), (0, 1), (2, 2))
    assert res == engine.BfsResult(None, 1, 0)


def test_option_rows_ascend_by_vertex_id() -> None:
    # vertex 0's neighbour set iterates as 8, 33, 1, 17; successors are
    # enumerated from these rows, so schedules depend on their order
    g = Graph(40, [(0, 8), (0, 33), (0, 1), (0, 17), (8, 33)])
    assert list(g.neighbor_set(0)) != sorted(g.neighbor_set(0))
    for target in (0, 1, 8, 33):
        options = engine._Options(g, target)
        for slack in range(4):
            for u in (0, 1, 8, 17, 33):
                kept, _ = options.row(slack, u)
                assert list(kept) == sorted(kept)
    assert engine._Options(g, 33).row(3, 0)[0] == (0, 1, 8, 17, 33)


def _reference_distances(graph: Graph, source: int) -> List[int]:
    """Hop distances by a plain queue, one step per edge: the reference for
    the layered `engine._distances`."""
    dist = [graph.n] * graph.n
    dist[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for v in graph.neighbor_set(u):
            if dist[v] == graph.n:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_layered_distances_match_a_queue_search() -> None:
    rng = random.Random(5)
    unreachable = 0
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.choice((0.05, 0.15, 0.4, 1.0))
        cut = rng.randint(1, n)  # with cut < n no edge joins 0..cut-1 to the rest
        if rng.random() < 0.7:
            cut = n
        g = Graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u < cut) == (v < cut) and rng.random() < p
        ])
        for source in range(n):
            want = _reference_distances(g, source)
            assert engine._distances(g, source) == want
            unreachable += want.count(n)
    assert unreachable > 0


def _brute_two_edge_components(g: Graph) -> List[Set[int]]:
    """Components once every edge whose deletion disconnects its endpoints
    is deleted."""

    def reach(src: int, edges: Set[Tuple[int, int]]) -> Set[int]:
        seen = {src}
        todo = [src]
        while todo:
            u = todo.pop()
            for v in range(g.n):
                if v not in seen and (min(u, v), max(u, v)) in edges:
                    seen.add(v)
                    todo.append(v)
        return seen

    edges = set(g.edges)
    kept = {e for e in edges if e[1] in reach(e[0], edges - {e})}
    return [reach(v, kept) for v in range(g.n)]


def test_two_edge_components_match_brute_force() -> None:
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.3, 0.5))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        label = engine._two_edge_components(g)
        expected = _brute_two_edge_components(g)
        for v in range(n):
            assert {u for u in range(n) if label[u] == label[v]} == expected[v]


def _packed_cases(rng: random.Random):
    """(graph, starts, targets) with one agent on every vertex: random
    graphs, near-cliques, and near-cliques with a pendant vertex."""
    for i in range(200):
        n = rng.randint(3, 6)
        if i % 3 == 0:
            p = rng.choice((0.4, 0.6, 0.8))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        elif i % 3 == 1:
            g, _ = _near_clique(rng, n, rng.randint(1, 2))
        else:
            edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
            g = Graph(n, edges + [(rng.randrange(n - 1), n - 1)])
        starts = tuple(rng.sample(range(n), n))
        targets = tuple(rng.sample(range(n), n))
        yield g, starts, targets


def test_packed_instances_match_the_reference() -> None:
    rng = random.Random(808)
    decided_early = searched_infeasible = 0
    for g, starts, targets in _packed_cases(rng):
        expected = _reference_optimum(Instance(g, starts, targets), cap=720)
        res = engine.joint_bfs(g, starts, targets)
        if expected is None:
            assert res.path is None
            if res.states == 1:
                decided_early += 1
            else:
                searched_infeasible += 1
            continue
        assert res.path is not None and len(res.path) - 1 == expected
        _assert_legal_path(g, res.path, starts, targets)
    assert decided_early >= 50 and searched_infeasible >= 1


def test_unpacked_agents_still_cross_bridges() -> None:
    one = engine.joint_bfs(_path(3), (0, 1), (1, 2))
    assert one.path is not None and len(one.path) - 1 == 1
    two = engine.joint_bfs(_path(4), (0, 1), (2, 3))
    assert two.path is not None and len(two.path) - 1 == 2


_PACKED_INFEASIBLE_TEXT = """mapf 1
vertices 7
edge 0 5
edge 1 4
edge 1 6
edge 2 3
edge 2 4
edge 2 5
edge 2 6
edge 3 4
edge 3 5
edge 4 5
agent 4 3
agent 6 4
agent 1 6
agent 0 5
agent 2 1
agent 3 2
agent 5 0
"""


def test_packed_bridge_crossing_is_decided_without_a_search() -> None:
    # pendant vertex 0 hangs on the bridge 0-5, and the agents on 0 and 5
    # must trade them
    inst = parse_instance(_PACKED_INFEASIBLE_TEXT)
    res = engine.joint_bfs(inst.graph, inst.starts, inst.targets)
    assert res == engine.BfsResult(None, 1, 0)
    assert fpt.solve_with_stats(inst) == (None, 1)


def test_long_packed_path_exchange_is_decided_without_recursion() -> None:
    n = 3000
    starts = tuple(range(n))
    targets = (n - 1,) + starts[1:-1] + (0,)
    res = engine.joint_bfs(_path(n), starts, targets)
    assert res == engine.BfsResult(None, 1, 0)


def test_engine_bench_rejects_fewer_than_one_repeat(capsys) -> None:
    # with no timing run the script would have no result to report
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "engine_bench.py"
    spec = importlib.util.spec_from_file_location("engine_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for repeats in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--repeats", repeats])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
    assert bench.main(["--repeats", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(bench._cases())
