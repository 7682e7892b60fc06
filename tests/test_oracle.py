from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

import pytest

from mapfdc import engine
from mapfdc.errors import ResourceLimitError
from mapfdc.graphs import Graph, complete_graph
from mapfdc.model import Instance, Schedule, detect_swaps, validate_schedule
from mapfdc.oracle import optimal_schedule, solve_with_stats


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _reference_optimum(inst: Instance, cap: int) -> Optional[int]:
    """Independent exhaustive check: breadth-first over joint placements,
    expanding successors by brute per-agent products. Small inputs only."""
    g = inst.graph
    start = tuple(inst.starts)
    goal = tuple(inst.targets)
    if start == goal:
        return 0
    frontier = [start]
    seen = {start}
    for depth in range(1, cap + 1):
        nxt: List[Tuple[int, ...]] = []
        for cur in frontier:
            for cand in itertools.product(
                *[g.closed_neighbors(v) for v in cur]
            ):
                if len(set(cand)) != len(cand):
                    continue
                if detect_swaps(cur, cand):
                    continue
                if cand in seen:
                    continue
                if cand == goal:
                    return depth
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt
        if not frontier:
            return None
    return None


def test_already_home_is_makespan_zero() -> None:
    inst = Instance(_path(3), (0, 2), (0, 2))
    result = optimal_schedule(inst)
    assert result is not None
    m, sched = result
    assert m == 0
    assert sched.placements == ()
    assert validate_schedule(inst, sched).ok


def test_two_agents_on_an_edge_cannot_trade() -> None:
    inst = Instance(_path(2), (0, 1), (1, 0))
    assert optimal_schedule(inst, cap=10) is None


def test_swap_on_k4_costs_two_turns() -> None:
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    result = optimal_schedule(inst, cap=5)
    assert result is not None
    m, sched = result
    assert m == 2
    assert validate_schedule(inst, sched).ok


def test_single_agent_shortest_path() -> None:
    inst = Instance(_path(5), (0,), (4,))
    result = optimal_schedule(inst)
    assert result is not None
    assert result[0] == 4


def test_cap_semantics() -> None:
    inst = Instance(_path(5), (0,), (4,))
    assert optimal_schedule(inst, cap=3) is None
    result = optimal_schedule(inst, cap=4)
    assert result is not None and result[0] == 4
    # cap 0 admits exactly the already-solved case
    assert optimal_schedule(inst, cap=0) is None
    home = Instance(_path(5), (0,), (0,))
    zero = optimal_schedule(home, cap=0)
    assert zero is not None and zero[0] == 0


def test_makespan_limit_on_instance_acts_as_cap() -> None:
    inst = Instance(_path(5), (0,), (4,), makespan_limit=3)
    assert optimal_schedule(inst) is None


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
        got = optimal_schedule(inst, cap=12)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            m, sched = got
            assert m == expected
            assert validate_schedule(inst, sched).ok


def test_solver_is_deterministic() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (2, 0, 1))
    first = optimal_schedule(inst)
    second = optimal_schedule(inst)
    assert first is not None and second is not None
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_state_guard_trips_on_tiny_budget() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (2, 0, 1))
    with pytest.raises(ResourceLimitError):
        optimal_schedule(inst, state_guard=3)


def test_solve_with_stats_counts_states() -> None:
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    result, states = solve_with_stats(inst, cap=5)
    assert result is not None and result[0] == 2
    assert states > 0
    absent, states2 = solve_with_stats(
        Instance(_path(2), (0, 1), (1, 0)), cap=6
    )
    assert absent is None and states2 > 0


def test_occupancy_floor_is_enforced_between_endpoints() -> None:
    # crossing K4 while keeping at least one agent on {2, 3} at every
    # intermediate placement: direct 2-step trades through those vertices
    g = complete_graph(4)
    res = engine.joint_bfs(
        g, (0, 1), (1, 0), occupancy_vertices=(2, 3), min_occupancy=1
    )
    assert res.path is not None
    for placement in res.path[1:-1]:
        assert any(v in (2, 3) for v in placement)
