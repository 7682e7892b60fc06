from __future__ import annotations

import random
import sys
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest

from mapfdc import fpt
from mapfdc.errors import MapfError, PreconditionError
from mapfdc.fpt import (
    _fix_mutual_exchanges,
    _drift_matching,
    config_shortest_schedule,
    lift_schedule,
    repair_final_swaps,
    solve_fpt,
)
from mapfdc.cliques import solve_clique
from mapfdc.graphs import CliqueSplit, Graph, clique_split, complete_graph
from mapfdc.kernelize import Kernel, build_kernel, classify_types, select_core_agents
from mapfdc.model import Instance, Schedule, detect_swaps, validate_schedule
from mapfdc.oracle import optimal_schedule


def _k4_kernel(starts: Tuple[int, ...], targets: Tuple[int, ...], k: int = 0) -> Kernel:
    g = complete_graph(4)
    return Kernel(
        g,
        tuple(range(len(starts))),
        starts,
        targets,
        k,
        tuple(range(4)),
        frozenset(),
        ((0, (0, 1, 2, 3)),),
    )


def _kernel(inst: Instance, split: CliqueSplit, core: FrozenSet[int]) -> Kernel:
    types, _ = classify_types(inst, split)
    return build_kernel(inst, split, core, types)


def test_config_search_settled_agents_cost_nothing() -> None:
    kernel = _k4_kernel((0, 1), (0, 1))
    sched = config_shortest_schedule(kernel, 0, 10)
    assert sched is not None
    assert sched.makespan == 0


def test_config_search_matches_clique_and_oracle_on_a_swap() -> None:
    kernel = _k4_kernel((0, 1), (1, 0))
    sched = config_shortest_schedule(kernel, 0, 10)
    assert sched is not None
    assert sched.makespan == 2
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    assert validate_schedule(inst, sched).ok
    clique_result = solve_clique(inst)
    oracle_result = optimal_schedule(inst, cap=5)
    assert clique_result is not None and oracle_result is not None
    assert sched.makespan == clique_result[0] == oracle_result[0]


def test_config_search_absence_within_bound() -> None:
    kernel = _k4_kernel((0, 1), (1, 0))
    assert config_shortest_schedule(kernel, 0, 1) is None


def test_config_search_keeps_agents_on_the_modulator() -> None:
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)])
    kernel = Kernel(
        g,
        (0, 1),
        (0, 1),
        (1, 0),
        1,
        tuple(range(5)),
        frozenset({4}),
        ((0, (0, 1, 2, 3)),),
    )
    sched = config_shortest_schedule(kernel, 1, 10)
    assert sched is not None
    assert sched.makespan == 2
    for placement in sched.placements[:-1]:
        assert any(v == 4 for v in placement)
    # the same exchange with the occupancy constraint switched off may
    # resolve through the spare clique vertices instead
    free = config_shortest_schedule(kernel, 0, 10)
    assert free is not None and free.makespan == 2


def test_drift_matching_avoids_forbidden_pairs() -> None:
    left = [0, 1, 2, 3, 4]
    right = [5, 6, 7, 8, 9]
    match = _drift_matching(left, right, {(0, 5)})
    assert sorted(match) == left
    assert sorted(match.values()) == right
    assert match[0] != 5


def test_drift_matching_threads_a_tight_diagonal() -> None:
    # forbid the identity-like assignment everywhere except one column
    left = [0, 1, 2]
    right = [0, 1, 2]
    forbidden: Set[Tuple[int, int]] = {(0, 0), (1, 1)}
    match = _drift_matching(left, right, forbidden)
    assert sorted(match.values()) == right
    assert all((w, y) not in forbidden for w, y in match.items())


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_drift_matching_does_not_recurse_per_agent() -> None:
    side = list(range(300))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        match = _drift_matching(side, side, set())
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(match) == side
    assert sorted(match.values()) == side


def _random_frame(rng: random.Random, width: int) -> Tuple[List[int], List[int]]:
    vertices = range(3 * width)
    return sorted(rng.sample(vertices, width)), sorted(rng.sample(vertices, width))


def test_drift_matching_reverses_frames_without_forbidden_pairs() -> None:
    rng = random.Random(404)
    for _ in range(200):
        left, right = _random_frame(rng, rng.randint(1, 60))
        match = _drift_matching(left, right, set())
        assert match == {w: right[-1 - j] for j, w in enumerate(left)}


def test_drift_matching_avoids_sparse_forbidden_pairs() -> None:
    # as in a lift frame, no vertex is the left or the right end of two
    # forbidden pairs
    rng = random.Random(405)
    for _ in range(200):
        width = rng.randint(2, 60)
        left, right = _random_frame(rng, width)
        count = rng.randint(1, width)
        forbidden = set(zip(rng.sample(left, count), rng.sample(right, count)))
        match = _drift_matching(left, right, forbidden)
        assert sorted(match) == left
        assert sorted(match.values()) == right
        assert all((w, y) not in forbidden for w, y in match.items())


def test_drift_matching_trades_partners_with_a_neighbour() -> None:
    left, right = [0, 1, 2, 3], [4, 5, 6, 7]
    # the next position, or the previous one at the end
    assert _drift_matching(left, right, {(1, 6)}) == {0: 7, 1: 5, 2: 6, 3: 4}
    assert _drift_matching(left, right, {(3, 4)}) == {0: 7, 1: 6, 2: 4, 3: 5}


def test_fix_mutual_exchanges_rewires_to_stationary() -> None:
    match = {1: 2, 2: 1, 3: 4}
    _fix_mutual_exchanges(match)
    assert match == {1: 1, 2: 2, 3: 4}
    agents = sorted(match)
    prev = tuple(agents)
    nxt = tuple(match[a] for a in agents)
    assert detect_swaps(prev, nxt) == []


def test_fix_mutual_exchanges_handles_chained_pairs() -> None:
    match = {1: 2, 2: 1, 5: 6, 6: 5, 7: 8}
    _fix_mutual_exchanges(match)
    assert match == {1: 1, 2: 2, 5: 5, 6: 6, 7: 8}


def test_lift_with_full_core_is_a_relabeling() -> None:
    g = Graph(5, [(0, 1)] + [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    split = clique_split(g)
    assert split.modulator == frozenset({0})
    inst = Instance(g, (0, 2), (2, 3), makespan_limit=None)
    kernel = _kernel(inst, split, frozenset(inst.agents))
    ksched = config_shortest_schedule(kernel, kernel.k, 14)
    assert ksched is not None
    lifted = lift_schedule(inst, split, kernel, ksched)
    assert lifted.makespan == ksched.makespan
    assert validate_schedule(inst, lifted).ok


def _drop_instance() -> Tuple[Instance, CliqueSplit]:
    """Hub plus a 60-vertex clique; one hub-crossing agent and 51 clique
    dwellers that stay in place, enough to outnumber max(core, 50)."""
    clique = list(range(1, 61))
    edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    edges.extend([(0, 1), (0, 2)])
    g = Graph(61, edges)
    starts = tuple([0] + list(range(1, 52)))
    targets = tuple([60] + list(range(1, 52)))
    inst = Instance(g, starts, targets)
    return inst, clique_split(g)


def test_lift_extends_a_kernel_schedule_to_dropped_agents() -> None:
    inst, split = _drop_instance()
    core = frozenset({0})
    kernel = _kernel(inst, split, core)
    assert len(kernel.u_vertices) < inst.graph.n
    ksched = config_shortest_schedule(kernel, kernel.k, 14)
    assert ksched is not None
    assert ksched.makespan == 2
    lifted = lift_schedule(inst, split, kernel, ksched)
    assert lifted.makespan == 2
    assert validate_schedule(inst, lifted).ok
    # the core agent replays its kernel route
    back = kernel.u_vertices
    for turn, placement in enumerate(lifted.placements):
        assert placement[0] == back[ksched.placements[turn][0]]


def test_lift_drifts_around_a_forbidden_core_move() -> None:
    # clique 1..60 plus vertex 0 joined to 1 only; three core agents move
    # inside the clique while 51 dropped agents stay on the lowest other
    # clique vertices, so a drift turn must avoid a core agent's move
    clique = list(range(1, 61))
    edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    edges.append((0, 1))
    g = Graph(61, edges)
    dwellers = [v for v in clique if v not in (1, 10, 11, 30)][:51]
    starts = tuple([1, 0, 10] + dwellers)
    targets = tuple([0, 30, 11] + dwellers)
    inst = Instance(g, starts, targets)
    split = clique_split(g)
    kernel = _kernel(inst, split, frozenset({0, 1, 2}))
    found = config_shortest_schedule(kernel, kernel.k, 12)
    assert found is not None and found.makespan == 3
    # The search may return any optimal schedule; this one makes the first
    # drift frame forbid a core move.
    ksched = Schedule(((2, 1, 3), (1, 3, 2), (0, 10, 9)))
    kinst = Instance(kernel.graph, kernel.starts, kernel.targets)
    assert kernel.k == 0 and validate_schedule(kinst, ksched).ok
    frames: List[Set[Tuple[int, int]]] = []
    drift = fpt._drift_matching

    def recorded(left, right, forbidden):
        frames.append(set(forbidden))
        return drift(left, right, forbidden)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpt, "_drift_matching", recorded)
        lifted = lift_schedule(inst, split, kernel, ksched)
    assert (3, 10) in frames[0]
    assert lifted.makespan == 3
    assert validate_schedule(inst, lifted).ok


def test_lift_rejects_small_drop_pools() -> None:
    g = Graph(6, [(0, 1)] + [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    split = clique_split(g)
    inst = Instance(g, (0, 2, 3, 4), (5, 2, 3, 4))
    kernel = _kernel(inst, split, frozenset({0}))
    ksched = config_shortest_schedule(kernel, kernel.k, 14)
    assert ksched is not None
    with pytest.raises(PreconditionError):
        lift_schedule(inst, split, kernel, ksched)


def test_repair_without_offenders_is_identity() -> None:
    inst = Instance(complete_graph(5), (0, 1), (1, 2))
    partial = Schedule(((1, 2),))
    out = repair_final_swaps(inst, split=clique_split(inst.graph), partial=partial, core=frozenset())
    assert out == partial


def test_repair_rotates_four_offending_pairs() -> None:
    g = complete_graph(12)
    split = clique_split(g)
    starts = tuple(range(8))
    targets = (1, 0, 3, 2, 5, 4, 7, 6)
    inst = Instance(g, starts, targets)
    partial = Schedule((starts, targets))
    assert len(detect_swaps(starts, targets)) == 4
    fixed = repair_final_swaps(inst, split, partial, frozenset())
    assert fixed.makespan == 2
    assert fixed.placements[-1] == targets
    assert validate_schedule(inst, fixed).ok


def test_repair_borrows_a_helper_for_a_single_pair() -> None:
    g = complete_graph(70)
    split = CliqueSplit(frozenset(), frozenset(range(70)))
    idle = list(range(12, 65))
    starts = tuple([0, 10] + idle)
    targets = tuple([11, 0] + idle)
    inst = Instance(g, starts, targets)
    # agent 1 sidles to vertex 11 first; the final jump would then swap
    # agents 0 and 1, so a bystander must be drawn in
    mid = tuple([0, 11] + idle)
    partial = Schedule((mid, targets))
    assert detect_swaps(mid, targets) == [(0, 1)]
    fixed = repair_final_swaps(inst, split, partial, frozenset())
    assert fixed.makespan == 2
    assert fixed.placements[-1] == targets
    assert validate_schedule(inst, fixed).ok
    assert fixed.placements[0] != mid


def test_repair_steps_aside_to_a_spare_vertex_without_a_helper() -> None:
    g = complete_graph(4)
    split = CliqueSplit(frozenset(), frozenset(range(4)))
    inst = Instance(g, (0, 1), (1, 0))
    mid = (0, 1)
    partial = Schedule((mid, (1, 0)))
    fixed = repair_final_swaps(inst, split, partial, frozenset())
    assert fixed.placements == ((0, 2), (1, 0))
    assert validate_schedule(inst, fixed).ok


def test_repair_fails_without_an_eligible_helper() -> None:
    # the only bystander stood still, and K3 has no spare vertex
    g = complete_graph(3)
    split = CliqueSplit(frozenset(), frozenset(range(3)))
    inst = Instance(g, (0, 1, 2), (1, 0, 2))
    mid = (0, 1, 2)
    partial = Schedule((mid, (1, 0, 2)))
    with pytest.raises(MapfError):
        repair_final_swaps(inst, split, partial, frozenset())


def test_repair_rejects_core_only_offenders() -> None:
    g = complete_graph(6)
    split = CliqueSplit(frozenset(), frozenset(range(6)))
    inst = Instance(g, (0, 1), (1, 0))
    partial = Schedule(((0, 1), (1, 0)))
    with pytest.raises(PreconditionError):
        repair_final_swaps(inst, split, partial, frozenset({0, 1}))


def test_repair_helper_avoids_an_exchange_with_a_dropped_agent() -> None:
    # clique 0..62, vertex 63 joined to 25, 27, 55, 58, 60 and 64, vertex 64
    # joined to 18, 35 and 43. The lift leaves one offending pair, (25, 55),
    # and no spare vertex; the first helper it used to borrow moved 15 -> 47
    # while dropped agent 11 moved 47 -> 15 in the same turn. Only the lift
    # runs here: solve_fpt keeps all 60 agents in the core, and that joint
    # search is far too large.
    edges = [(u, v) for u in range(63) for v in range(u + 1, 63)]
    edges.extend((v, 63) for v in (25, 27, 55, 58, 60, 64))
    edges.extend((v, 64) for v in (18, 35, 43))
    g = Graph(65, edges)
    starts = (
        63, 44, 15, 30, 51, 59, 10, 20, 41, 19, 1, 47, 18, 37, 14, 24, 38, 17,
        25, 5, 54, 62, 2, 27, 40, 21, 9, 6, 0, 35, 11, 52, 33, 26, 23, 46, 42,
        60, 58, 57, 4, 31, 49, 39, 56, 32, 34, 8, 55, 28, 43, 3, 48, 53, 36,
        16, 13, 45, 12, 7,
    )
    targets = (
        52, 63, 30, 15, 12, 40, 59, 49, 62, 16, 53, 43, 55, 35, 23, 34, 39,
        21, 46, 31, 3, 11, 41, 28, 2, 47, 36, 54, 29, 48, 24, 26, 20, 45, 4,
        13, 14, 25, 17, 32, 50, 18, 10, 19, 9, 51, 33, 0, 57, 7, 37, 61, 5,
        60, 27, 42, 38, 8, 6, 1,
    )
    inst = Instance(g, starts, targets)
    split = clique_split(g)
    kernel = _kernel(inst, split, frozenset({0, 1, 59}))
    found = config_shortest_schedule(kernel, kernel.k, 12)
    assert found is not None and found.makespan == 2
    # The search may return any optimal schedule; this one leaves exactly
    # the offending pair above for the repair.
    ksched = Schedule(((8, 9, 0), (13, 17, 1)))
    kinst = Instance(kernel.graph, kernel.starts, kernel.targets)
    assert kernel.k == 0 and validate_schedule(kinst, ksched).ok
    offenders: List[List[Tuple[int, int]]] = []
    repair = fpt.repair_final_swaps

    def spied(inst_, split_, partial, core):
        m = partial.makespan
        offenders.append(detect_swaps(partial.placements[m - 2], partial.placements[m - 1]))
        return repair(inst_, split_, partial, core)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpt, "repair_final_swaps", spied)
        lifted = lift_schedule(inst, split, kernel, ksched)
    assert offenders == [[(25, 55)]]
    assert lifted.makespan == 2
    assert validate_schedule(inst, lifted).ok


def test_solve_fpt_repairs_one_exchange_among_idle_dropped_agents() -> None:
    # dc = 1: clique 0..309, vertex 310 joined to 302..309. Agents 0..99 stand
    # still and become the core, so the kernel schedule is empty and gets
    # padded to two turns. Dropped agents 100 and 101 exchange vertices; the
    # rest shift one place along a chain.
    clique, attached = 310, 8
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges.extend((v, clique) for v in range(clique - attached, clique))
    g = Graph(clique + 1, edges)
    starts = tuple(range(250))
    targets = tuple(range(100)) + (101, 100) + tuple(range(103, 251))
    inst = Instance(g, starts, targets)
    result = solve_fpt(inst)
    assert result is not None
    makespan, sched = result
    assert makespan == 2
    assert validate_schedule(inst, sched).ok


def test_solve_fpt_routes_complete_graphs_to_the_clique_solver() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (1, 0, 2))
    fpt_result = solve_fpt(inst)
    clique_result = solve_clique(inst)
    assert fpt_result is not None and clique_result is not None
    assert fpt_result[0] == clique_result[0] == 2


def test_solve_fpt_star_leaf_exchange_costs_four() -> None:
    g = Graph(5, [(0, i) for i in range(1, 5)])
    inst = Instance(g, (1, 2), (2, 1))
    result = solve_fpt(inst)
    assert result is not None
    m, sched = result
    assert m == 4
    assert validate_schedule(inst, sched).ok
    oracle_result = optimal_schedule(inst, cap=6)
    assert oracle_result is not None and oracle_result[0] == 4


def test_solve_fpt_two_vertex_path_exchange_is_absent() -> None:
    inst = Instance(Graph(2, [(0, 1)]), (0, 1), (1, 0))
    assert solve_fpt(inst) is None


def test_solve_fpt_agrees_with_the_oracle_on_sampled_instances() -> None:
    rng = random.Random(515)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.65
            ],
        )
        try:
            clique_split(g, budget=3)
        except Exception:
            continue
        agents = rng.randint(1, min(3, n))
        inst = Instance(
            g,
            tuple(rng.sample(range(n), agents)),
            tuple(rng.sample(range(n), agents)),
        )
        fpt_result = solve_fpt(inst)
        oracle_result = optimal_schedule(inst, cap=110)
        if oracle_result is None:
            assert fpt_result is None
        else:
            assert fpt_result is not None
            assert fpt_result[0] == oracle_result[0]
            assert validate_schedule(inst, fpt_result[1]).ok
        checked += 1
    assert checked >= 30
