from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import replace
from itertools import permutations
from typing import Dict, List, Set, Tuple

import pytest

from mapfdc import engine, fpt
from mapfdc.gadgets import (
    build_colored_pancake_instance,
    build_pancake_instance,
    build_three_partition_instance,
    colored_pancake_forward_schedule,
    pancake_forward_schedule,
    preprocess_three_partition,
    random_instance,
    three_partition_forward_schedule,
)
from mapfdc.graphs import Graph, clique_split, complete_graph, min_vertex_cover
from mapfdc.model import (
    Instance,
    validate_colored_schedule,
    validate_schedule,
)

# Reverse-direction hardness is out of scope for this gate by design: the
# generated instances certify "yes" only through a supplied certificate
# (a partition or a flip sequence), and refuting a "no" instance would mean
# solving the source problem. Nothing below depends on solving a generated
# instance from scratch.


def _distance(g: Graph, start: int) -> Dict[int, int]:
    dist = {start: 0}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for w in g.neighbor_set(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


# --- shared random suite -------------------------------------------------------


@pytest.fixture(scope="module")
def suite2():
    """At least 200 seeded instances with small graphs near a clique, each
    paired with its oracle answer."""
    rng = random.Random(97)
    out = []
    for i in range(220):
        v = rng.randint(4, 8)
        dc = rng.randint(0, 2)
        a = rng.randint(1, min(4, v))
        inst = random_instance(v, dc, a, seed=1000 + i)
        out.append((inst, dc, fpt.oracle_with_stats(inst)[0]))
    return out


# --- criterion 1: complete graphs are answered exactly without search ---------


def test_clique_part_answer_is_exact_on_small_complete_graphs() -> None:
    started = time.monotonic()
    checked = 0
    for n in (4, 5):
        g = complete_graph(n)
        for a in range(1, n + 1):
            for starts in permutations(range(n), a):
                for targets in permutations(range(n), a):
                    inst = Instance(g, starts, targets)
                    got, states = fpt.solve_with_stats(inst)
                    assert states == 0
                    ref = fpt.oracle_with_stats(replace(inst, makespan_limit=2))[0]
                    assert got is not None, (starts, targets)
                    assert ref is not None, (starts, targets)
                    assert got[0] == ref[0], (starts, targets)
                    assert got[0] <= 2
                    if starts == targets:
                        assert got[0] == 0
                    assert validate_schedule(inst, got[1]).ok
                    checked += 1
    assert checked == 1312 + 32825
    rng = random.Random(6)
    g6 = complete_graph(6)
    for _ in range(300):
        a = rng.randint(1, 6)
        starts = tuple(rng.sample(range(6), a))
        targets = tuple(rng.sample(range(6), a))
        inst = Instance(g6, starts, targets)
        got, states = fpt.solve_with_stats(inst)
        assert states == 0
        ref = fpt.oracle_with_stats(replace(inst, makespan_limit=2))[0]
        assert got is not None and ref is not None
        assert got[0] == ref[0] and got[0] <= 2
        assert validate_schedule(inst, got[1]).ok
    assert time.monotonic() - started < 60.0


# --- criterion 2: the parameterized solver matches the oracle -------------------


def test_parameterized_solver_matches_the_oracle(suite2) -> None:
    started = time.monotonic()
    assert len(suite2) >= 200
    for inst, _, ref in suite2:
        got = fpt.solve_with_stats(inst)[0]
        if ref is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == ref[0]
            assert validate_schedule(inst, got[1]).ok
    assert time.monotonic() - started < 300.0


def test_parameterized_solver_matches_the_oracle_under_limits(suite2) -> None:
    # the limit is the only search cap: one turn below the optimum leaves
    # nothing, the optimum and one turn above it leave the optimum
    checked = 0
    for inst, _, ref in suite2:
        if ref is None:
            continue
        opt = ref[0]
        for limit in (opt - 1, opt, opt + 1):
            if limit < 0:
                continue
            capped = replace(inst, makespan_limit=limit)
            got = fpt.solve_with_stats(capped)[0]
            want = fpt.oracle_with_stats(capped)[0]
            if limit < opt:
                assert got is None and want is None
            else:
                assert got is not None and want is not None
                assert got[0] == want[0] == opt
                assert validate_schedule(capped, got[1]).ok
            checked += 1
    assert checked >= 250


# --- criterion 3: the structural makespan bound holds ----------------------------


def makespan_bound(dc: int) -> int:
    """The paper's upper bound on the optimal makespan of any feasible
    instance whose graph is dc vertex deletions from a clique:
    3(2 dc + 2)^dc + 2. No search is capped by it."""
    return 3 * (2 * dc + 2) ** dc + 2


def test_feasible_makespans_respect_the_distance_bound(suite2) -> None:
    assert makespan_bound(0) == 5
    assert makespan_bound(1) == 14
    assert makespan_bound(2) == 110
    feasible = 0
    for inst, dc, ref in suite2:
        assert clique_split(inst.graph, budget=inst.graph.n).dc == dc
        if ref is None:
            continue
        feasible += 1
        assert ref[0] <= makespan_bound(dc)
    assert feasible >= 100


# --- criterion 4: the kernel preserves the optimum --------------------------------


def test_kernel_preserves_the_optimum_when_all_agents_are_core(suite2) -> None:
    for inst, _, ref in suite2:
        # the trimmed graph speaks the instance's vertex ids
        res = engine.joint_bfs(fpt.kernel_graph(inst), inst.starts, inst.targets)
        kernel_opt = None if res.path is None else len(res.path) - 1
        assert kernel_opt == (None if ref is None else ref[0])


# --- criterion 6: the numeric-partition reduction ---------------------------------


def test_three_partition_instance_and_witness() -> None:
    started = time.monotonic()
    spec = preprocess_three_partition((1, 1, 1, 1, 1, 1))
    assert spec.n == 2
    inst, reg = build_three_partition_instance(spec)
    internal = [v for v in range(inst.graph.n) if len(inst.graph.neighbor_set(v)) > 1]
    assert len(internal) == 9
    cover = min_vertex_cover(inst.graph, budget=7)
    assert cover is not None and len(cover) == 7
    assert min_vertex_cover(inst.graph, budget=6) is None
    sched = three_partition_forward_schedule(
        spec, inst, reg, ((1, 2, 3), (4, 5, 6))
    )
    assert sched.makespan == spec.n * spec.phi + 3 * spec.n
    assert sched.makespan == inst.makespan_limit
    assert validate_schedule(inst, sched).ok
    assert time.monotonic() - started < 120.0


# --- criterion 7: the prefix-reversal reduction -----------------------------------


def _sorting_flips(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    """Shortest prefix-reversal sequence sorting the permutation."""
    goal = tuple(sorted(perm))
    seen = {perm: ()}
    dq = deque([perm])
    while dq:
        cur = dq.popleft()
        if cur == goal:
            return seen[cur]
        for r in range(2, len(perm) + 1):
            nxt = cur[:r][::-1] + cur[r:]
            if nxt not in seen:
                seen[nxt] = seen[cur] + (r,)
                dq.append(nxt)
    raise AssertionError("prefix reversals always sort")


def test_pancake_instances_and_witnesses() -> None:
    started = time.monotonic()
    cases: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [((2, 1), (2,))]
    rng = random.Random(31)
    while len(cases) < 4:
        n = rng.randint(2, 4)
        perm = tuple(rng.sample(range(1, n + 1), n))
        flips = _sorting_flips(perm)
        if not flips:
            flips = (1,)
        if len(flips) <= 3:
            cases.append((perm, flips))
    for perm, flips in cases:
        n, k = len(perm), len(flips)
        inst, reg = build_pancake_instance(perm, k)
        big_l = 3 * (n + 2) * k
        assert inst.makespan_limit == big_l
        leaves = [v for v in range(inst.graph.n) if len(inst.graph.neighbor_set(v)) == 1]
        assert len(leaves) == 11
        primary = set(reg.agents("agents.primary"))
        for a in inst.agents:
            if a in primary:
                continue
            dist = _distance(inst.graph, inst.starts[a])
            assert dist[inst.targets[a]] == big_l
        sched = pancake_forward_schedule(inst, reg, flips)
        assert sched.makespan == big_l
        assert validate_schedule(inst, sched).ok
    assert time.monotonic() - started < 60.0


# --- criterion 8: the two-symbol variant -------------------------------------------


def test_colored_instances_pair_uniquely_and_validate() -> None:
    for alpha, beta, flips, seq in (
        ("01", "10", 1, (2,)),
        ("011", "110", 1, (3,)),
    ):
        inst, reg = build_colored_pancake_instance(alpha, beta, flips)
        assert len(inst.groups) == 6
        big_l = inst.makespan_limit
        for group in inst.groups[2:]:
            starts = list(group.starts)
            targets = list(group.targets)
            cand: Dict[int, Set[int]] = {}
            for s in starts:
                dist = _distance(inst.graph, s)
                cand[s] = {t for t in targets if dist[t] <= big_l}
            paired = 0
            while cand:
                forced = [s for s, ts in cand.items() if len(ts) == 1]
                assert forced, "auxiliary pairing left a choice open"
                s = forced[0]
                (t,) = cand.pop(s)
                paired += 1
                for ts in cand.values():
                    ts.discard(t)
            assert paired == len(starts)
        sched = colored_pancake_forward_schedule(inst, reg, seq)
        assert sched.makespan == big_l
        assert validate_colored_schedule(inst, sched).ok
