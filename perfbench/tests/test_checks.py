"""Each independent checker must reject a hand-broken answer.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

# Path 0-1-2-3 with a chord 1-3: agents 0 and 1 start on 0 and 2.
EDGES = {(0, 1), (1, 2), (2, 3), (1, 3)}


def has_edge(u, v):
    return (min(u, v), max(u, v)) in EDGES


STARTS = (0, 2)
TARGETS = (1, 3)
GOOD = [(1, 3)]


def test_check_schedule_accepts_a_valid_schedule():
    assert checks.check_schedule(has_edge, STARTS, TARGETS, GOOD) == (True, None, None)


@pytest.mark.parametrize(
    "placements, limit, rule, turn",
    [
        ([(2, 3), (1, 3)], None, "neighborhood", 1),  # 0 -> 2 has no edge
        ([(1, 1)], None, "injective", 1),
        ([(2, 0)], None, "neighborhood", 1),
        ([(1, 2), (2, 1)], None, "swap", 2),
        ([(1, 2)], None, "target", 1),
        ([(1, 2), (1, 3)], 1, "limit", 2),
    ],
)
def test_check_schedule_rejects_broken_schedules(placements, limit, rule, turn):
    assert checks.check_schedule(has_edge, STARTS, TARGETS, placements, limit) == (False, rule, turn)


def test_optimal_makespan_knows_swaps_need_a_detour():
    path = [[1], [0, 2], [1]]
    assert checks.optimal_makespan(path, (0, 1), (1, 0)) is None
    triangle = [[1, 2], [0, 2], [0, 1]]
    assert checks.optimal_makespan(triangle, (0, 1), (1, 0)) == 2
    assert checks.optimal_makespan(triangle, (0, 1), (0, 1)) == 0


def test_judge_solve_rejects_wrong_makespans_and_broken_schedules():
    # Clique 0-1-2 with vertex 3 hanging off 0; the two agents exchange
    # vertices 0 and 1 through vertex 2.
    graph = gen.NearClique(4, {3: frozenset({0})})
    case = gen.Case("t", "", graph, (0, 1), (1, 0))
    good = SimpleNamespace(placements=((2, 1), (1, 0)))
    assert workloads.judge_solve(case, (2, good), 2) is None
    swap = SimpleNamespace(placements=((1, 0),))
    assert "makespan 1" in workloads.judge_solve(case, (1, swap), 2)
    jump = SimpleNamespace(placements=((2, 3), (1, 0)))
    assert "neighborhood" in workloads.judge_solve(case, (2, jump), 2)
    assert "answer None" in workloads.judge_solve(case, None, 2)
    assert "optimum None" in workloads.judge_solve(case, (2, good), None)


def test_dense_lift_cases_have_the_requested_exchanges():
    rng = random.Random(5)
    case = gen.dense_lift_case(40, 4, 30, 3, 10, rng)
    assert gen.swapping_pairs(case.starts, case.targets) == 3
    assert case.starts[:10] == case.targets[:10] == tuple(range(10))
    assert not case.graph.has_edge(0, 40) and case.graph.has_edge(39, 40)
    assert case.text.count("\nedge ") == 40 * 39 // 2 + 4


def test_dense_lift_judge_rejects_wrong_answers():
    wl = workloads.DenseLift({}, 0)
    case = gen.dense_lift_case(40, 4, 30, 1, 10, random.Random(1))
    slot = workloads.DenseSlot(case, expect_fault=True)
    fault = workloads.Outcome(0.1, error=RuntimeError(workloads.DENSE_FAULT_MESSAGE))
    assert wl.judge(slot, fault) == workloads.FAILED
    other = workloads.Outcome(0.1, error=RuntimeError("something else"))
    assert "raised" in wl.judge(slot, other)
    one_turn = SimpleNamespace(placements=(case.targets,))
    assert "optimum 2" in wl.judge(slot, workloads.Outcome(0.1, (1, one_turn)))


def test_flip_certificate_sorts_within_the_pancake_number():
    rng = random.Random(2)
    for n in range(2, 8):
        stack = gen.random_stack(n, rng)
        cert = gen.flip_certificate(stack)
        assert len(cert) <= gen.PANCAKE_NUMBER[n]
        for r in cert:
            stack[:r] = reversed(stack[:r])
        assert stack == sorted(stack)


def test_partition_items_certificate_sums():
    items, partition = gen.partition_items(3, 5, random.Random(4))
    assert sorted(i for t in partition for i in t) == list(range(1, 10))
    assert all(sum(items[i - 1] for i in t) == 5 for t in partition)


def _star_instance():
    # Star: hub 0 with leaves 1..5; agents rotate one leaf on, via the hub.
    edges = frozenset((0, v) for v in range(1, 6))
    starts = (1, 2, 3)
    rows = [(0, 2, 3), (4, 2, 3), (4, 0, 3), (4, 5, 3)]
    inst = SimpleNamespace(graph=SimpleNamespace(edges=edges, n=6), starts=starts, targets=rows[-1])
    return inst, rows


@pytest.mark.parametrize("rule", ["neighborhood", "injective", "swap", "target", "limit"])
def test_corrupted_copies_break_exactly_the_named_rule(rule):
    inst, rows = _star_instance()
    edges = inst.graph.edges

    def star_edge(u, v):
        return (min(u, v), max(u, v)) in edges

    assert checks.check_schedule(star_edge, inst.starts, inst.targets, rows, 4) == (True, None, None)
    broken, expect = workloads.corrupt(inst, rows, rule, 0.5)
    assert expect[:2] == (False, rule)
    assert checks.check_schedule(star_edge, inst.starts, inst.targets, broken, 4) == expect
