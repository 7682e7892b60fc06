from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Tuple

import pytest

from mapfdc.cliques import solve_clique
from mapfdc.errors import PreconditionError
from mapfdc.graphs import Graph, complete_graph
from mapfdc.model import Instance, validate_schedule
from mapfdc.oracle import solve_with_stats


def test_settled_agents_are_makespan_zero() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (0, 1, 2))
    result = solve_clique(inst)
    assert result is not None
    assert result[0] == 0
    assert result[1].placements == ()


def test_displaced_without_exchange_is_one_turn() -> None:
    inst = Instance(complete_graph(4), (0, 1, 2), (1, 2, 3))
    result = solve_clique(inst)
    assert result is not None
    assert result[0] == 1
    assert validate_schedule(inst, result[1]).ok


def test_single_swapping_pair_uses_a_spare_vertex() -> None:
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    result = solve_clique(inst)
    assert result is not None
    assert result[0] == 2
    assert validate_schedule(inst, result[1]).ok


def test_single_swapping_pair_fully_occupied_clique() -> None:
    # no spare vertex: the two unpaired agents chaperone the exchange
    inst = Instance(complete_graph(4), (0, 1, 2, 3), (1, 0, 2, 3))
    result = solve_clique(inst)
    assert result is not None
    assert result[0] == 2
    assert validate_schedule(inst, result[1]).ok


def test_two_swapping_pairs_resolve_in_two_turns() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2, 3), (1, 0, 3, 2))
    result = solve_clique(inst)
    assert result is not None
    assert result[0] == 2
    assert validate_schedule(inst, result[1]).ok
    oracle_result = solve_with_stats(replace(inst, makespan_limit=4))[0]
    assert oracle_result is not None and oracle_result[0] == 2


def test_small_cliques_fall_back_to_exhaustive_search() -> None:
    lone = Instance(complete_graph(1), (0,), (0,))
    result = solve_clique(lone)
    assert result is not None and result[0] == 0
    rotate3 = Instance(complete_graph(3), (0, 1, 2), (1, 2, 0))
    result = solve_clique(rotate3)
    assert result is not None
    assert result[0] == 1
    assert validate_schedule(rotate3, result[1]).ok
    # two agents on K2 can never trade places
    assert solve_clique(Instance(complete_graph(2), (0, 1), (1, 0))) is None


def test_rejects_incomplete_graphs() -> None:
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), (0,), (2,))
    with pytest.raises(PreconditionError):
        solve_clique(inst)


def _injective_assignments(n: int, max_agents: int):
    for k in range(1, max_agents + 1):
        for starts in itertools.permutations(range(n), k):
            for targets in itertools.permutations(range(n), k):
                yield starts, targets


def test_every_k4_assignment_matches_the_oracle() -> None:
    g = complete_graph(4)
    count = 0
    for starts, targets in _injective_assignments(4, 4):
        inst = Instance(g, starts, targets)
        result = solve_clique(inst)
        assert result is not None
        m, sched = result
        assert m <= 2
        assert validate_schedule(inst, sched).ok
        oracle_result = solve_with_stats(replace(inst, makespan_limit=2))[0]
        assert oracle_result is not None
        assert oracle_result[0] == m
        count += 1
    assert count == 1312


def test_constant_makespan_on_larger_cliques() -> None:
    g = complete_graph(6)
    for starts, targets in (
        ((5, 4, 3), (3, 4, 5)),
        ((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)),
        ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)),
    ):
        inst = Instance(g, starts, targets)
        result = solve_clique(inst)
        assert result is not None
        assert result[0] in (0, 1, 2)
        assert validate_schedule(inst, result[1]).ok

