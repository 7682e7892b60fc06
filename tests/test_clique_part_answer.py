from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Optional, Tuple

import pytest

from mapfdc import fpt, graphs
from mapfdc.errors import ResourceLimitError
from mapfdc.graphs import Graph, clique_split, complete_graph
from mapfdc.model import Instance, Schedule, validate_schedule


def _clique_part_answer(inst: Instance) -> Optional[Tuple[int, Schedule]]:
    """fpt's answer on a complete graph, which needs no search from four
    vertices on."""
    result, states = fpt.solve_with_stats(inst)
    if inst.graph.n >= 4:
        assert states == 0
    return result


def test_settled_agents_are_makespan_zero() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (0, 1, 2))
    result = _clique_part_answer(inst)
    assert result is not None
    assert result[0] == 0
    assert result[1].placements == ()


def test_displaced_without_exchange_is_one_turn() -> None:
    inst = Instance(complete_graph(4), (0, 1, 2), (1, 2, 3))
    result = _clique_part_answer(inst)
    assert result is not None
    assert result[0] == 1
    assert validate_schedule(inst, result[1]).ok


def test_single_swapping_pair_uses_a_spare_vertex() -> None:
    inst = Instance(complete_graph(4), (0, 1), (1, 0))
    result = _clique_part_answer(inst)
    assert result is not None
    assert result[0] == 2
    assert validate_schedule(inst, result[1]).ok


def test_single_swapping_pair_fully_occupied_clique() -> None:
    # no spare vertex: the two unpaired agents chaperone the exchange
    inst = Instance(complete_graph(4), (0, 1, 2, 3), (1, 0, 2, 3))
    result = _clique_part_answer(inst)
    assert result is not None
    assert result[0] == 2
    assert validate_schedule(inst, result[1]).ok


def test_two_swapping_pairs_resolve_in_two_turns() -> None:
    inst = Instance(complete_graph(5), (0, 1, 2, 3), (1, 0, 3, 2))
    result = _clique_part_answer(inst)
    assert result is not None
    assert result[0] == 2
    assert validate_schedule(inst, result[1]).ok
    oracle_result = fpt.oracle_with_stats(replace(inst, makespan_limit=4))[0]
    assert oracle_result is not None and oracle_result[0] == 2


def test_small_cliques_fall_back_to_exhaustive_search() -> None:
    lone = Instance(complete_graph(1), (0,), (0,))
    result = _clique_part_answer(lone)
    assert result is not None and result[0] == 0
    rotate3 = Instance(complete_graph(3), (0, 1, 2), (1, 2, 0))
    result = _clique_part_answer(rotate3)
    assert result is not None
    assert result[0] == 1
    assert validate_schedule(rotate3, result[1]).ok
    # two agents on K2 can never trade places
    assert _clique_part_answer(Instance(complete_graph(2), (0, 1), (1, 0))) is None


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
        result = _clique_part_answer(inst)
        assert result is not None
        m, sched = result
        assert m <= 2
        assert validate_schedule(inst, sched).ok
        oracle_result = fpt.oracle_with_stats(replace(inst, makespan_limit=2))[0]
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
        result = _clique_part_answer(inst)
        assert result is not None
        assert result[0] in (0, 1, 2)
        assert validate_schedule(inst, result[1]).ok



def test_all_clique_agents_on_a_near_clique_need_no_search() -> None:
    # dc = 1: clique 0..299 plus vertex 300 joined to 298 and 299. Agents
    # 0..99 stand still; 198 more fill 100..297, two pairs of them exchange
    # vertices and the rest shift one place along a cycle. The type closure
    # keeps every agent as core, so a joint search would hold 298 agents.
    clique = 300
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(298, clique), (299, clique)]
    region = list(range(100, 298))
    rest = region[4:]
    core = list(range(100))
    inst = Instance(
        Graph(clique + 1, edges),
        tuple(core + region),
        tuple(core + [101, 100, 103, 102] + rest[1:] + rest[:1]),
    )
    result, states = fpt.solve_with_stats(inst)
    assert result is not None and result[0] == 2 and states == 0
    assert validate_schedule(inst, result[1]).ok


def test_agents_inside_k4_take_the_clique_part_answer_at_distance_to_clique_13() -> None:
    # K4 plus 13 pendant vertices is 13 deletions from a clique, but no
    # agent leaves the K4, so the answer needs no kernel and no search
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges.extend((v, v % 4) for v in range(4, 17))
    inst = Instance(Graph(17, edges), (0, 1, 2), (1, 0, 3))
    result, states = fpt.solve_with_stats(inst)
    assert result is not None and result[0] == 2 and states == 0
    assert validate_schedule(inst, result[1]).ok


def test_agents_inside_k4_take_the_two_turn_answer_beyond_the_distance_ceiling() -> None:
    # K4 plus 21 pendant vertices is 21 deletions from a clique, past the
    # split's budget of 20; the two-turn step answers 2 before any search
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges.extend((v, v % 4) for v in range(4, 25))
    inst = Instance(Graph(25, edges), (0, 1, 2), (1, 0, 3))
    with pytest.raises(ResourceLimitError):
        clique_split(inst.graph)
    result, states = fpt.solve_with_stats(inst)
    assert result is not None and result[0] == 2 and states == 0
    assert validate_schedule(inst, result[1]).ok


def test_a_long_path_takes_the_two_turn_answer_without_the_split() -> None:
    # a path of 3,000 vertices is far past the split's budget; agent i
    # walks from 3i to 3i + 2, so the middle row 3i + 1 answers 2
    n = 3000
    inst = Instance(
        Graph(n, [(v, v + 1) for v in range(n - 1)]),
        tuple(range(0, n, 3)),
        tuple(range(2, n, 3)),
    )
    result, states = fpt.solve_with_stats(inst)
    assert result is not None and result[0] == 2 and states == 0
    assert validate_schedule(inst, result[1]).ok


def _near_clique_shape(n: int, dc: int, agents: int, draw: int) -> Instance:
    """A clique on n - dc vertices plus dc vertices joined to every other
    vertex by a coin flip, redrawn until the distance to clique is dc, with
    uniform starts and targets; the shape of the kernel-search benchmark's
    slots."""
    rng = random.Random(draw)
    while True:
        mods = set(rng.sample(range(n), dc))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not (u in mods or v in mods) or rng.random() < 0.5
        ]
        g = Graph(n, edges)
        if clique_split(g).dc == dc:
            starts = tuple(rng.sample(range(n), agents))
            return Instance(g, starts, tuple(rng.sample(range(n), agents)))


def _dense_near_clique(rng: random.Random) -> Instance:
    """dc = 1: clique 0..309 plus vertex 310 joined to 302..309. Agents
    0..99 stand still; 150 more cross 100..301, four pairs of them
    exchanging vertices."""
    clique = 310
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(v, clique) for v in range(clique - 8, clique)]
    starts = rng.sample(range(100, clique - 8), 150)
    rest = [v for v in range(100, clique - 8) if v not in starts[:8]]
    targets = [starts[i ^ 1] for i in range(8)] + rng.sample(rest, 142)
    core = tuple(range(100))
    return Instance(Graph(clique + 1, edges), core + tuple(starts), core + tuple(targets))


def test_the_solve_path_never_builds_the_split(monkeypatch) -> None:
    two_turn = [
        _near_clique_shape(*shape)
        for shape in (
            (8, 3, 5, 2), (7, 2, 7, 1), (8, 2, 7, 3), (8, 1, 6, 2), (9, 1, 7, 2),
            (9, 2, 6, 3), (9, 3, 6, 1), (10, 3, 6, 2), (10, 3, 5, 1), (10, 3, 4, 0),
        )
    ]
    # optimum 3: the two-turn step refutes 2 and the trimmed graph is
    # searched, at dc 3 and at dc 21 (K4 plus 21 pendant vertices, one
    # agent from pendant 4 to pendant 5)
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges.extend((v, v % 4) for v in range(4, 25))
    searched = [_near_clique_shape(7, 3, 5, 3), Instance(Graph(25, edges), (4,), (5,))]

    def no_split(*args, **kwargs):
        raise AssertionError("the split was built")

    assert not hasattr(fpt, "clique_split")
    monkeypatch.setattr(graphs, "clique_split", no_split)
    monkeypatch.setattr(graphs, "min_vertex_cover", no_split)
    for inst in two_turn + [_dense_near_clique(random.Random(7))]:
        result, states = fpt.solve_with_stats(inst)
        assert result is not None and result[0] == 2 and states == 0
        assert validate_schedule(inst, result[1]).ok
    for inst in searched:
        result, states = fpt.solve_with_stats(inst)
        assert result is not None and result[0] == 3 and states > 0
        assert validate_schedule(inst, result[1]).ok


def test_clique_part_answers_match_the_oracle_on_near_cliques() -> None:
    # a clique on n - dc vertices plus dc vertices with coin-flip edges;
    # every agent starts and ends in the clique part the split finds, and
    # some draws plant an exchanging pair
    rng = random.Random(2412)
    checked = 0
    while checked < 2000:
        n, dc = rng.randint(5, 8), rng.randint(1, 2)
        edges = [(u, v) for u in range(n - dc) for v in range(u + 1, n - dc)]
        edges += [
            (u, w) for w in range(n - dc, n) for u in range(w) if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        q = sorted(clique_split(g).clique)
        if len(q) < 4:
            continue
        a = rng.randint(1, len(q))
        starts = rng.sample(q, a)
        if a >= 2 and rng.random() < 0.5:
            rest = [v for v in q if v not in starts[:2]]
            targets = [starts[1], starts[0]] + rng.sample(rest, a - 2)
        else:
            targets = rng.sample(q, a)
        for limit in (None, 1, 2):
            inst = Instance(g, tuple(starts), tuple(targets), makespan_limit=limit)
            got, states = fpt.solve_with_stats(inst)
            ref = fpt.oracle_with_stats(inst)[0]
            assert states == 0
            assert (got is None) == (ref is None), inst
            if got is not None:
                assert got[0] == ref[0]
                assert validate_schedule(inst, got[1]).ok
        checked += 1
