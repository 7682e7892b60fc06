from __future__ import annotations

import random

import pytest

from mapfdc.errors import PreconditionError
from mapfdc.graphs import Graph, clique_split, complete_graph
from mapfdc.kernelize import classify_types, kernel_graph, makespan_bound
from mapfdc.model import Instance


def _hub_and_clique(clique_size: int, hub_neighbors: int) -> Graph:
    """Vertex 0 attached to the first hub_neighbors clique vertices 1..n."""
    edges = [
        (u, v)
        for u in range(1, clique_size + 1)
        for v in range(u + 1, clique_size + 1)
    ]
    edges.extend((0, v) for v in range(1, hub_neighbors + 1))
    return Graph(clique_size + 1, edges)


def test_makespan_bound_small_parameters() -> None:
    assert makespan_bound(0) == 5
    assert makespan_bound(1) == 14
    assert makespan_bound(2) == 110


def test_makespan_bound_guards() -> None:
    with pytest.raises(PreconditionError):
        makespan_bound(-1)


def test_classify_types_on_a_complete_graph() -> None:
    g = complete_graph(5)
    split = clique_split(g)
    types = classify_types(Instance(g, (0, 1), (1, 0)), split)
    assert len(types) == 1
    assert types[0].members == (0, 1, 2, 3, 4)
    assert types[0].signature == frozenset()


def test_classify_types_half_attached_hub() -> None:
    g = _hub_and_clique(4, 2)
    split = clique_split(g)
    assert split.modulator == frozenset({0})
    inst = Instance(g, (1, 3), (2, 4))
    types = classify_types(inst, split)
    assert len(types) == 2
    assert types[0].members == (1, 2) and types[0].signature == frozenset({0})
    assert types[1].members == (3, 4) and types[1].signature == frozenset()


def test_same_type_means_equal_closed_neighborhoods() -> None:
    rng = random.Random(88)
    for _ in range(25):
        n = rng.randint(1, 10)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.7
            ],
        )
        split = clique_split(g, budget=n)
        inst = Instance(g, (0,), (0,))
        types = classify_types(inst, split)
        seen = set()
        for t in types:
            hoods = {g.neighbor_set(v) | {v} for v in t.members}
            assert len(hoods) == 1
            seen.update(t.members)
        assert seen == set(split.clique)
        for a, b in zip(types, types[1:]):
            assert a.members[0] < b.members[0]


def test_build_kernel_small_instance_is_the_whole_graph() -> None:
    g = _hub_and_clique(4, 2)
    split = clique_split(g)
    inst = Instance(g, (0, 3), (1, 4))
    # four clique vertices, at most three per agent: nothing is trimmed
    assert kernel_graph(inst, split) is g


def test_build_kernel_trims_each_type_to_three_per_core_agent() -> None:
    g = _hub_and_clique(10, 0)
    # hub detached entirely: complement attaches it everywhere, so the
    # minimum modulator is the hub itself
    split = clique_split(g)
    assert split.modulator == frozenset({0})
    inst = Instance(g, (1, 2), (3, 4))
    kept = kernel_graph(inst, split)
    # the hub, the endpoints 1..4 and the padding 5, 6: the graph keeps the
    # instance's ids, and the trimmed vertices 7..10 stay with no edges
    assert kept.n == g.n
    assert kept == g.restricted(range(7))
    assert all(not kept.neighbor_set(v) for v in range(7, 11))


def test_build_kernel_size_bound() -> None:
    rng = random.Random(300)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.75
            ],
        )
        split = clique_split(g, budget=n)
        agents = rng.randint(1, min(3, n))
        starts = tuple(rng.sample(range(n), agents))
        targets = tuple(rng.sample(range(n), agents))
        inst = Instance(g, starts, targets)
        kept = kernel_graph(inst, split)
        limit = len(split.modulator) + 2 ** len(split.modulator) * 3 * inst.n_agents
        # a trimmed vertex loses every edge, and every edge kept is one of g
        touched = {v for v in range(n) if kept.neighbor_set(v)}
        assert len(touched | set(starts + targets)) <= limit
        assert all(kept.neighbor_set(v) <= g.neighbor_set(v) for v in range(n))
        # the endpoints are kept, and with them their edges to the modulator
        for v in starts + targets:
            assert kept.neighbor_set(v) >= g.neighbor_set(v) & split.modulator
        assert (kept is g) == (kept == g)
