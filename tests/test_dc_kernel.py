from __future__ import annotations

import random
from typing import FrozenSet, Tuple

import pytest

from mapfdc.errors import PreconditionError
from mapfdc.graphs import CliqueSplit, Graph, clique_split, complete_graph
from mapfdc.kernelize import (
    Kernel,
    build_kernel,
    classify_types,
    kappa,
    makespan_bound,
    select_core_agents,
)
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


def test_kappa_small_parameters() -> None:
    assert kappa(0) == 0
    assert kappa(1) == 100
    assert kappa(2) == 8000


def test_kappa_guards() -> None:
    with pytest.raises(PreconditionError):
        kappa(-1)


def test_classify_types_on_a_complete_graph() -> None:
    g = complete_graph(5)
    split = clique_split(g)
    types, agent_types = classify_types(
        Instance(g, (0, 1), (1, 0)), split
    )
    assert len(types) == 1
    assert types[0].members == (0, 1, 2, 3, 4)
    assert types[0].signature == frozenset()
    assert agent_types == {0: (0, 0), 1: (0, 0)}


def test_classify_types_half_attached_hub() -> None:
    g = _hub_and_clique(4, 2)
    split = clique_split(g)
    assert split.modulator == frozenset({0})
    inst = Instance(g, (1, 3), (2, 4))
    types, agent_types = classify_types(inst, split)
    assert len(types) == 2
    assert types[0].members == (1, 2) and types[0].signature == frozenset({0})
    assert types[1].members == (3, 4) and types[1].signature == frozenset()
    assert agent_types == {0: (0, 0), 1: (1, 1)}


def test_classify_types_skips_modulator_touching_agents() -> None:
    g = _hub_and_clique(4, 2)
    split = clique_split(g)
    inst = Instance(g, (0, 3), (1, 4))
    _, agent_types = classify_types(inst, split)
    assert 0 not in agent_types
    assert agent_types == {1: (1, 1)}


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
        types, _ = classify_types(inst, split)
        seen = set()
        for t in types:
            hoods = {g.neighbor_set(v) | {v} for v in t.members}
            assert len(hoods) == 1
            seen.update(t.members)
        assert seen == set(split.clique)
        for a, b in zip(types, types[1:]):
            assert a.members[0] < b.members[0]


def test_select_core_agents_keeps_small_instances_whole() -> None:
    g = _hub_and_clique(8, 2)
    split = clique_split(g)
    inst = Instance(g, (0, 1, 2, 3, 4, 5), (8, 2, 3, 4, 5, 6))
    types, agent_types = classify_types(inst, split)
    core = select_core_agents(inst, split, types, agent_types)
    assert core == frozenset(inst.agents)


def _large_two_type_instance() -> Tuple[Instance, CliqueSplit]:
    """One hub vertex; 110 clique vertices attached to it (the scarce type)
    and 1000 detached (the plentiful type). 110 agents cross from scarce to
    plentiful, 330 shuffle inside the plentiful part."""
    scarce = list(range(1, 111))
    plentiful = list(range(111, 1111))
    clique = scarce + plentiful
    edges = [
        (u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]
    ]
    edges.extend((0, v) for v in scarce)
    g = Graph(1111, edges)
    starts = scarce + plentiful[:330]
    targets = plentiful[330:440] + plentiful[440:770]
    inst = Instance(g, tuple(starts), tuple(targets))
    split = CliqueSplit(frozenset({0}), frozenset(clique))
    return inst, split


def test_select_core_agents_quota_and_scarce_type_absorption() -> None:
    inst, split = _large_two_type_instance()
    types, agent_types = classify_types(inst, split)
    assert [len(t.members) for t in types] == [110, 1000]
    core = select_core_agents(inst, split, types, agent_types)
    # per-pair quota is 100; the scarce start type (110 members < 3|A'|)
    # then absorbs every agent touching it; the 1000-member type stays put
    assert len(core) == 210
    assert all(a in core for a in range(110))
    assert sorted(a for a in core if a >= 110) == list(range(110, 210))


def _kernel(inst: Instance, split: CliqueSplit, core: FrozenSet[int]) -> Kernel:
    types, _ = classify_types(inst, split)
    return build_kernel(inst, split, core, types)


def test_build_kernel_small_instance_is_the_whole_graph() -> None:
    g = _hub_and_clique(4, 2)
    split = clique_split(g)
    inst = Instance(g, (0, 3), (1, 4))
    core = frozenset(inst.agents)
    kernel = _kernel(inst, split, core)
    assert kernel.vertices == frozenset(range(5))
    assert kernel.graph is g
    assert kernel.starts == inst.starts
    assert kernel.targets == inst.targets
    assert kernel.modulator == frozenset({0})
    assert kernel.k == max(0, inst.n_agents - len(split.clique))


def test_build_kernel_trims_each_type_to_three_per_core_agent() -> None:
    g = _hub_and_clique(10, 0)
    # hub detached entirely: complement attaches it everywhere, so the
    # minimum modulator is the hub itself
    split = clique_split(g)
    assert split.modulator == frozenset({0})
    inst = Instance(g, (1, 2), (3, 4))
    kernel = _kernel(inst, split, frozenset({0, 1}))
    assert kernel.vertices == frozenset(range(7))
    assert kernel.k == 0
    # the kernel keeps the instance's ids: the endpoints are the agents'
    # own, and the trimmed vertices 7..10 stay in the graph with no edges
    assert (kernel.starts, kernel.targets) == (inst.starts, inst.targets)
    assert kernel.modulator == frozenset({0})
    assert kernel.graph.n == g.n
    assert kernel.graph == g.restricted(range(7))
    assert all(not kernel.graph.neighbor_set(v) for v in range(7, 11))


def test_build_kernel_counts_pigeonhole_obligation() -> None:
    g = _hub_and_clique(3, 2)
    split = clique_split(g)
    assert len(split.clique) == 3
    inst = Instance(g, (0, 1, 2, 3), (1, 2, 3, 0))
    kernel = _kernel(inst, split, frozenset(inst.agents))
    assert kernel.k == 1


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
        kernel = _kernel(inst, split, frozenset(inst.agents))
        limit = len(split.modulator) + 2 ** len(split.modulator) * 3 * inst.n_agents
        assert len(kernel.vertices) <= limit
        # every agent is core and keeps its endpoints, which the kernel keeps
        assert (kernel.starts, kernel.targets) == (starts, targets)
        assert kernel.vertices.issuperset(starts + targets)
        if len(kernel.vertices) == n:
            assert kernel.graph is g
