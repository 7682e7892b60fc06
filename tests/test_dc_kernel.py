from __future__ import annotations

import random

from mapfdc import engine
from mapfdc.fpt import kernel_graph
from mapfdc.graphs import Graph, clique_split, complete_graph
from mapfdc.model import Instance, Schedule, validate_schedule


def _hub_and_clique(clique_size: int, hub_neighbors: int) -> Graph:
    """Vertex 0 attached to the first hub_neighbors clique vertices 1..n."""
    edges = [
        (u, v)
        for u in range(1, clique_size + 1)
        for v in range(u + 1, clique_size + 1)
    ]
    edges.extend((0, v) for v in range(1, hub_neighbors + 1))
    return Graph(clique_size + 1, edges)


def test_kernel_graph_on_a_complete_graph() -> None:
    # K8 is one twin class, past the budget of six for two agents: it keeps
    # the endpoints 0 and 1, padded with 2..5
    g = complete_graph(8)
    assert kernel_graph(Instance(g, (0, 1), (1, 0))) == g.restricted(range(6))


def test_kernel_graph_half_attached_hub() -> None:
    # the hub 0 splits the clique 1..8 into the twin classes {1, 2} and
    # {3..8}, past the budget of three for one agent; the hub is a class of
    # its own
    g = _hub_and_clique(8, 2)
    assert clique_split(g).modulator == frozenset({0})
    kept = kernel_graph(Instance(g, (1,), (4,)))
    assert kept == g.restricted((0, 1, 2, 3, 4, 5))


def test_kernel_graph_trims_a_modulator_twin_class() -> None:
    # K6 on 0..5, a K4 on 6..9 joined to vertex 0, and vertex 10 joined to
    # 1: the modulator is 6..10 (dc 5), and its twin class {6, 7, 8, 9}
    # loses 9, as the clique's class {2, 3, 4, 5} loses 5, for one agent
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    edges += [(u, v) for u in range(6, 10) for v in range(u + 1, 10)]
    edges += [(0, v) for v in range(6, 10)] + [(1, 10)]
    g = Graph(11, edges)
    assert clique_split(g).modulator == frozenset(range(6, 11))
    inst = Instance(g, (6,), (10,))
    assert kernel_graph(inst) == g.restricted((0, 1, 2, 3, 4, 6, 7, 8, 10))


def test_same_type_means_equal_closed_neighborhoods() -> None:
    # kernel_graph groups vertices by closed neighbourhood; on the clique
    # part of a minimum modulator those classes are the vertex types (equal
    # modulator neighbourhoods), and no class mixes in a modulator vertex
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
        for u in split.clique:
            for v in range(n):
                twins = g.neighbor_set(u) | {u} == g.neighbor_set(v) | {v}
                same_type = v in split.clique and (
                    g.neighbor_set(u) & split.modulator == g.neighbor_set(v) & split.modulator
                )
                assert twins == same_type


def test_build_kernel_small_instance_is_the_whole_graph() -> None:
    g = _hub_and_clique(4, 2)
    inst = Instance(g, (0, 3), (1, 4))
    # five vertices, at most three per agent: nothing is trimmed
    assert kernel_graph(inst) is g


def test_build_kernel_trims_each_type_to_three_per_core_agent() -> None:
    g = _hub_and_clique(10, 0)
    # hub detached entirely: complement attaches it everywhere, so the
    # minimum modulator is the hub itself
    split = clique_split(g)
    assert split.modulator == frozenset({0})
    inst = Instance(g, (1, 2), (3, 4))
    kept = kernel_graph(inst)
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
        kept = kernel_graph(inst)
        limit = len(split.modulator) + 2 ** len(split.modulator) * 3 * inst.n_agents
        # a trimmed vertex loses every edge, and every edge kept is one of g
        touched = {v for v in range(n) if kept.neighbor_set(v)}
        assert len(touched | set(starts + targets)) <= limit
        assert all(kept.neighbor_set(v) <= g.neighbor_set(v) for v in range(n))
        # the endpoints are kept, with their edges to every kept vertex
        for v in starts + targets:
            assert kept.neighbor_set(v) == g.neighbor_set(v) & touched
        assert (kept is g) == (kept == g)


def _blow_up(rng: random.Random) -> Instance:
    """A random graph on 3-7 vertices with each vertex replaced by a clique
    of 1-6 true twins, joined wholly to the cliques of its neighbours, and
    1-3 agents."""
    base = rng.randint(3, 7)
    blobs, n = [], 0
    for _ in range(base):
        size = rng.randint(1, 6)
        blobs.append(range(n, n + size))
        n += size
    edges = [(u, v) for blob in blobs for u in blob for v in blob if u < v]
    for i in range(base):
        for j in range(i + 1, base):
            if rng.random() < 0.5:
                edges.extend((u, v) for u in blobs[i] for v in blobs[j])
    agents = rng.randint(1, 3)
    return Instance(
        Graph(n, edges), tuple(rng.sample(range(n), agents)), tuple(rng.sample(range(n), agents))
    )


def test_twin_trimming_keeps_the_optimum_on_blow_ups() -> None:
    # the search of the trimmed graph answers with the makespan of the
    # search of the whole graph, and both schedules validate
    rng = random.Random(31)
    trimmed = 0
    for i in range(300):
        inst = _blow_up(rng)
        kept = kernel_graph(inst)
        trimmed += kept is not inst.graph
        got = engine.joint_bfs(kept, inst.starts, inst.targets)
        want = engine.joint_bfs(inst.graph, inst.starts, inst.targets)
        assert (got.path is None) == (want.path is None), i
        if want.path is None:
            continue
        assert len(got.path) == len(want.path), i
        for path in (got.path, want.path):
            assert validate_schedule(inst, Schedule(path[1:])).ok, i
    assert trimmed >= 100
