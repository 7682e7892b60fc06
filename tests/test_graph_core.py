from __future__ import annotations

import itertools
import random
import tracemalloc
from typing import FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfdc import fpt
from mapfdc.errors import ResourceLimitError
from mapfdc.gadgets import build_pancake_instance
from mapfdc.graphs import (
    CliqueSplit,
    Graph,
    clique_split,
    complement,
    complete_graph,
    is_clique,
    min_vertex_cover,
)
from mapfdc.model import parse_instance, validate_schedule


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _brute_min_cover(g: Graph) -> FrozenSet[int]:
    """Reference minimum vertex cover: first hit over subsets enumerated by
    (size, lexicographic order), so it is also the tie-break witness."""
    edges = list(g.edges)
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                return frozenset(combo)
    raise AssertionError("unreachable")


def _random_graph(rng: random.Random, n: int) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice((0.2, 0.5, 0.8))
    ]
    return Graph(n, edges)


graphs_strategy = st.builds(
    lambda n, bits: Graph(
        n,
        [
            e
            for i, e in enumerate(
                (u, v) for u in range(n) for v in range(u + 1, n)
            )
            if bits >> i & 1
        ],
    ),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2**21 - 1),
)


def test_graph_normalizes_edges() -> None:
    g = Graph(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 0)
    assert g.neighbor_set(1) == frozenset({0, 2})


def test_graph_rejects_self_loops_and_range() -> None:
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_complement_of_complete_graph_is_edgeless() -> None:
    g = complement(complete_graph(4))
    assert g.n == 4
    assert g.edges == frozenset()


def test_complement_of_edgeless_graph_is_complete() -> None:
    g = complement(Graph(3))
    assert g == complete_graph(3)


def test_complement_of_five_cycle_has_five_edges() -> None:
    g = complement(_cycle(5))
    assert len(g.edges) == 5
    assert all(not _cycle(5).has_edge(u, v) for u, v in g.edges)


@given(graphs_strategy)
def test_complement_is_an_involution(g: Graph) -> None:
    assert complement(complement(g)) == g


@given(graphs_strategy)
def test_complement_partitions_vertex_pairs(g: Graph) -> None:
    h = complement(g)
    assert len(g.edges) + len(h.edges) == g.n * (g.n - 1) // 2
    assert not (g.edges & h.edges)


def test_is_clique_vacuous_cases() -> None:
    assert is_clique(Graph(0))
    assert is_clique(Graph(1))
    assert is_clique(Graph(5), [])
    assert is_clique(Graph(5), [3])
    assert is_clique(complete_graph(4), [0, 2, 3])


def test_is_clique_path_is_not_a_clique() -> None:
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert not is_clique(p3)
    assert is_clique(p3, [0, 1])
    assert not is_clique(p3, [0, 2])


def test_min_vertex_cover_edgeless_is_empty_even_at_zero_budget() -> None:
    assert min_vertex_cover(Graph(4), budget=0) == frozenset()


def test_min_vertex_cover_triangle_needs_two() -> None:
    cover = min_vertex_cover(complete_graph(3))
    assert cover is not None and len(cover) == 2
    assert cover == frozenset({0, 1})


def test_min_vertex_cover_returns_none_over_budget() -> None:
    assert min_vertex_cover(complete_graph(5), budget=3) is None
    assert min_vertex_cover(Graph(2, [(0, 1)]), budget=-1) is None


def test_min_vertex_cover_star_picks_center() -> None:
    assert min_vertex_cover(_star(4)) == frozenset({0})


def test_min_vertex_cover_of_more_edges_than_the_recursion_limit() -> None:
    # 1,050 disjoint edges: the cover has one vertex per edge, more than
    # Python's default recursion depth, and the least takes each lower end
    g = Graph(2100, [(2 * i, 2 * i + 1) for i in range(1050)])
    assert min_vertex_cover(g, budget=1050) == frozenset(range(0, 2100, 2))
    assert min_vertex_cover(g, budget=1049) is None


def test_min_vertex_cover_matches_brute_force_on_sampled_graphs() -> None:
    rng = random.Random(20260816)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(0, 9))
        expected = _brute_min_cover(g)
        got = min_vertex_cover(g, budget=g.n)
        assert got is not None
        assert len(got) == len(expected)
        assert all(u in got or v in got for u, v in g.edges)
        # among minimum covers, the lexicographically least is promised
        assert sorted(got) == sorted(expected)


@given(graphs_strategy)
@settings(max_examples=60, deadline=None)
def test_min_vertex_cover_is_a_cover_and_minimum(g: Graph) -> None:
    got = min_vertex_cover(g, budget=g.n)
    assert got is not None
    assert all(u in got or v in got for u, v in g.edges)
    assert sorted(got) == sorted(_brute_min_cover(g))


def test_clique_split_complete_graph_has_empty_modulator() -> None:
    split = clique_split(complete_graph(5))
    assert split.modulator == frozenset()
    assert split.clique == frozenset(range(5))
    assert split.dc == 0


def test_clique_split_star_distance_two() -> None:
    split = clique_split(_star(3))
    assert split.dc == 2
    assert is_clique(_star(3), split.clique)


def test_clique_split_five_cycle_distance_three() -> None:
    split = clique_split(_cycle(5))
    assert split.dc == 3
    assert is_clique(_cycle(5), split.clique)


def test_clique_split_respects_budget() -> None:
    with pytest.raises(ResourceLimitError):
        clique_split(_cycle(5), budget=2)


def test_clique_split_partitions_the_vertex_set() -> None:
    rng = random.Random(7)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 9))
        split = clique_split(g, budget=g.n)
        assert split.modulator | split.clique == frozenset(range(g.n))
        assert not (split.modulator & split.clique)
        assert is_clique(g, split.clique)


def test_clique_split_is_minimum_against_exhaustive_search() -> None:
    rng = random.Random(99)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 8))
        split = clique_split(g, budget=g.n)
        best = min(
            len(sub)
            for size in range(g.n + 1)
            for sub in itertools.combinations(range(g.n), size)
            if is_clique(g, set(range(g.n)) - set(sub))
        )
        assert split.dc == best


def test_restricted_graph_keeps_every_id() -> None:
    g = Graph(5, [(0, 3), (3, 4), (1, 2), (2, 3)])
    sub = g.restricted([3, 0, 4])
    assert sub.n == 5
    assert sub.edges == frozenset({(0, 3), (3, 4)})
    # edges leaving the set are gone, and vertices outside it are isolated
    assert sub.neighbor_set(3) == frozenset({0, 4})
    assert sub.neighbor_set(1) == sub.neighbor_set(2) == frozenset()
    assert g.restricted(range(5)) == g
    assert g.restricted([]).edges == frozenset()


def test_clique_split_result_is_deterministic() -> None:
    g = _cycle(6)
    first = clique_split(g)
    second = clique_split(g)
    assert isinstance(first, CliqueSplit)
    assert first == second


def test_clique_split_of_a_clique_with_one_pendant_pair() -> None:
    # K60 plus vertex 60 joined to 58 and 59
    edges = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    edges.extend([(58, 60), (59, 60)])
    assert clique_split(Graph(61, edges)).modulator == frozenset({60})


def test_clique_split_rejects_a_sparse_graph_without_its_complement() -> None:
    # a 311-vertex tree: its complement alone would take about 100 MB
    g = build_pancake_instance((3, 1, 2), 2)[0].graph
    assert g.n == 311
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceeds budget 20"):
            clique_split(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- differential check against the raw edge list ------------------------------


def _raw_random_edges(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """Random simple graph as an edge list in random order and orientation."""
    p = rng.choice((0.2, 0.5, 0.8, 1.0))
    raw = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    raw = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in raw]
    rng.shuffle(raw)
    return raw


def _raw_near_clique_edges(rng: random.Random, n: int, dc: int) -> List[Tuple[int, int]]:
    """Clique on n - dc randomly placed vertices, each of the other dc joined
    to a random share of everything, in random order and orientation."""
    modulator = set(rng.sample(range(n), dc))
    raw = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u in modulator or v in modulator) and rng.random() < 0.5:
                continue
            raw.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(raw)
    return raw


def _assert_matches_edge_list(g: Graph, n: int, raw: List[Tuple[int, int]]) -> None:
    pairs = {frozenset(e) for e in raw}
    assert g.n == n
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            want = 0 <= u < n and 0 <= v < n and frozenset((u, v)) in pairs and u != v
            assert g.has_edge(u, v) == want, (u, v)
    for v in range(n):
        nbrs = [u for u in range(n) if frozenset((u, v)) in pairs and u != v]
        assert g.neighbor_set(v) == frozenset(nbrs)
    edges = {(min(e), max(e)) for e in raw}
    assert g.edges == frozenset(edges)
    assert g.sorted_edges() == sorted(edges)
    assert g.is_complete() == (len(edges) == n * (n - 1) // 2)


def _assert_graph_operations(rng: random.Random, g: Graph, raw: List[Tuple[int, int]]) -> None:
    n = g.n
    _assert_matches_edge_list(g, n, raw)
    pairs = {frozenset(e) for e in raw}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if frozenset((u, v)) not in pairs]
    _assert_matches_edge_list(complement(g), n, missing)
    assert is_clique(g) == g.is_complete()
    for _ in range(10):
        sub = rng.sample(range(n), rng.randint(0, n))
        if rng.random() < 0.3:  # on a near-clique, a set that is a clique or nearly one
            sub = [v for v in range(n) if len(g.neighbor_set(v)) >= n - 2]
        want = all(frozenset(e) in pairs for e in itertools.combinations(sub, 2))
        assert is_clique(g, sub) == want
        h = g.restricted(sub + sub[:2])
        kept = [(u, v) for u, v in raw if u in sub and v in sub]
        _assert_matches_edge_list(h, n, kept)
    assert not is_clique(g, [0, n]) and not is_clique(g, [-1, 0])


def _instance_text(n: int, raw: List[Tuple[int, int]]) -> str:
    lines = ["mapf 1", f"vertices {n}"] + [f"edge {u} {v}" for u, v in raw] + ["agent 0 0"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_graph_agrees_with_its_edge_list(seed: int) -> None:
    rng = random.Random(seed)
    cases = [(n, _raw_random_edges(rng, n)) for n in rng.choices(range(1, 13), k=15)]
    cases += [(n, _raw_near_clique_edges(rng, n, rng.randint(0, 3))) for n in (20, 40, 60)]
    for n, raw in cases:
        built = Graph(n, raw)
        parsed = parse_instance(_instance_text(n, raw)).graph
        whole = parsed.restricted(range(n))
        for g in (built, parsed, whole):
            _assert_graph_operations(rng, g, raw)
        assert built == parsed == whole
        assert hash(built) == hash(parsed) == hash(whole)
        assert built == complement(complement(parsed))
        if raw:
            fewer = Graph(n, raw[1:])
            assert fewer != built and fewer != parsed
            assert fewer == parse_instance(_instance_text(n, raw[1:])).graph


def test_restricted_rejects_ids_outside_the_graph() -> None:
    g = complete_graph(4)
    for bad in ([0, 4], [-1, 2]):
        with pytest.raises(ValueError):
            g.restricted(bad)


def test_dense_solve_builds_no_graph_from_an_edge_list(monkeypatch) -> None:
    # dc = 1 near-clique on 200 vertices: clique 0..198, vertex 199 joined to
    # 0, 1 and 2. Parse, clique split, kernel build and search must work on
    # neighbour sets alone: no validating constructor run over its 19,704
    # edges, and no edge set derived from them.
    n = 200
    lines = ["mapf 1", f"vertices {n}"]
    lines += [f"edge {u} {v}" for u in range(n - 1) for v in range(u + 1, n - 1)]
    lines += [f"edge {u} {n - 1}" for u in (0, 1, 2)]
    agents = [(n - 1, 0)] + [(v, v + 40) for v in range(10, 40)] + [(v, v) for v in range(100, 130)]
    lines += [f"agent {s} {t}" for s, t in agents]
    text = "\n".join(lines) + "\n"

    calls = {"init": 0, "edges": 0}
    init = Graph.__init__
    edges = Graph.edges

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_edges(self):
        calls["edges"] += 1
        return edges.fget(self)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(Graph, "edges", property(counted_edges))
    inst = parse_instance(text)
    result, _ = fpt.solve_with_stats(inst)
    assert calls == {"init": 0, "edges": 0}
    assert result is not None and result[0] == 1
    assert validate_schedule(inst, result[1]).ok
