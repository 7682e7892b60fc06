from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import PreconditionError, ResourceLimitError

Edge = Tuple[int, int]


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Stored as one neighbour set per vertex; `edges` is derived from them on
    first use. Neighbour sets iterate in no fixed order, so a caller whose
    output depends on order sorts for itself. Immutable by convention.
    """

    __slots__ = ("n", "_nbr", "_edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbr: List[Set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            nbr[u].add(v)
            nbr[v].add(u)
        self._store(n, nbr)

    @classmethod
    def _from_neighbor_sets(cls, n: int, nbr: Sequence[Iterable[int]]) -> "Graph":
        """Graph whose vertex v has neighbours nbr[v], without validation.

        For callers inside the package that already hold a valid adjacency:
        nbr has n entries of distinct ids within 0..n-1, symmetric and
        loop-free."""
        g = cls.__new__(cls)
        g._store(n, nbr)
        return g

    def _store(self, n: int, nbr: Sequence[Iterable[int]]) -> None:
        self.n = n
        self._nbr: Tuple[FrozenSet[int], ...] = tuple(frozenset(s) for s in nbr)
        self._edges: Optional[FrozenSet[Edge]] = None

    @property
    def edges(self) -> FrozenSet[Edge]:
        """Every edge once, as (u, v) with u < v."""
        if self._edges is None:
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    def neighbor_set(self, v: int) -> FrozenSet[int]:
        """N(v) as a set, for membership tests and set algebra."""
        return self._nbr[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._nbr[u]

    def sorted_edges(self) -> List[Edge]:
        return [(u, v) for u, a in enumerate(self._nbr) for v in sorted(a) if u < v]

    def induced(self, vertices: Iterable[int]) -> Tuple["Graph", Tuple[int, ...]]:
        """Induced subgraph with dense ids. Returns (subgraph, old_ids) where
        new vertex i corresponds to old_ids[i]; old_ids is sorted."""
        old_ids = tuple(sorted(set(vertices)))
        if old_ids and not (0 <= old_ids[0] and old_ids[-1] < self.n):
            raise ValueError(f"induced: vertex ids must lie in 0..{self.n - 1}")
        keep = frozenset(old_ids)
        new_id = [0] * self.n
        for i, v in enumerate(old_ids):
            new_id[v] = i
        relabel = new_id.__getitem__
        sub = [list(map(relabel, self._nbr[v] & keep)) for v in old_ids]
        return Graph._from_neighbor_sets(len(old_ids), sub), old_ids

    def is_complete(self) -> bool:
        return all(len(a) == self.n - 1 for a in self._nbr)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._nbr == other._nbr
        )

    def __hash__(self) -> int:
        return hash((self.n, self._nbr))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self._nbr)) // 2})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complement(g: Graph) -> Graph:
    everyone = frozenset(range(g.n))
    return Graph._from_neighbor_sets(
        g.n, [everyone - g.neighbor_set(u) - {u} for u in range(g.n)]
    )


def is_clique(g: Graph, vertices: Optional[Iterable[int]] = None) -> bool:
    """True when the given vertex set (default: all of g) is pairwise adjacent."""
    if vertices is None:
        return g.is_complete()
    vs = set(vertices)
    if len(vs) < 2:
        return True
    # u is never its own neighbour, so vs - N(u) = {u} exactly when
    # vs - {u} is a subset of N(u)
    return all(0 <= u < g.n and len(vs - g.neighbor_set(u)) == 1 for u in vs)


def _reduce(adj: Dict[int, Set[int]], chosen: Set[int]) -> None:
    """Apply safe reductions in place: drop isolated vertices, and for any
    degree-1 vertex put its neighbor in the cover."""
    again = True
    while again:
        again = False
        for v in list(adj.keys()):
            nbrs = adj.get(v)
            if nbrs is None:
                continue
            if not nbrs:
                del adj[v]
                continue
            if len(nbrs) == 1:
                (u,) = nbrs
                chosen.add(u)
                for w in list(adj[u]):
                    adj[w].discard(u)
                del adj[u]
                del adj[v]
                again = True


def _vc_branch(adj: Dict[int, Set[int]], budget: int) -> Optional[int]:
    """Minimum vertex cover size of the graph in `adj`, or None if > budget."""
    chosen: Set[int] = set()
    _reduce(adj, chosen)
    base = len(chosen)
    if base > budget:
        return None
    if not adj:
        return base
    if budget == base:
        return None
    # branch on an endpoint of maximum degree: cover all edges at u, or keep
    # u out which forces every neighbor in
    u = max(adj, key=lambda v: (len(adj[v]), -v))
    best: Optional[int] = None

    sub = {v: set(ns) for v, ns in adj.items()}
    for w in sub.pop(u):
        sub[w].discard(u)
    r = _vc_branch(sub, budget - base - 1)
    if r is not None:
        best = base + 1 + r

    nbrs = adj[u]
    if base + len(nbrs) <= budget:
        sub = {v: set(ns) for v, ns in adj.items()}
        for x in nbrs:
            for w in sub.pop(x):
                sub[w].discard(x)
        inner_budget = (best - base - len(nbrs) - 1) if best is not None else (
            budget - base - len(nbrs)
        )
        if inner_budget >= 0:
            r = _vc_branch(sub, inner_budget)
            if r is not None:
                cand = base + len(nbrs) + r
                if best is None or cand < best:
                    best = cand
    return best


def _adj_map(g: Graph, exclude: Set[int]) -> Dict[int, Set[int]]:
    return {
        v: {u for u in g.neighbor_set(v) if u not in exclude}
        for v in range(g.n)
        if v not in exclude
    }


def min_vertex_cover(g: Graph, budget: int = 20) -> Optional[FrozenSet[int]]:
    """Exact minimum vertex cover, or None when every cover exceeds `budget`.

    Among all minimum covers the lexicographically smallest (as a sorted
    vertex tuple) is returned, so results are reproducible.
    """
    if budget < 0:
        return None
    size = _vc_branch(_adj_map(g, set()), budget)
    if size is None:
        return None
    chosen: Set[int] = set()
    while True:
        adj = _adj_map(g, chosen)
        if all(not ns for ns in adj.values()):
            break
        # more uncovered edges than the cover has room left for: v lies in
        # every minimum cover extending `chosen`, so taking it keeps the
        # lexicographically smallest one
        forced = {v for v, ns in adj.items() if len(ns) > size - len(chosen)}
        if forced:
            chosen |= forced
            continue
        for v in range(g.n):
            if v in chosen or not adj.get(v):
                continue
            trial = chosen | {v}
            rest = _vc_branch(_adj_map(g, trial), size - len(trial))
            if rest is not None and len(trial) + rest == size:
                chosen.add(v)
                break
        else:
            raise AssertionError("cover reconstruction failed")
    return frozenset(chosen)


@dataclass(frozen=True)
class CliqueSplit:
    """Partition of the vertex set into a modulator and a clique remainder."""

    modulator: FrozenSet[int]
    clique: FrozenSet[int]

    @property
    def dc(self) -> int:
        return len(self.modulator)


def clique_split(g: Graph, budget: int = 20) -> CliqueSplit:
    """Smallest vertex set whose removal leaves a complete graph.

    Equals a minimum vertex cover of the complement. Raises
    ResourceLimitError when the distance to clique exceeds `budget`.
    """
    cover = min_vertex_cover(complement(g), budget)
    if cover is None:
        raise ResourceLimitError(
            f"distance to clique exceeds budget {budget}"
        )
    clique = frozenset(range(g.n)) - cover
    if not is_clique(g, clique):
        raise PreconditionError("internal: split remainder is not a clique")
    return CliqueSplit(modulator=cover, clique=clique)
