from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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

    @property
    def neighbor_sets(self) -> Tuple[FrozenSet[int], ...]:
        """N(v) for every vertex v, indexed by v: for loops that index
        rather than call `neighbor_set` once per vertex."""
        return self._nbr

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._nbr[u]

    def sorted_edges(self) -> List[Edge]:
        return [(u, v) for u, a in enumerate(self._nbr) for v in sorted(a) if u < v]

    def restricted(self, vertices: Iterable[int]) -> "Graph":
        """The same vertex ids with only the edges among `vertices`: a kept
        vertex v has neighbours N(v) & kept, every other vertex none."""
        kept = frozenset(vertices)
        if kept and not (0 <= min(kept) and max(kept) < self.n):
            raise ValueError(f"restricted: vertex ids must lie in 0..{self.n - 1}")
        return Graph._from_neighbor_sets(
            self.n, [self._nbr[v] & kept if v in kept else () for v in range(self.n)]
        )

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


def _packing_bound(
    nbr: Sequence[FrozenSet[int]], order: Sequence[int], cover: FrozenSet[int]
) -> int:
    """Cover vertices still needed, by a greedy packing of vertex-disjoint
    cliques of uncovered vertices, grown in `order`: any cover holds all but
    at most one vertex of each."""
    used = set(cover)
    need = 0
    for v in order:
        if v in used:
            continue
        members = {v}
        for w in nbr[v] - used:
            if members <= nbr[w]:
                members.add(w)
        used |= members
        need += len(members) - 1
    return need


def min_vertex_cover(g: Graph, budget: int = 20) -> Optional[FrozenSet[int]]:
    """Exact minimum vertex cover, or None when every cover exceeds `budget`.

    Among all minimum covers the lexicographically smallest (as a sorted
    vertex tuple) is returned, so results are reproducible.

    Cover sizes k are tried upward from a clique-packing lower bound, which
    also prunes each branch that needs more than k. At each k the search
    branches on the smallest vertex u that still has an uncovered edge:
    first u joins the cover, then instead all of u's uncovered neighbours
    do. Every vertex either branch adds is at least u, and so is every
    vertex added below it, so the covers under both branches agree below u
    and only those under the first hold u; of two covers of equal size the
    one holding u is the lexicographically smaller. Every cover takes u or
    all of its uncovered neighbours, so a minimum cover is a leaf of this
    tree. The first k that has a leaf is therefore the minimum, and the
    first leaf found at that k is the lexicographically smallest.
    """
    if budget < 0:
        return None
    nbr = g.neighbor_sets
    # packing from low degree up finds more disjoint edges in sparse parts
    order = sorted((v for v in range(g.n) if nbr[v]), key=lambda v: len(nbr[v]))
    for k in range(_packing_bound(nbr, order, frozenset()), budget + 1):
        # depth first with the branch that holds u on top, so that branch
        # and everything below it is searched before the other
        stack = [frozenset()]
        while stack:
            cover = stack.pop()
            if len(cover) + _packing_bound(nbr, order, cover) > k:
                continue
            u = min((v for v in order if v not in cover and not nbr[v] <= cover), default=None)
            if u is None:
                return cover
            stack += [cover | nbr[u], cover | {u}]
    return None


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
    # the clique part keeps at least n - budget vertices, each of degree at
    # least n - budget - 1: with more than `budget` vertices of lower degree
    # no split fits, and the complement (quadratic in n) is never built
    low = sum(len(g.neighbor_set(v)) < g.n - budget - 1 for v in range(g.n))
    cover = None if low > budget else min_vertex_cover(complement(g), budget)
    if cover is None:
        raise ResourceLimitError(
            f"distance to clique exceeds budget {budget}"
        )
    clique = frozenset(range(g.n)) - cover
    if not is_clique(g, clique):
        raise PreconditionError("internal: split remainder is not a clique")
    return CliqueSplit(modulator=cover, clique=clique)
