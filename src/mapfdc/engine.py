from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import PreconditionError, ResourceLimitError
from .graphs import Graph
from .model import Placement

DEFAULT_STATE_GUARD = 50_000_000
# The bytes one search may spend on kept placements, as bytes_per_state
# counts them; joint_bfs reads it at call time. Its cap is below the
# default state guard for every agent count (3,627,506 states for 8)
BYTE_BUDGET = 1 << 30

_Row = Tuple[Tuple[int, ...], bool]


@dataclass(frozen=True)
class BfsResult:
    """Search outcome: the path (None when no schedule exists), the number
    of placements kept (discovered and stored), and the number of complete
    successor placements generated, kept or not."""

    path: Optional[Tuple[Placement, ...]]
    states: int
    generated: int = 0


def _distances(graph: Graph, source: int) -> List[int]:
    """Hop distance from every vertex to `source`; graph.n when unreachable.
    Breadth-first by layers: each frontier vertex adds `N(u) & unseen`, a
    set operation in C, so a dense graph costs O(V) set steps once the
    first layers have taken most vertices, not one step per edge."""
    nbr = graph.neighbor_set
    dist = [graph.n] * graph.n
    dist[source] = 0
    unseen = set(range(graph.n))
    unseen.discard(source)
    frontier = [source]
    d = 0
    while frontier and unseen:
        d += 1
        layer: List[int] = []
        for u in frontier:
            new = nbr(u) & unseen
            if new:
                unseen -= new
                layer.extend(new)
        for v in layer:
            dist[v] = d
        frontier = layer
    return dist


def _two_edge_components(graph: Graph) -> List[int]:
    """Label of every vertex's 2-edge-connected component: its connected
    component once every bridge is deleted.

    Tarjan's lowlink search, kept iterative so that a long path cannot
    exhaust the interpreter stack. A vertex u whose subtree has no edge to
    a vertex discovered before u (low[u] == order[u]) closes the component
    of the vertices still open above it on `open_`; the tree edge into u,
    if any, is a bridge. O(V + E).
    """
    n = graph.n
    order = [-1] * n
    low = [0] * n
    label = [-1] * n
    open_: List[int] = []
    clock = components = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = clock
        clock += 1
        open_.append(root)
        work = [(root, -1, iter(graph.neighbor_set(root)))]
        while work:
            u, parent, rest = work[-1]
            for v in rest:
                if order[v] < 0:
                    order[v] = low[v] = clock
                    clock += 1
                    open_.append(v)
                    work.append((v, u, iter(graph.neighbor_set(v))))
                    break
                if v != parent and order[v] < low[u]:
                    low[u] = order[v]
            else:
                work.pop()
                if parent >= 0 and low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] == order[u]:
                    while True:
                        w = open_.pop()
                        label[w] = components
                        if w == u:
                            break
                    components += 1
    return label


class _Options:
    """Move options of agents bound for one target vertex.

    row(slack, u) is (kept, cut): `kept` is the part of N[u] at distance
    at most `slack` from the target, ascending by vertex id, and `cut` tells
    whether some vertex of N[u] that can still reach the target was left
    out. Rows are built on first use and kept per slack in a dict of the
    vertices asked for, not a list of n slots: a search of many agents on a
    large graph asks for few vertices per target.
    """

    __slots__ = ("graph", "dist", "rows")

    def __init__(self, graph: Graph, target: int) -> None:
        self.graph = graph
        self.dist = _distances(graph, target)
        self.rows: Dict[int, Dict[int, _Row]] = {}

    def row(self, slack: int, u: int) -> _Row:
        by_vertex = self.rows.get(slack)
        if by_vertex is None:
            by_vertex = self.rows[slack] = {}
        entry = by_vertex.get(u)
        if entry is None:
            dist = self.dist
            closed = self.graph.neighbor_set(u) | {u}
            # sorted, so that successors come out in vertex-id order
            kept = tuple(sorted(v for v in closed if dist[v] <= slack))
            cut = any(slack < dist[v] < self.graph.n for v in closed)
            entry = by_vertex[u] = (kept, cut)
        return entry


def bytes_per_state(n_agents: int) -> int:
    """Bytes that one kept placement of `n_agents` agents may cost: its
    tuple, its entry in the placement table and its bucket slots. An upper
    bound on the process peak RSS less the RSS before the search, per kept
    state, measured on draw 328, tail 12/8, bottleneck 1,200/1,000 and the
    three-partition tree (README, Engine)."""
    return 12 * n_agents + 200


def _width(pair: Tuple[int, Tuple[int, ...]]) -> int:
    return len(pair[1])


def _steps_home(placement: Tuple[int, ...], homes: List[int], targets: Placement) -> bool:
    """Whether agents that each stand within one edge of their target can
    all step onto it in one turn: no two of them trade vertices. homes[v]
    is the agent whose target is v, or -1."""
    for a, u in enumerate(placement):
        b = homes[u]
        if b >= 0 and b != a and placement[b] == targets[a]:
            return False
    return True


def joint_bfs(
    graph: Graph,
    starts: Placement,
    targets: Placement,
    depth_cap: Optional[int] = None,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> BfsResult:
    """Shortest schedule over joint placements under simultaneous-move,
    per-turn-injective, swap-free semantics.

    The returned path starts with the start placement, and is None when no
    schedule exists within depth_cap turns. Raises ResourceLimitError once
    the search would keep more than state_guard states, or more than
    BYTE_BUDGET // bytes_per_state(k) states for k agents, whichever is
    fewer; its message names the limit that tripped. Raises
    PreconditionError for a vertex id outside 0..n-1 or two agents sharing
    a start.

    Some answers come before any search, with states == 1: repeated
    targets, a target some agent cannot reach, and a packed instance (as
    many agents as vertices) in which some agent's start and target lie in
    different 2-edge-connected components. In a packed instance every
    placement is a bijection, so one turn's moves form a permutation of the
    vertices. A 2-cycle of that permutation is a swap, which is forbidden,
    and every longer cycle is a simple cycle of the graph. So every edge
    crossed lies on a cycle and is not a bridge, and no agent ever leaves
    its 2-edge-connected component, whatever the depth cap.

    The search is f-layered with distance pruning. With dist(v, t) the hop
    distance in `graph`, h(P) = max_a dist(P[a], t_a) is a consistent lower
    bound on the turns left, because an agent moves at most one edge per
    turn. Layer F = h(start), h(start) + 1, ... takes its states in
    ascending depth g. A state at depth g in layer F offers agent a only the
    vertices v of N[P[a]] with dist(v, t_a) <= F - g - 1, so every successor
    has g + 1 + h <= F and joins layer F at depth g + 1. A state that had an
    option cut goes back into layer F + 1 at the same depth, where it is
    expanded again with the wider budget. One table, kept across layers,
    maps each kept placement to the one it was discovered from; a placement
    is kept when first discovered, and the path is read back through the
    table. A placement discovered at depth F - 1 of layer F has every agent
    within one edge of its target, and when no two agents would trade
    vertices on the way, the target follows it at once.

    Why the answer is optimal, with d(s) the least depth of placement s:

    1. First discovery within a layer has minimal g. Take the first
       placement s discovered at a depth d' > d(s), in layer F, and a
       shortest path start = s_0, ..., s_d = s. Consistency gives
       j + 1 + h(s_{j+1}) <= d + h(s) < F for every j < d. Let s_j be the
       last path placement discovered before s; as s is the first
       exception, s_j sits at depth j < d' - 1. A state is expanded at its
       depth in every layer from the one that discovers it to the first
       that cuts nothing, and a layer expands depth j before depth d' - 1.
       So before s was discovered, s_j had been expanded with a budget that
       admits s_{j+1}, which was therefore discovered before s: a
       contradiction. The same argument shows that every s with
       d(s) + h(s) <= F is discovered by the end of layer F.
       (The target reached by the one-turn step ends the search; 2 covers
       it.)
    2. Therefore the first goal found is optimal. The target (h = 0) is
       discovered by the end of layer d(target), so a target found in layer
       F has d(target) >= F, and it is found at depth at most F. Layer
       F > depth_cap thus proves that no schedule fits within depth_cap.
    3. An empty queue means every reachable placement was fully expanded:
       no layer holds a state only when every kept placement was expanded
       with nothing cut, so every placement that is reachable and leaves
       each agent able to reach its target was kept, and the target is not
       among them.
    """
    if len(starts) != len(targets):
        raise PreconditionError("start and target maps differ in length")
    if depth_cap is not None and depth_cap < 0:
        raise PreconditionError("depth cap must be non-negative")
    if state_guard <= 0:
        raise PreconditionError("state guard must be positive")
    starts = tuple(starts)
    targets = tuple(targets)
    n_verts = graph.n
    n_agents = len(starts)
    # A byte per vertex rather than a set of starts: a set of 100 starts
    # has a table big enough to come from the system allocator, and freeing
    # it moved the heap trims so that each dense near-clique solve paid
    # about 2,800 more page faults.
    taken = bytearray(n_verts)
    for v in starts:
        if not 0 <= v < n_verts:
            raise PreconditionError(f"start vertex {v} outside 0..{n_verts - 1}")
        if taken[v]:
            raise PreconditionError(f"two agents start on vertex {v}")
        taken[v] = 1
    for v in targets:
        if not 0 <= v < n_verts:
            raise PreconditionError(f"target vertex {v} outside 0..{n_verts - 1}")
    if starts == targets:
        return BfsResult((starts,), 1, 0)
    if len(set(targets)) < n_agents:
        return BfsResult(None, 1, 0)
    if n_agents == n_verts:
        component = _two_edge_components(graph)
        if any(component[s] != component[t] for s, t in zip(starts, targets)):
            return BfsResult(None, 1, 0)
    homes = [-1] * n_verts
    for a, t in enumerate(targets):
        homes[t] = a
    by_target = {t: _Options(graph, t) for t in targets}
    options = [by_target[t] for t in targets]
    layer = max(options[a].dist[starts[a]] for a in range(n_agents))
    if layer >= n_verts or (depth_cap is not None and layer > depth_cap):
        return BfsResult(None, 1, 0)

    # parent[P]: the placement P was discovered from (None for the start);
    # its keys are the kept states
    parent: Dict[Tuple[int, ...], Optional[Tuple[int, ...]]] = {starts: None}
    generated = 0
    per_state = bytes_per_state(n_agents)
    budget = BYTE_BUDGET
    cap = min(state_guard, budget // per_state)

    def keep(key: Tuple[int, ...], prev: Tuple[int, ...]) -> None:
        if len(parent) >= cap:
            limit = (
                f"byte budget of {budget} bytes ({cap} states of {per_state} bytes)"
                if cap < state_guard
                else f"state guard of {state_guard} states"
            )
            raise ResourceLimitError(f"{limit} exhausted", len(parent))
        parent[key] = prev

    # buckets[g]: states at depth g waiting in the current layer, those a
    # cut deferred from the layer before included; a state at depth `layer`
    # would be the target, so g stays below it.
    buckets: List[List[Tuple[int, ...]]] = [[starts]] + [[] for _ in range(layer)]

    # Successors are enumerated depth-first, one agent per level, with the
    # agents' kept rows in one plan, rows with fewer options first. A state
    # expanded again after a cut produces its old successors again; they
    # are in `parent` already and are skipped like any other duplicate. No
    # row is empty: a state at depth g has every agent within layer - g of
    # its target, so each kept row holds a vertex one step closer. In the
    # search, new[level] is the vertex chosen at `level` from opts[level],
    # and pending[level] iterates over the options not tried yet.
    agents = range(n_agents)
    prev_occ = [-1] * n_verts
    occupied = bytearray(n_verts)
    here = [0] * n_agents
    at_level = [0] * n_agents
    new = [0] * n_agents
    opts: List[Tuple[int, ...]] = [()] * n_agents
    pending: List[Iterator[int]] = [iter(())] * n_agents
    last = n_agents - 1

    while True:
        if depth_cap is not None and layer > depth_cap:
            return BfsResult(None, len(parent), generated)
        deferred: List[List[Tuple[int, ...]]] = [[] for _ in range(layer + 2)]
        for g in range(layer):
            slack = min(layer - g - 1, n_verts - 1)
            grown = buckets[g + 1]
            for prev in buckets[g]:
                rows = [options[a].row(slack, prev[a]) for a in agents]
                if any(cut for _, cut in rows):
                    deferred[g].append(prev)
                plan = sorted(((a, rows[a][0]) for a in agents), key=_width)
                for level, (a, row) in enumerate(plan):
                    opts[level] = row
                    here[level] = prev[a]
                    prev_occ[prev[a]] = level
                    at_level[a] = level
                unpermute = itemgetter(*at_level) if n_agents > 1 else tuple
                hit: Optional[Tuple[int, ...]] = None
                level = 0
                pending[0] = iter(opts[0])
                while level >= 0:
                    mine = here[level]
                    for v in pending[level]:
                        if occupied[v]:
                            continue
                        holder = prev_occ[v]
                        if 0 <= holder < level and new[holder] == mine:
                            continue
                        new[level] = v
                        if level < last:
                            occupied[v] = 1
                            level += 1
                            pending[level] = iter(opts[level])
                            break
                        generated += 1
                        key = unpermute(new)
                        if key in parent:
                            continue
                        keep(key, prev)
                        if key == targets:
                            hit = key
                            break
                        if g + 2 == layer and _steps_home(key, homes, targets):
                            generated += 1
                            keep(targets, key)
                            hit = targets
                            break
                        grown.append(key)
                    else:
                        level -= 1
                        if level >= 0:
                            occupied[new[level]] = 0
                        continue
                    if hit is not None:
                        break
                for v in prev:
                    prev_occ[v] = -1
                if hit is not None:
                    path: List[Tuple[int, ...]] = []
                    while hit is not None:
                        path.append(hit)
                        hit = parent[hit]
                    path.reverse()
                    return BfsResult(tuple(path), len(parent), generated)
        buckets = deferred
        layer += 1
        if not any(buckets):
            return BfsResult(None, len(parent), generated)
