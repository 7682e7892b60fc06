from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionError, ResourceLimitError
from .graphs import Graph
from .model import Placement

DEFAULT_STATE_GUARD = 50_000_000


@dataclass(frozen=True)
class BfsResult:
    path: Optional[Tuple[Placement, ...]]
    states: int


@lru_cache(maxsize=128)
def _closed_neighborhood_csr(graph: Graph) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    indptr = [0]
    data: List[int] = []
    for v in range(graph.n):
        data.extend(graph.closed_neighbors(v))
        indptr.append(len(data))
    return tuple(indptr), tuple(data)


def joint_bfs(
    graph: Graph,
    starts: Placement,
    targets: Placement,
    occupancy_vertices=None,
    min_occupancy: int = 0,
    depth_cap: Optional[int] = None,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> BfsResult:
    """Breadth-first search over joint placements under simultaneous-move,
    per-turn-injective, swap-free semantics.

    occupancy_vertices/min_occupancy: every placement other than the start
    and target must keep at least min_occupancy agents on the given
    vertices. The returned path starts with the start placement, and is None
    when no schedule exists within depth_cap turns. Raises
    ResourceLimitError once the search would discover more than state_guard
    states.
    """
    if len(starts) != len(targets):
        raise PreconditionError("start and target maps differ in length")
    if depth_cap is not None and depth_cap < 0:
        raise PreconditionError("depth cap must be non-negative")
    if state_guard <= 0:
        raise PreconditionError("state guard must be positive")
    starts = tuple(starts)
    targets = tuple(targets)
    occupancy_mask: Optional[bytes] = None
    if min_occupancy > 0:
        row = bytearray(graph.n)
        for v in occupancy_vertices or ():
            row[v] = 1
        occupancy_mask = bytes(row)
    nbr_indptr, nbr_data = _closed_neighborhood_csr(graph)
    n_verts = graph.n
    n_agents = len(starts)
    if starts == targets:
        return BfsResult((starts,), 1)

    # Successors are enumerated depth-first over agents in id order, each
    # agent's options in ascending vertex order: new[level] is the vertex
    # chosen for agent `level`, choice[level] its index in the CSR row.
    visited: Dict[Tuple[int, ...], int] = {starts: 0}
    states: List[Tuple[int, ...]] = [starts]
    parents: List[int] = [-1]
    frontier: List[int] = [0]
    depth = 0

    prev_occ = [-1] * n_verts
    occupied = bytearray(n_verts)
    new = [0] * n_agents
    choice = [0] * n_agents

    while frontier:
        if depth_cap is not None and depth >= depth_cap:
            return BfsResult(None, len(states))
        depth += 1
        next_frontier: List[int] = []
        for sid in frontier:
            prev = states[sid]
            for a in range(n_agents):
                prev_occ[prev[a]] = a
            hit = -1
            level = 0
            choice[0] = 0
            while level >= 0:
                base = nbr_indptr[prev[level]]
                end = nbr_indptr[prev[level] + 1]
                i = choice[level]
                if base + i >= end:
                    level -= 1
                    if level >= 0:
                        occupied[new[level]] = 0
                        choice[level] += 1
                    continue
                v = nbr_data[base + i]
                if occupied[v]:
                    choice[level] += 1
                    continue
                holder = prev_occ[v]
                if 0 <= holder < level and new[holder] == prev[level]:
                    choice[level] += 1
                    continue
                new[level] = v
                if level + 1 == n_agents:
                    key = tuple(new)
                    accept = True
                    if min_occupancy > 0 and key != targets:
                        cnt = 0
                        for w in new:
                            if occupancy_mask[w]:
                                cnt += 1
                        accept = cnt >= min_occupancy
                    if accept and key not in visited:
                        if len(states) >= state_guard:
                            raise ResourceLimitError(
                                f"state guard of {state_guard} states exhausted"
                            )
                        visited[key] = len(states)
                        states.append(key)
                        parents.append(sid)
                        if key == targets:
                            hit = len(states) - 1
                            break
                        next_frontier.append(len(states) - 1)
                    choice[level] += 1
                else:
                    occupied[v] = 1
                    level += 1
                    choice[level] = 0
            for a in range(n_agents):
                prev_occ[prev[a]] = -1
            if hit >= 0:
                path: List[Tuple[int, ...]] = []
                idx = hit
                while idx >= 0:
                    path.append(states[idx])
                    idx = parents[idx]
                path.reverse()
                return BfsResult(tuple(path), len(states))
        frontier = next_frontier
    return BfsResult(None, len(states))
