"""Independent checkers for the benchmark's outputs.

Nothing here imports `mapfdc`. A schedule is a sequence of placements (one
vertex per agent) for turns 1..m; turn 0 is the start placement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

Verdict = Tuple[bool, Optional[str], Optional[int]]


def check_schedule(
    has_edge: Callable[[int, int], bool],
    starts: Sequence[int],
    targets: Sequence[int],
    placements: Sequence[Sequence[int]],
    limit: Optional[int] = None,
) -> Verdict:
    """(ok, rule, turn) for a schedule under the swap-free model.

    Within a turn the rules are tried in the order neighborhood (every agent
    stays or follows an edge), injective (no shared vertex), swap (no two
    agents exchange vertices); then the final placement must equal the
    targets ("target", turn m) and m must not exceed the limit ("limit")."""
    n = len(starts)
    prev = list(starts)
    for turn, cur in enumerate(placements, start=1):
        if len(cur) != n:
            return False, "shape", turn
        if any(v != p and not has_edge(p, v) for p, v in zip(prev, cur)):
            return False, "neighborhood", turn
        if len(set(cur)) != n:
            return False, "injective", turn
        at_prev = {v: a for a, v in enumerate(prev)}
        for a, v in enumerate(cur):
            b = at_prev.get(v)
            if b is not None and b != a and cur[b] == prev[a]:
                return False, "swap", turn
        prev = list(cur)
    m = len(placements)
    if prev != list(targets):
        return False, "target", m
    if limit is not None and m > limit:
        return False, "limit", m
    return True, None, None


def optimal_makespan(
    neighbors: Sequence[Sequence[int]],
    starts: Sequence[int],
    targets: Sequence[int],
) -> Optional[int]:
    """Fewest turns from starts to targets by breadth-first search over joint
    placements, or None when the targets are unreachable."""
    n_agents = len(starts)
    options = [sorted(set(nb) | {v}) for v, nb in enumerate(neighbors)]
    start = tuple(starts)
    goal = tuple(targets)
    if start == goal:
        return 0
    seen = {start}
    frontier: List[Tuple[int, ...]] = [start]
    level = 0
    while frontier:
        level += 1
        nxt: List[Tuple[int, ...]] = []
        for state in frontier:
            holder = {v: a for a, v in enumerate(state)}
            new = [0] * n_agents
            used = set()

            def extend(a: int) -> bool:
                """Place agents a.. for the next turn; True once the goal is hit."""
                if a == n_agents:
                    key = tuple(new)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
                    return key == goal
                for v in options[state[a]]:
                    if v in used:
                        continue
                    b = holder.get(v)
                    if b is not None and b < a and new[b] == state[a]:
                        continue  # a and b would exchange vertices
                    new[a] = v
                    used.add(v)
                    if extend(a + 1):
                        return True
                    used.discard(v)
                return False

            if extend(0):
                return level
        frontier = nxt
    return None
