from __future__ import annotations

from typing import Optional, Tuple

from .engine import DEFAULT_STATE_GUARD, joint_bfs
from .model import Instance, Schedule


def solve_with_stats(
    inst: Instance,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """Exhaustive shortest-schedule search plus the explored-state count.

    The answer is None when no schedule meets the instance's makespan
    limit; the limit is the search's only depth cap."""
    res = joint_bfs(
        inst.graph,
        inst.starts,
        inst.targets,
        depth_cap=inst.makespan_limit,
        state_guard=state_guard,
    )
    if res.path is None:
        return None, res.states
    sched = Schedule(res.path[1:])
    return (sched.makespan, sched), res.states
