from __future__ import annotations

from typing import Optional, Tuple

from .engine import DEFAULT_STATE_GUARD, joint_bfs
from .model import Instance, Schedule


def solve_with_stats(
    inst: Instance,
    cap: Optional[int] = None,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """Exhaustive shortest-schedule search plus the explored-state count.

    The instance's makespan limit, when set, tightens the cap so any
    returned schedule also satisfies the limit rule of the validator.
    """
    if inst.makespan_limit is not None:
        cap = inst.makespan_limit if cap is None else min(cap, inst.makespan_limit)
    res = joint_bfs(
        inst.graph,
        inst.starts,
        inst.targets,
        depth_cap=cap,
        state_guard=state_guard,
    )
    if res.path is None:
        return None, res.states
    sched = Schedule(res.path[1:])
    return (sched.makespan, sched), res.states


def optimal_schedule(
    inst: Instance,
    cap: Optional[int] = None,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Optional[Tuple[int, Schedule]]:
    """Provably optimal makespan and schedule, or None when no schedule
    exists (within cap turns, when a cap is given)."""
    result, _ = solve_with_stats(inst, cap, state_guard)
    return result
