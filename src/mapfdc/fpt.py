from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from . import oracle
from .engine import DEFAULT_STATE_GUARD, joint_bfs
from .errors import MapfError, PreconditionError
from .graphs import CliqueSplit, clique_split
from .kernelize import (
    Kernel,
    build_kernel,
    classify_types,
    kernel_is_instance,
    select_core_agents,
)
from .model import Instance, Placement, Schedule, validate_schedule


def _config_search(
    kernel: Kernel, depth_cap: Optional[int], state_guard: int
) -> Tuple[Optional[Schedule], int]:
    """Shortest kernel schedule within `depth_cap` turns (no cap when None)
    whose every placement besides start and target keeps at least kernel.k
    core agents on the modulator, or None when no such schedule exists;
    plus the number of states the search kept."""
    res = joint_bfs(
        kernel.graph,
        kernel.starts,
        kernel.targets,
        occupancy_vertices=kernel.modulator,
        min_occupancy=kernel.k,
        depth_cap=depth_cap,
        state_guard=state_guard,
    )
    if res.path is None:
        return None, res.states
    return Schedule(res.path[1:]), res.states


def lift_schedule(
    inst: Instance,
    split: CliqueSplit,
    kernel: Kernel,
    ksched: Schedule,
) -> Schedule:
    """Extend a kernel schedule to every agent of the original instance.

    Core agents replay the kernel schedule, and turn m is the target
    placement. Each turn t = 1..m - 1 places the D dropped agents with one
    `_lift_turn` call over the clique vertices F free of core row C_t.
    Before turn m - 1 the goal is the dropped agents' own vertices and the
    core window is (C_{t-1}, C_t, C_{t-1}), so each dropped agent tries to
    stay first, must move when a core agent enters its vertex, and never
    swaps; turn m - 1 aims at the targets with the window
    (C_{m-2}, C_{m-1}, C_m).

    Every intermediate turn must leave at least D clique vertices free of
    the core, which the kernel floor k guarantees; PreconditionError
    otherwise. Then a row exists for every turn before m - 1. Say core
    agents enter the vertices of E dropped agents. The other D - E stay on
    vertices of F, so at least E vertices S of F hold no dropped agent.
    Each of the E must avoid only its bar, the vertex its evicting core
    agent leaves (moving there would be a swap), a different one for each.
    So they take distinct vertices of S other than their bars, unless a
    lone evicted agent's only vertex in S is its bar: then another dropped
    agent moves onto the bar and the evicted one takes its vertex. The
    search is exhaustive and may return that row, so below the
    backtracking cap it finds one. The validator checks the whole lifted
    schedule; a rejected one is a fault of this program and raises
    MapfError."""
    core = set(kernel.core_agents)
    m = ksched.makespan
    if len(core) == inst.n_agents:
        return ksched

    noncore = [a for a in inst.agents if a not in core]
    if len(noncore) <= max(len(core), 50):
        raise PreconditionError("dropped agents must outnumber max(core, 50)")
    if m < 2:
        raise PreconditionError("kernel schedule must have at least two turns")
    q = split.clique
    for a in noncore:
        if inst.starts[a] not in q or inst.targets[a] not in q:
            raise PreconditionError(
                "dropped agents must start and end in the clique part"
            )

    core_rows: List[Placement] = [kernel.starts, *ksched.placements]
    pos: Dict[int, int] = {a: inst.starts[a] for a in noncore}
    out: List[Placement] = []
    for turn in range(1, m):
        free = sorted(v for v in q if v not in core_rows[turn])
        if len(free) < len(noncore):
            raise PreconditionError(
                f"turn {turn} leaves fewer free clique vertices than dropped agents"
            )
        last = turn == m - 1
        goal = inst.targets if last else pos
        after = core_rows[turn + 1] if last else core_rows[turn - 1]
        window = (core_rows[turn - 1], core_rows[turn], after)
        try:
            pos = _lift_turn(noncore, pos, goal, window, free)
        except MapfError as exc:
            raise MapfError(f"{exc} at turn {turn} of the lift") from None
        row = [0] * inst.n_agents
        for ci, a in enumerate(kernel.core_agents):
            row[a] = core_rows[turn][ci]
        for a in noncore:
            row[a] = pos[a]
        out.append(tuple(row))
    sched = Schedule((*out, inst.targets))
    verdict = validate_schedule(inst, sched)
    if not verdict.ok:
        raise MapfError(f"the lifted schedule is invalid: {verdict.message}")
    return sched


# Backtracking steps the one search of `_lift_turn` or of `_two_turn_schedule`
# may take before it gives up. No `_lift_turn` call in the tests takes more
# than 11; the 300 seeded random lifts of the tests make 925 calls and take
# 15 steps in all, at most 4 in one call.
_FINISH_BACKTRACKS = 10_000


def _middle_row(
    agents: Sequence[int],
    vertices: Sequence[int],
    fits: Callable[[int, int], bool],
    pos: Union[Placement, Dict[int, int]],
    targets: Placement,
    core: Iterable[Tuple[int, int, int]],
) -> Tuple[Optional[Dict[int, int]], int]:
    """Depth-first search for the vertices X of `agents` at the middle turn
    of P -> X -> T, with P = `pos` and T = `targets`. Core agent i enters it
    already placed, as agent -1 - i on v, from u and bound for w, for the
    i-th triple (u, v, w) of `core`.

    The candidates come from one pool shared by every agent: the
    `vertices` (ascending) that no agent of `agents` targets, then the
    targeted ones, in the same order. Agent b tries its target first, then
    the pool, and takes a candidate v when `fits(b, v)`, no placed agent
    holds v, and v makes no exchange with a placed agent: neither the agent
    on v in P is placed on P_b nor the agent bound for v in T is placed on
    T_b. Agents go in the given order.

    Returns X as a dict that also holds the core agents, or None when the
    search ran to the end with no placement or took more than
    _FINISH_BACKTRACKS backtracking steps, plus the backtracking steps it
    took; a count above the cap tells the two Nones apart."""
    at = {pos[a]: a for a in agents}
    owner = {targets[a]: a for a in agents}
    pool = [v for v in vertices if v not in owner] + [v for v in vertices if v in owner]
    x: Dict[int, int] = {}
    for i, (u, v, w) in enumerate(core):
        at[u] = owner[w] = -1 - i
        x[-1 - i] = v
    taken: Set[int] = set(x.values())
    # tried[d]: where agent d of `agents` resumes, 0 for its target, i for pool[i - 1]
    tried = [0] * len(agents)
    backtracks = depth = 0
    while depth < len(agents):
        b = agents[depth]
        p, t = pos[b], targets[b]
        for i in range(tried[depth], len(pool) + 1):
            v = pool[i - 1] if i else t
            if (
                v not in taken
                and (v != t or not i)
                and fits(b, v)
                and x.get(at.get(v)) != p
                and x.get(owner.get(v)) != t
            ):
                break
        else:
            if depth == 0:
                return None, backtracks
            tried[depth] = 0
            depth -= 1
            taken.discard(x.pop(agents[depth]))
            backtracks += 1
            if backtracks > _FINISH_BACKTRACKS:
                return None, backtracks
            continue
        x[b] = v
        taken.add(v)
        tried[depth] = i + 1
        depth += 1
    return x, backtracks


def _lift_turn(
    dropped: Sequence[int],
    pos: Dict[int, int],
    goal: Union[Placement, Dict[int, int]],
    core_window: Sequence[Placement],
    free: Sequence[int],
) -> Dict[int, int]:
    """Vertices X of the `dropped` agents at one turn of a lift, between
    their vertices P (`pos`) one turn before and their vertices T (`goal`)
    one turn after.

    `core_window` holds the core rows C0, C1, C2 of the same three turns,
    and `free` the clique vertices F outside C1, ascending; P, X and T lie
    in the clique, so every dropped move follows an edge. One `_middle_row`
    search over the pool F places the dropped agents, in id order, on
    distinct vertices, each trying T first; a T outside F lies on C1, so
    every candidate fits. Core agent i enters it already placed on C1[i],
    from C0[i] and bound for C2[i]. So X avoids C1, and the exchange checks
    rule out a swap of a dropped agent with a core agent as with another
    dropped one; the kernel schedule has none between core agents. With
    T = P and C2 = C0 the T checks repeat the P checks, and the search
    plans the single move P -> X. The search is exhaustive, so MapfError
    means that no swap-free X into F exists, or that the search took more
    than _FINISH_BACKTRACKS backtracking steps."""
    x, steps = _middle_row(
        dropped, free, lambda b, v: True, pos, goal, zip(*core_window)
    )
    if steps > _FINISH_BACKTRACKS:
        raise MapfError("the search took too long to place the dropped agents")
    if x is None:
        raise MapfError("no swap-free placement for the dropped agents")
    return x


def _two_turn_schedule(inst: Instance) -> Optional[Schedule]:
    """A two-turn schedule S -> X -> T of `inst`, or None when `_middle_row`
    refutes one or gives up after _FINISH_BACKTRACKS backtracking steps.

    X_a lies in N[S_a] & N[T_a], so both of a's moves follow an edge or
    wait; an empty intersection refutes makespan 2 at once. The search runs
    over the pool of all vertices with that test, agents ordered by the
    smaller degree of S_a and T_a, ties by id. X is injective, and S and T
    are, so no turn collides. `_middle_row` places every agent, none in
    advance, so its exchange checks against S and T exclude every swap.
    The search is exhaustive below the cap, so a None that is not a
    give-up means no two-turn schedule exists. The validator checks the
    schedule found; a rejected one is a fault of this program and raises
    MapfError.

    When every start and target lies in a clique part Q of at least four
    vertices, only a give-up returns None. Q lies in every N[S_a] & N[T_a],
    so any injective row into Q without an exchange on either turn is a
    schedule. In a clique a one-turn move fails only when some pairs of
    agents must exchange vertices, which takes two turns in any graph, and
    four or more vertices leave room to break every exchange into two
    moves, so such a row exists and the exhaustive search finds it."""
    g = inst.graph
    nbr = g.neighbor_set
    starts, targets = inst.starts, inst.targets
    for s, t in zip(starts, targets):
        if s != t and t not in nbr(s) and nbr(s).isdisjoint(nbr(t)):
            return None

    def fits(a: int, v: int) -> bool:
        s, t = starts[a], targets[a]
        return (v == s or v in nbr(s)) and (v == t or v in nbr(t))

    agents = sorted(
        inst.agents, key=lambda a: (min(len(nbr(starts[a])), len(nbr(targets[a]))), a)
    )
    x, _ = _middle_row(agents, range(g.n), fits, starts, targets, ())
    if x is None:
        return None
    sched = Schedule((tuple(x[a] for a in inst.agents), targets))
    verdict = validate_schedule(inst, sched)
    if not verdict.ok:
        raise MapfError(f"the two-turn middle row is invalid: {verdict.message}")
    return sched


def _solve_kernel(
    inst: Instance, split: CliqueSplit, state_guard: int
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """The kernel path of `solve_with_stats`: searches the kernel instance
    under the occupancy constraint, lifting the kernel schedule back to all
    agents when some were dropped; a kernel schedule under two turns is
    padded to two first, so the instance's makespan limit must be None or
    at least 2. Returns the answer and the kernel search's state count."""
    types, agent_types = classify_types(inst, split)
    core = select_core_agents(inst, split, types, agent_types)
    kernel = build_kernel(inst, split, core, types)
    ksched, states = _config_search(kernel, inst.makespan_limit, state_guard)
    if ksched is None:
        return None, states
    if len(core) < inst.n_agents and ksched.makespan < 2:
        ksched = Schedule(
            ksched.placements + (kernel.targets,) * (2 - ksched.makespan)
        )
    lifted = lift_schedule(inst, split, kernel, ksched)
    return (lifted.makespan, lifted), states


def solve_with_stats(
    inst: Instance,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """Exact optimal solve parameterized by distance to clique, plus the
    state count of the search that answered (0 when no search ran). The
    answer is None when no schedule meets the instance's makespan limit;
    the limit is also the search's only depth cap.

    One chain of steps, each of which answers or passes on to the next:

    - target row: the only one-turn schedule, so it answers 1 when the
      validator accepts it;
    - limit rule: otherwise no schedule has under two turns, so a limit
      below 2 answers None with 0 states;
    - two-turn step: `_two_turn_schedule` searches for a middle row X with
      X_a in N[S_a] & N[T_a]. A row it finds answers 2 with 0 states; it
      is optimal, because the failed target row rules out makespan 1. When
      every start and target lies in a clique part of at least four
      vertices, it always finds one (see its docstring). A refutation, or
      a search that runs out of backtracking steps, passes on to the next
      step, which answers as if it had not run;
    - clique split: only the last step reads the minimum modulator, so it
      is split off here and not before. A distance to clique past the
      split's budget raises ResourceLimitError, but only for an instance
      that the steps above did not answer;
    - whole search or kernel plus lift: when the kernel would be the
      instance itself (`kernel_is_instance`), the answer is the
      whole-instance search of `oracle.solve_with_stats`, with no floor.
      That changes no answer: every agent is core, no vertex type is
      trimmed, and the floor k = agents - |clique part| holds in every
      injective placement, so the kernel search would make the same
      `joint_bfs` call with a floor that prunes nothing, and the lift of a
      full core returns the kernel schedule. Otherwise `_solve_kernel`
      answers."""
    if inst.starts == inst.targets:
        return (0, Schedule(())), 0
    direct = Schedule((inst.targets,))
    if validate_schedule(inst, direct).ok:
        return (1, direct), 0
    if inst.makespan_limit is not None and inst.makespan_limit < 2:
        return None, 0
    two_turns = _two_turn_schedule(inst)
    if two_turns is not None:
        return (2, two_turns), 0
    split = clique_split(inst.graph)
    if kernel_is_instance(inst, split):
        return oracle.solve_with_stats(inst, state_guard)
    return _solve_kernel(inst, split, state_guard)
