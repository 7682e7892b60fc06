from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from .engine import DEFAULT_STATE_GUARD, joint_bfs
from .errors import MapfError
from .graphs import clique_split
from .kernelize import kernel_graph
from .model import Instance, Placement, Schedule, validate_schedule


# Backtracking steps the search of `_two_turn_schedule` may take before it
# gives up.
_FINISH_BACKTRACKS = 10_000


def _middle_row(
    agents: Sequence[int],
    vertices: Sequence[int],
    fits: Callable[[int, int], bool],
    pos: Placement,
    targets: Placement,
) -> Tuple[Optional[Dict[int, int]], int]:
    """Depth-first search for the vertices X of `agents` at the middle turn
    of P -> X -> T, with P = `pos` and T = `targets`.

    The candidates come from one pool shared by every agent: the
    `vertices` (ascending) that no agent of `agents` targets, then the
    targeted ones, in the same order. Agent b tries its target first, then
    the pool, and takes a candidate v when `fits(b, v)`, no placed agent
    holds v, and v makes no exchange with a placed agent: neither the agent
    on v in P is placed on P_b nor the agent bound for v in T is placed on
    T_b. Agents go in the given order.

    Returns X as a dict, or None when the search ran to the end with no
    placement or took more than _FINISH_BACKTRACKS backtracking steps, plus
    the backtracking steps it took; a count above the cap tells the two
    Nones apart."""
    at = {pos[a]: a for a in agents}
    owner = {targets[a]: a for a in agents}
    pool = [v for v in vertices if v not in owner] + [v for v in vertices if v in owner]
    x: Dict[int, int] = {}
    taken: Set[int] = set()
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


def _two_turn_schedule(inst: Instance) -> Optional[Schedule]:
    """A two-turn schedule S -> X -> T of `inst`, or None when `_middle_row`
    refutes one or gives up after _FINISH_BACKTRACKS backtracking steps.

    X_a lies in N[S_a] & N[T_a], so both of a's moves follow an edge or
    wait; an empty intersection refutes makespan 2 at once. The search runs
    over the pool of all vertices with that test, agents ordered by the
    smaller degree of S_a and T_a, ties by id. X is injective, and S and T
    are, so no turn collides, and the exchange checks of `_middle_row`
    against S and T exclude every swap.
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
    x, _ = _middle_row(agents, range(g.n), fits, starts, targets)
    if x is None:
        return None
    sched = Schedule((tuple(x[a] for a in inst.agents), targets))
    verdict = validate_schedule(inst, sched)
    if not verdict.ok:
        raise MapfError(f"the two-turn middle row is invalid: {verdict.message}")
    return sched


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
    - trimmed search: one `joint_bfs` over every agent on the
      `kernel_graph` of the instance, the paper's vertex-type reduction:
      each vertex type of the clique part keeps at most three vertices per
      agent, the agents' endpoints among them, and nothing is trimmed when
      the clique part has at most three vertices per agent. The graph keeps
      the instance's vertex ids, so the schedule found is the instance's
      own."""
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
    res = joint_bfs(
        kernel_graph(inst, clique_split(inst.graph)),
        inst.starts,
        inst.targets,
        depth_cap=inst.makespan_limit,
        state_guard=state_guard,
    )
    if res.path is None:
        return None, res.states
    sched = Schedule(res.path[1:])
    return (sched.makespan, sched), res.states
