from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .engine import DEFAULT_STATE_GUARD, joint_bfs, middle_row
from .errors import MapfError
from .graphs import Graph
from .model import Instance, Schedule, validate_schedule


# Backtracking steps the middle-row search of `_two_turn_schedule` may take
# before it gives up.
_FINISH_BACKTRACKS = 10_000

# kernel_graph keeps a twin class whole when it has at most this many
# vertices per agent, and trims it to that many otherwise.
VERTICES_PER_AGENT = 3


def _two_turn_schedule(inst: Instance) -> Optional[Schedule]:
    """A two-turn schedule S -> X -> T of `inst`, or None when `middle_row`
    refutes one or gives up after _FINISH_BACKTRACKS backtracking steps.

    X_a lies in N[S_a] & N[T_a], so both of a's moves follow an edge or
    wait; an empty intersection refutes makespan 2 at once. The search
    offers each agent that intersection alone, agents ordered by the
    smaller degree of S_a and T_a, ties by id. X is injective, and S and T
    are, so no turn collides, and the exchange checks of `middle_row`
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
    nbr = inst.graph.neighbor_set
    starts, targets = inst.starts, inst.targets
    for s, t in zip(starts, targets):
        if s != t and t not in nbr(s) and nbr(s).isdisjoint(nbr(t)):
            return None

    agents = sorted(
        inst.agents, key=lambda a: (min(len(nbr(starts[a])), len(nbr(targets[a]))), a)
    )
    x, _ = middle_row(nbr, agents, starts, targets, _FINISH_BACKTRACKS)
    if x is None:
        return None
    sched = Schedule((tuple(x[a] for a in inst.agents), targets))
    verdict = validate_schedule(inst, sched)
    if not verdict.ok:
        raise MapfError(f"the two-turn middle row is invalid: {verdict.message}")
    return sched


def kernel_graph(inst: Instance) -> Graph:
    """The instance's graph with each true-twin class trimmed, the paper's
    vertex-type reduction. A class of at most VERTICES_PER_AGENT vertices
    per agent stays whole, and a larger one keeps the agents' endpoints in
    it, padded with its lowest other members to that budget. The result
    keeps the instance's vertex ids and only the edges among the kept
    vertices, so every trimmed vertex is isolated; it is `inst.graph`
    itself when nothing is trimmed, which holds at once when the graph has
    at most the budget's vertices.

    True twins have equal closed neighbourhoods N[v], so a class C is a
    clique whose vertices see the same outside vertices. With k agents and
    a kept set K of C that holds the endpoints in C and 3k vertices, any
    schedule maps onto one of the same makespan inside K: keep the first
    and last rows, and going forward, move each agent that stands in C on
    turn i to a vertex of K that no other agent holds on turn i or held on
    turn i - 1, nor, on the turn before the last, targets. That excludes
    at most 3(k - 1) vertices, every move stays an edge or a wait, and no
    two agents collide or exchange.

    The classes need no clique split. On the clique part of a minimum
    modulator they are the vertex types, the clique vertices with equal
    modulator neighbourhoods: such vertices are true twins, and no
    modulator vertex is a true twin of a clique vertex, or it would join
    the clique and leave a smaller modulator. The rest are twin classes of
    the modulator, which the same argument trims."""
    g = inst.graph
    budget = VERTICES_PER_AGENT * inst.n_agents
    if g.n <= budget:
        return g
    classes: Dict[FrozenSet[int], List[int]] = {}
    for v in range(g.n):
        classes.setdefault(g.neighbor_set(v) | {v}, []).append(v)
    endpoints = set(inst.starts) | set(inst.targets)
    kept: List[int] = []
    for members in classes.values():
        if len(members) <= budget:
            kept.extend(members)
        else:
            fixed = [v for v in members if v in endpoints]
            pad = [v for v in members if v not in endpoints]
            kept.extend(fixed + pad[: budget - len(fixed)])
    return g if len(kept) == g.n else g.restricted(kept)


def _search(
    graph: Graph, inst: Instance, state_guard: int
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """One `joint_bfs` of every agent of `inst` on `graph`, which keeps the
    instance's vertex ids, with the instance's makespan limit as its only
    depth cap: the answer, None when no schedule meets the limit, and the
    states the search kept."""
    res = joint_bfs(
        graph,
        inst.starts,
        inst.targets,
        depth_cap=inst.makespan_limit,
        state_guard=state_guard,
    )
    if res.path is None:
        return None, res.states
    sched = Schedule(res.path[1:])
    return (sched.makespan, sched), res.states


def oracle_with_stats(
    inst: Instance,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """Exhaustive shortest-schedule search of the whole graph, the exact
    baseline, plus the explored-state count. The answer is None when no
    schedule meets the instance's makespan limit."""
    return _search(inst.graph, inst, state_guard)


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
    - trimmed search: one `joint_bfs` over every agent on the
      `kernel_graph` of the instance, each true-twin class trimmed to three
      vertices per agent, the agents' endpoints among them, each of its
      layers ending early when the two-turn finish from depth F - 2 finds
      a middle row. The graph keeps
      the instance's vertex ids, so the schedule found is the instance's
      own. Its state guard or byte budget raises ResourceLimitError when
      it trips. No step reads the distance to clique, so the chain runs
      at every distance."""
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
    return _search(kernel_graph(inst), inst, state_guard)
