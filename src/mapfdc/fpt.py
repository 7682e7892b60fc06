from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .cliques import solve_clique
from .engine import DEFAULT_STATE_GUARD, joint_bfs
from .errors import MapfError, PreconditionError
from .graphs import CliqueSplit, clique_split
from .kernelize import (
    Kernel,
    build_kernel,
    classify_types,
    kernel_search_bound,
    select_core_agents,
)
from .model import Instance, Placement, Schedule, detect_swaps, validate_schedule


def _config_search(
    kernel: Kernel, k: int, bound: int, state_guard: int
) -> Tuple[Optional[Schedule], int]:
    res = joint_bfs(
        kernel.graph,
        kernel.starts,
        kernel.targets,
        occupancy_vertices=sorted(kernel.modulator_kernel_ids),
        min_occupancy=k,
        depth_cap=bound,
        state_guard=state_guard,
    )
    if res.path is None:
        return None, res.states
    return Schedule(res.path[1:]), res.states


def config_shortest_schedule(
    kernel: Kernel,
    k: int,
    bound: int,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Optional[Schedule]:
    """Shortest kernel schedule within `bound` turns whose every placement
    besides start and target keeps at least k core agents on the modulator,
    or None when no such schedule exists."""
    sched, _ = _config_search(kernel, k, bound, state_guard)
    return sched


def _drift_matching(
    left: Sequence[int], right: Sequence[int], forbidden: Set[Tuple[int, int]]
) -> Dict[int, int]:
    """Perfect matching of `left` onto `right` (equal lengths) that avoids
    every `forbidden` (left vertex, right vertex) pair.

    Pairs `left[j]` with `right[-1 - j]`; where that pair is forbidden,
    `left[j]` trades partners with position j + 1, or with j - 1 at the last
    position. The trade is safe when there are at least two positions and no
    vertex is the left or the right end of two forbidden pairs (a lift frame
    forbids one move per core agent): `left[j]` gets a vertex other than its
    one forbidden partner, and the neighbour gets a vertex whose one
    forbidden partner is `left[j]`."""
    pick = list(reversed(right))
    last = len(pick) - 1
    for j, w in enumerate(left):
        if (w, pick[j]) in forbidden:
            o = j + 1 if j < last else j - 1
            pick[j], pick[o] = pick[o], pick[j]
    return dict(zip(left, pick))


def _fix_mutual_exchanges(match: Dict[int, int]) -> None:
    """Rewire pairs w1 -> y1, w2 -> y2 with y1 = w2 and y2 = w1 into the two
    stationary assignments. Such pairs are disjoint 2-cycles and rewiring one
    creates no other, so one pass removes them all."""
    for w in list(match):
        y = match[w]
        if y != w and match.get(y) == w:
            match[w] = w
            match[y] = y


def lift_schedule(
    inst: Instance,
    split: CliqueSplit,
    kernel: Kernel,
    ksched: Schedule,
) -> Schedule:
    """Extend a kernel schedule to every agent of the original instance.

    Core agents replay the kernel schedule; the dropped agents drift inside
    the clique part through per-turn assignments onto vertices the core
    leaves free, jump to their own targets in the final turn, and any swap
    that final jump creates is repaired afterwards."""
    core = set(kernel.core_agents)
    m = ksched.makespan
    back = kernel.u_vertices
    core_pl: List[Placement] = [
        tuple(back[v] for v in pl) for pl in ksched.placements
    ]
    if len(core) == inst.n_agents:
        return Schedule(tuple(core_pl))

    noncore = [a for a in inst.agents if a not in core]
    if len(noncore) <= max(len(core), 50):
        raise PreconditionError("dropped agents must outnumber max(core, 50)")
    if m < 1:
        raise PreconditionError("kernel schedule must have at least one turn")
    q = split.clique
    for a in noncore:
        if inst.starts[a] not in q or inst.targets[a] not in q:
            raise PreconditionError(
                "dropped agents must start and end in the clique part"
            )

    core_rows: List[Placement] = [tuple(back[v] for v in kernel.starts)] + core_pl
    free: List[List[int]] = []
    for row in core_rows:
        used = set(row)
        free.append(sorted(v for v in q if v not in used))

    cur: Dict[int, int] = {a: inst.starts[a] for a in noncore}
    out: List[Placement] = []
    core_sorted = kernel.core_agents
    for i in range(m - 1):
        occupied = sorted(cur.values())
        width = min(len(free[i]), len(free[i + 1]))
        occ_set = set(occupied)
        pad = [v for v in free[i] if v not in occ_set]
        left = sorted(occupied + pad[: width - len(occupied)])
        right = list(free[i + 1])[:width]
        forbidden: Set[Tuple[int, int]] = set()
        left_set = set(left)
        right_set = set(right)
        for ci in range(len(core_sorted)):
            w = core_rows[i + 1][ci]
            y = core_rows[i][ci]
            if w in left_set and y in right_set:
                forbidden.add((w, y))
        match = _drift_matching(left, right, forbidden)
        _fix_mutual_exchanges(match)
        for a in noncore:
            cur[a] = match[cur[a]]
        row = [0] * inst.n_agents
        for ci, a in enumerate(core_sorted):
            row[a] = core_rows[i + 1][ci]
        for a in noncore:
            row[a] = cur[a]
        out.append(tuple(row))
    out.append(inst.targets)
    partial = Schedule(tuple(out))
    return repair_final_swaps(inst, split, partial, frozenset(core))


def repair_final_swaps(
    inst: Instance,
    split: CliqueSplit,
    partial: Schedule,
    core: FrozenSet[int],
) -> Schedule:
    """Remove vertex exchanges between the second-to-last placement and the
    final (target) placement.

    Four or more offending pairs rotate among themselves, reordered first so
    the rotation itself stays swap-free; fewer pairs each borrow an
    uninvolved dropped agent and trade places with it, or, when no helper
    is eligible, step aside to a spare clique vertex that is free in the
    last three placements. The second-to-last turn is rewritten in place."""
    m = partial.makespan
    prev = partial.placements[m - 2] if m >= 2 else inst.starts
    final = partial.placements[m - 1]
    offenders = detect_swaps(prev, final)
    if not offenders:
        return partial
    if m < 2:
        raise PreconditionError("cannot repair a single-turn schedule")
    before = partial.placements[m - 3] if m >= 3 else inst.starts

    betas: List[int] = []
    involved: Set[int] = set()
    for a, b in offenders:
        involved.add(a)
        involved.add(b)
        if b not in core:
            betas.append(b)
        elif a not in core:
            betas.append(a)
        else:
            raise PreconditionError("an offending pair lies entirely in the core")
    p = len(betas)
    new_prev = list(prev)
    at_before = {v: a for a, v in enumerate(before)}

    if p >= 4:
        def is_bad(j: int, order: List[int]) -> bool:
            nxt = order[(j + 1) % p]
            delta = at_before.get(prev[nxt])
            return delta is not None and prev[delta] == before[order[j]]

        def bad_count(candidate: List[int]) -> int:
            return sum(1 for j in range(p) if is_bad(j, candidate))

        order = betas[:]
        while True:
            bads = [j for j in range(p) if is_bad(j, order)]
            if not bads:
                break
            j = bads[0]
            cand = order[:]
            cand[j], cand[(j + 1) % p] = cand[(j + 1) % p], cand[j]
            if bad_count(cand) < len(bads):
                order = cand
            else:
                cand = order[:]
                a, b = (j + 1) % p, (j + 2) % p
                cand[a], cand[b] = cand[b], cand[a]
                if bad_count(cand) >= len(bads):
                    raise MapfError("cannot reorder offenders into a clean rotation")
                order = cand
        for j in range(p):
            new_prev[order[j]] = prev[order[(j + 1) % p]]
    else:
        pool = sorted(a for a in inst.agents if a not in core and a not in involved)
        beta_prev = {prev[b] for b in betas}
        beta_before = {before[b] for b in betas}
        spares = iter(sorted(split.clique.difference(before, prev, final)))
        helper_of: Dict[int, int] = {}
        for beta in betas:
            pick = None
            for g in pool:
                if g in helper_of.values():
                    continue
                # g and beta trade prev vertices; skip g when either would
                # exchange with the agent that stood on its new vertex
                c = at_before.get(prev[beta])
                if c is not None and prev[c] == before[g]:
                    continue
                c = at_before.get(prev[g])
                if c is not None and prev[c] == before[beta]:
                    continue
                if before[g] in beta_prev:
                    continue
                if prev[g] in beta_before:
                    continue
                if any(
                    before[g] == prev[h] or prev[g] == before[h]
                    for h in helper_of.values()
                ):
                    continue
                if before[g] == prev[g] and before[beta] == prev[beta]:
                    continue
                pick = g
                break
            if pick is None:
                spare = next(spares, None)
                if spare is None:
                    raise MapfError("no eligible helper agent for final-turn repair")
                new_prev[beta] = spare
                continue
            helper_of[beta] = pick
        for beta, g in helper_of.items():
            new_prev[beta] = prev[g]
            new_prev[g] = prev[beta]

    row = tuple(new_prev)
    if detect_swaps(before, row) or detect_swaps(row, final):
        raise MapfError("final-turn repair left an exchange in place")
    fixed = list(partial.placements)
    fixed[m - 2] = row
    return Schedule(tuple(fixed))


def _within_limit(inst: Instance, sched: Schedule) -> Optional[Tuple[int, Schedule]]:
    """Optimal schedule, or None when even the optimum breaks the limit."""
    if inst.makespan_limit is not None and sched.makespan > inst.makespan_limit:
        return None
    return sched.makespan, sched


def solve_with_stats(
    inst: Instance,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Tuple[Optional[Tuple[int, Schedule]], int]:
    """Exact optimal solve parameterized by distance to clique, plus the
    kernel-search state count (0 when no search ran).

    Splits off a minimum modulator, routes complete graphs to the
    constant-makespan solver, and otherwise searches the kernel instance
    under the occupancy constraint, lifting the kernel schedule back to all
    agents when some were dropped."""
    if inst.starts == inst.targets:
        return (0, Schedule(())), 0
    split = clique_split(inst.graph)
    if not split.modulator and inst.graph.n >= 4:
        return solve_clique(inst), 0
    types, agent_types = classify_types(inst, split)
    core = select_core_agents(inst, split, types, agent_types)
    kernel = build_kernel(inst, split, core, types)
    bound = kernel_search_bound(inst, split)
    ksched, states = _config_search(kernel, kernel.k, bound, state_guard)
    if ksched is None:
        return None, states
    if len(core) < inst.n_agents and ksched.makespan < 2:
        direct = Schedule((inst.targets,))
        if validate_schedule(inst, direct).ok:
            return _within_limit(inst, direct), states
        ksched = Schedule(
            ksched.placements + (kernel.targets,) * (2 - ksched.makespan)
        )
    lifted = lift_schedule(inst, split, kernel, ksched)
    return _within_limit(inst, lifted), states


def solve_fpt(
    inst: Instance,
    state_guard: int = DEFAULT_STATE_GUARD,
) -> Optional[Tuple[int, Schedule]]:
    """solve_with_stats without the state count."""
    result, _ = solve_with_stats(inst, state_guard)
    return result
