from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .cliques import solve_clique, solve_clique_anonymous
from .errors import PreconditionError, ResourceLimitError
from .graphs import CliqueSplit, Graph
from .model import Instance, Placement, Schedule, Verdict, _validate_turns

_PARAM_CEILING = 12


def makespan_bound(dc: int) -> int:
    """Upper bound on optimal makespan of any feasible instance whose graph
    is dc vertex deletions from a clique: 3(2 dc + 2)^dc + 2."""
    if dc < 0:
        raise PreconditionError("distance to clique cannot be negative")
    if dc > _PARAM_CEILING:
        raise ResourceLimitError(f"distance to clique {dc} exceeds supported ceiling {_PARAM_CEILING}")
    return 3 * (2 * dc + 2) ** dc + 2


def kappa(dc: int) -> int:
    """Per-type agent quota used when selecting core agents: (10 dc)^(dc+1),
    with kappa(0) = 0."""
    if dc < 0:
        raise PreconditionError("distance to clique cannot be negative")
    if dc > _PARAM_CEILING:
        raise ResourceLimitError(f"distance to clique {dc} exceeds supported ceiling {_PARAM_CEILING}")
    if dc == 0:
        return 0
    return (10 * dc) ** (dc + 1)


# --- partially anonymous instances ----------------------------------------


@dataclass(frozen=True)
class PamapfInstance:
    """Instance where agents that never interact with the modulator are
    anonymous: they must collectively cover `anon_target_set`, any one of
    them on any one vertex. Schedule placements list named agents first
    (ascending original id), then anonymous agents (ascending original id).
    `anon_true_targets` retains the concrete assignment the anonymous agents
    had before the relaxation, for later reconciliation."""

    graph: Graph
    named_ids: Tuple[int, ...]
    named_starts: Tuple[int, ...]
    named_targets: Tuple[int, ...]
    anon_ids: Tuple[int, ...]
    anon_starts: Tuple[int, ...]
    anon_true_targets: Tuple[int, ...]

    @property
    def anon_target_set(self) -> FrozenSet[int]:
        return frozenset(self.anon_true_targets)

    @property
    def n_agents(self) -> int:
        return len(self.named_ids) + len(self.anon_ids)

    @property
    def starts(self) -> Placement:
        return self.named_starts + self.anon_starts


def _named_and_anonymous(
    inst: Instance, split: CliqueSplit
) -> Tuple[List[int], List[int]]:
    """Agents with an endpoint on the modulator stay named and the rest turn
    anonymous, unless fewer than four would (then everyone is named)."""
    m = split.modulator
    named: List[int] = []
    anon: List[int] = []
    for a in inst.agents:
        if inst.starts[a] in m or inst.targets[a] in m:
            named.append(a)
        else:
            anon.append(a)
    if len(anon) < 4:
        return list(inst.agents), []
    return named, anon


def kernel_search_bound(inst: Instance, split: CliqueSplit) -> int:
    """Makespan cap for the kernel search: max(makespan_bound(dc),
    3 (named + 2)^dc + a), where a is 2 when some agent is anonymous and 0
    otherwise, with agents named or anonymous as in build_pamapf."""
    named, anon = _named_and_anonymous(inst, split)
    named_bound = 3 * (len(named) + 2) ** split.dc + (2 if anon else 0)
    return max(makespan_bound(split.dc), named_bound)


def build_pamapf(inst: Instance, split: CliqueSplit) -> PamapfInstance:
    """Anonymize the agents with both endpoints off the modulator, unless
    fewer than four agents would stay anonymous (then nobody is)."""
    named, anon = _named_and_anonymous(inst, split)
    return PamapfInstance(
        inst.graph,
        tuple(named),
        tuple(inst.starts[a] for a in named),
        tuple(inst.targets[a] for a in named),
        tuple(anon),
        tuple(inst.starts[a] for a in anon),
        tuple(inst.targets[a] for a in anon),
    )


def validate_pamapf_schedule(pam: PamapfInstance, sched: Schedule) -> Verdict:
    """Like validate_schedule, but anonymous agents only need to end on the
    anonymous target set."""
    starts = pam.starts
    bad = _validate_turns(pam.graph, starts, sched.placements)
    if bad is not None:
        return bad
    final = sched.final(starts)
    m = sched.makespan
    nn = len(pam.named_ids)
    for i in range(nn):
        if final[i] != pam.named_targets[i]:
            return Verdict(
                False, "target", m, (pam.named_ids[i],),
                f"named agent {pam.named_ids[i]} ends on {final[i]}, "
                f"target is {pam.named_targets[i]}",
            )
    got = set(final[nn:])
    want = set(pam.anon_target_set)
    if got != want:
        return Verdict(
            False, "target", m, (),
            f"anonymous agents end on {sorted(got)}, target set is {sorted(want)}",
        )
    return Verdict(True)


def extend_pamapf_solution(
    pam: PamapfInstance, sched: Schedule, split: CliqueSplit
) -> Schedule:
    """Append at most two turns that move each anonymous agent from wherever
    it landed on the target set to its concrete pre-anonymization target.
    Named agents hold still. Anonymous targets must lie in the clique part
    and number zero or at least four."""
    nn = len(pam.named_ids)
    na = len(pam.anon_ids)
    if na == 0:
        return sched
    if na < 4:
        raise PreconditionError("anonymous block must be empty or have >= 4 agents")
    tset = pam.anon_target_set
    if not tset <= split.clique:
        raise PreconditionError("anonymous targets must avoid the modulator")
    final = sched.final(pam.starts)
    if set(final[nn:]) != set(tset):
        raise PreconditionError("schedule does not end on the anonymous target set")
    sub, old_ids = pam.graph.induced(sorted(tset))
    to_sub = {v: i for i, v in enumerate(old_ids)}
    inner = Instance(
        sub,
        tuple(to_sub[v] for v in final[nn:]),
        tuple(to_sub[v] for v in pam.anon_true_targets),
    )
    result = solve_clique(inner)
    assert result is not None
    _, inner_sched = result
    out = list(sched.placements)
    for pl in inner_sched.placements:
        row = list(final)
        for j in range(na):
            row[nn + j] = old_ids[pl[j]]
        out.append(tuple(row))
    return Schedule(tuple(out))


# --- schedule compression ---------------------------------------------------


def placement_type_key(
    pam: PamapfInstance, placement: Placement, modulator: FrozenSet[int]
) -> Tuple[int, ...]:
    """Who stands where on the modulator: per modulator vertex (ascending),
    the named agent's original id, -2 for an anonymous agent, -1 for empty."""
    occ: Dict[int, int] = {}
    nn = len(pam.named_ids)
    for i, v in enumerate(placement):
        if v in modulator:
            occ[v] = pam.named_ids[i] if i < nn else -2
    return tuple(occ.get(v, -1) for v in sorted(modulator))


def compress_schedule(
    pam: PamapfInstance, split: CliqueSplit, sched: Schedule
) -> Schedule:
    """Shorten a feasible schedule until no modulator occupancy pattern
    repeats more than three times.

    While some pattern occurs over three times, the stretch between its
    first and last occurrence is replaced: agents inside the clique part are
    re-routed in at most two turns (named ones back to where the stretch
    ends, anonymous ones to the vacated vertex set), modulator occupants
    hold still, and the tail is reattached with anonymous roles swapped to
    whoever actually stands where the old tail expects someone."""
    if len(split.clique) < 4:
        raise PreconditionError("clique part must have at least 4 vertices")
    nn = len(pam.named_ids)
    n = pam.n_agents
    q = split.clique
    mod = split.modulator
    seq: List[Placement] = [pam.starts] + list(sched.placements)

    while True:
        keys = [placement_type_key(pam, pl, mod) for pl in seq]
        counts: Dict[Tuple[int, ...], int] = {}
        for k in keys:
            counts[k] = counts.get(k, 0) + 1
        pick: Optional[Tuple[int, ...]] = None
        for k in keys:
            if counts[k] > 3:
                pick = k
                break
        if pick is None:
            break
        p = keys.index(pick)
        qi = len(keys) - 1 - keys[::-1].index(pick)

        sub, old_ids = pam.graph.induced(sorted(q))
        to_sub = {v: i for i, v in enumerate(old_ids)}
        named_inner: Dict[int, Tuple[int, int]] = {}
        for i in range(n):
            if seq[p][i] in q and i < nn:
                named_inner[i] = (to_sub[seq[p][i]], to_sub[seq[qi][i]])
        anon_in = sorted(
            (i for i in range(nn, n) if seq[p][i] in q),
            key=lambda i: seq[p][i],
        )
        anon_targets_inner = sorted(
            to_sub[seq[qi][i]] for i in range(nn, n) if seq[qi][i] in q
        )
        inner = solve_clique_anonymous(
            sub,
            named_inner,
            [to_sub[seq[p][i]] for i in anon_in],
            anon_targets_inner,
        )
        inner_keys = sorted(named_inner)
        inserted: List[Placement] = []
        for pl in inner.placements:
            row = list(seq[p])
            for j, i in enumerate(inner_keys):
                row[i] = old_ids[pl[j]]
            for j, i in enumerate(anon_in):
                row[i] = old_ids[pl[len(inner_keys) + j]]
            inserted.append(tuple(row))

        joint = inserted[-1] if inserted else seq[p]
        at_q: Dict[int, int] = {v: i for i, v in enumerate(seq[qi])}
        role: List[int] = list(range(n))
        for i in range(nn, n):
            role[i] = at_q[joint[i]]
        tail = [
            tuple(pl[role[i]] for i in range(n)) for pl in seq[qi + 1 :]
        ]
        new_seq = seq[: p + 1] + inserted + tail
        assert len(new_seq) < len(seq)
        seq = new_seq
    return Schedule(tuple(seq[1:]))


# --- vertex and agent types -------------------------------------------------


@dataclass(frozen=True)
class VertexType:
    """Clique vertices with identical modulator neighborhoods; two such
    vertices have equal closed neighborhoods and are interchangeable."""

    type_id: int
    signature: FrozenSet[int]
    members: Tuple[int, ...]


def classify_types(
    inst: Instance, split: CliqueSplit
) -> Tuple[Tuple[VertexType, ...], Dict[int, Tuple[int, int]]]:
    """Vertex types of the clique part, ordered by smallest member, plus a
    map from each agent with both endpoints off the modulator to its
    (start type, target type). Agents touching the modulator are absent
    from the map."""
    sig_of: Dict[int, FrozenSet[int]] = {}
    groups: Dict[FrozenSet[int], List[int]] = {}
    for v in sorted(split.clique):
        sig = frozenset(w for w in inst.graph.neighbors(v) if w in split.modulator)
        sig_of[v] = sig
        groups.setdefault(sig, []).append(v)
    ordered = sorted(groups.values(), key=lambda vs: vs[0])
    types = tuple(
        VertexType(tid, sig_of[vs[0]], tuple(vs)) for tid, vs in enumerate(ordered)
    )
    type_of: Dict[int, int] = {}
    for t in types:
        for v in t.members:
            type_of[v] = t.type_id
    agent_types: Dict[int, Tuple[int, int]] = {}
    for a in inst.agents:
        s, t = inst.starts[a], inst.targets[a]
        if s in split.modulator or t in split.modulator:
            continue
        agent_types[a] = (type_of[s], type_of[t])
    return types, agent_types


def select_core_agents(
    inst: Instance,
    split: CliqueSplit,
    types: Tuple[VertexType, ...],
    agent_types: Dict[int, Tuple[int, int]],
) -> FrozenSet[int]:
    """Agents whose motion the kernel search models explicitly.

    Seeds every modulator-touching agent plus a per-(start type, target
    type) quota of the others, then closes under vertex types that are
    scarce relative to the chosen set; keeps everyone when the result would
    not shrink the instance by at least half (or below 100 agents).
    `types` and `agent_types` are the two parts of classify_types."""
    quota = kappa(split.dc)
    touching = sorted(a for a in inst.agents if a not in agent_types)
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for a in sorted(agent_types):
        by_pair.setdefault(agent_types[a], []).append(a)
    chosen: Set[int] = set(touching)
    for pair in sorted(by_pair):
        chosen.update(by_pair[pair][:quota])

    members = {t.type_id: len(t.members) for t in types}
    while True:
        grew = False
        for tau in sorted(members):
            if members[tau] > 3 * len(chosen):
                continue
            x_tau = {
                a
                for a, (s_t, t_t) in agent_types.items()
                if s_t == tau or t_t == tau
            }
            if not x_tau <= chosen:
                chosen |= x_tau
                grew = True
                break
        if not grew:
            break
    if inst.n_agents <= max(2 * len(chosen), 100):
        return frozenset(inst.agents)
    return frozenset(chosen)


# --- the kernel itself -------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Reduced instance: the modulator, plus per vertex type either the whole
    type or its core endpoints padded to three vertices per core agent.
    Core agents keep their original endpoints, reindexed; k core agents must
    sit on the modulator every intermediate turn to leave room for the
    agents that were dropped."""

    graph: Graph
    core_agents: Tuple[int, ...]
    starts: Placement
    targets: Placement
    k: int
    u_vertices: Tuple[int, ...]
    modulator_kernel_ids: FrozenSet[int]
    kept_by_type: Tuple[Tuple[int, Tuple[int, ...]], ...]


def build_kernel(
    inst: Instance,
    split: CliqueSplit,
    core: FrozenSet[int],
    types: Tuple[VertexType, ...],
) -> Kernel:
    """Kernel over the `core` agents, trimming each of the vertex `types`
    (from classify_types)."""
    core_sorted = tuple(sorted(core))
    endpoints = set()
    for a in core_sorted:
        endpoints.add(inst.starts[a])
        endpoints.add(inst.targets[a])
    budget = 3 * len(core)
    kept: List[Tuple[int, Tuple[int, ...]]] = []
    u: Set[int] = set(split.modulator)
    for t in types:
        if len(t.members) <= budget:
            take = t.members
        else:
            fixed = [v for v in t.members if v in endpoints]
            pad = [v for v in t.members if v not in endpoints]
            take = tuple(sorted(fixed + pad[: budget - len(fixed)]))
        kept.append((t.type_id, take))
        u.update(take)
    u_sorted = tuple(sorted(u))
    sub, old_ids = inst.graph.induced(u_sorted)
    to_sub = {v: i for i, v in enumerate(old_ids)}
    starts = tuple(to_sub[inst.starts[a]] for a in core_sorted)
    targets = tuple(to_sub[inst.targets[a]] for a in core_sorted)
    k = max(0, inst.n_agents - len(split.clique))
    return Kernel(
        sub,
        core_sorted,
        starts,
        targets,
        k,
        old_ids,
        frozenset(to_sub[v] for v in split.modulator),
        tuple(kept),
    )
