from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .errors import PreconditionError
from .graphs import CliqueSplit, Graph
from .model import Instance, Placement

# select_core_agents keeps every agent of an instance with at most this many.
KEEP_ALL_AGENTS = 100
# build_kernel keeps a vertex type whole when it has at most this many
# vertices per core agent, and trims it to that many otherwise; the type
# closure of select_core_agents absorbs the agents of such a type.
VERTICES_PER_CORE_AGENT = 3


def makespan_bound(dc: int) -> int:
    """Upper bound on optimal makespan of any feasible instance whose graph
    is dc vertex deletions from a clique: 3(2 dc + 2)^dc + 2.

    The paper's lemma, kept for the acceptance check; no search is capped
    by it, since the instance's makespan limit is the only search cap."""
    if dc < 0:
        raise PreconditionError("distance to clique cannot be negative")
    return 3 * (2 * dc + 2) ** dc + 2


def kappa(dc: int) -> int:
    """Per-type agent quota used when selecting core agents: (10 dc)^(dc+1),
    with kappa(0) = 0."""
    if dc < 0:
        raise PreconditionError("distance to clique cannot be negative")
    if dc == 0:
        return 0
    return (10 * dc) ** (dc + 1)


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
        sig = inst.graph.neighbor_set(v) & split.modulator
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
    not shrink the instance by at least half (or at KEEP_ALL_AGENTS agents
    or fewer).
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
            if members[tau] > VERTICES_PER_CORE_AGENT * len(chosen):
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
    if inst.n_agents <= max(2 * len(chosen), KEEP_ALL_AGENTS):
        return frozenset(inst.agents)
    return frozenset(chosen)


# --- the kernel itself -------------------------------------------------------


def kernel_is_instance(inst: Instance, split: CliqueSplit) -> bool:
    """Whether the kernel would be the instance itself: select_core_agents
    keeps every agent of an instance with at most KEEP_ALL_AGENTS, and each
    vertex type is a subset of the clique part, so build_kernel trims none
    when the clique part has at most VERTICES_PER_CORE_AGENT vertices per
    agent. build_kernel then returns `inst.graph` with the instance's own
    starts and targets, and its floor k = agents - |clique part| holds in
    every placement: an injective placement puts at most |clique part|
    agents in the clique part."""
    return (
        inst.n_agents <= KEEP_ALL_AGENTS
        and len(split.clique) <= VERTICES_PER_CORE_AGENT * inst.n_agents
    )


@dataclass(frozen=True)
class Kernel:
    """Reduced instance in the instance's own vertex ids: the modulator,
    plus per vertex type either the whole type or its core endpoints padded
    to three vertices per core agent. `graph` keeps only the edges among
    these `vertices`, so every other vertex is isolated; it is the
    instance's graph itself when no type was trimmed. Core agents keep
    their endpoints; k core agents must sit on the `modulator` every
    intermediate turn to leave room for the agents that were dropped."""

    graph: Graph
    core_agents: Tuple[int, ...]
    starts: Placement
    targets: Placement
    k: int
    vertices: FrozenSet[int]
    modulator: FrozenSet[int]


def build_kernel(
    inst: Instance,
    split: CliqueSplit,
    core: FrozenSet[int],
    types: Tuple[VertexType, ...],
) -> Kernel:
    """Kernel over the `core` agents, trimming each of the vertex `types`
    (from classify_types)."""
    core_sorted = tuple(sorted(core))
    starts = tuple(inst.starts[a] for a in core_sorted)
    targets = tuple(inst.targets[a] for a in core_sorted)
    endpoints = set(starts + targets)
    budget = VERTICES_PER_CORE_AGENT * len(core)
    kept: Set[int] = set(split.modulator)
    for t in types:
        if len(t.members) <= budget:
            kept.update(t.members)
        else:
            fixed = [v for v in t.members if v in endpoints]
            pad = [v for v in t.members if v not in endpoints]
            kept.update(fixed + pad[: budget - len(fixed)])
    graph = inst.graph if len(kept) == inst.graph.n else inst.graph.restricted(kept)
    k = max(0, inst.n_agents - len(split.clique))
    return Kernel(
        graph, core_sorted, starts, targets, k, frozenset(kept), split.modulator
    )
