from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .errors import PreconditionError
from .graphs import CliqueSplit, Graph
from .model import Instance

# kernel_graph keeps a vertex type whole when it has at most this many
# vertices per agent, and trims it to that many otherwise.
VERTICES_PER_CORE_AGENT = 3


def makespan_bound(dc: int) -> int:
    """Upper bound on optimal makespan of any feasible instance whose graph
    is dc vertex deletions from a clique: 3(2 dc + 2)^dc + 2.

    The paper's lemma, kept for the acceptance check; no search is capped
    by it, since the instance's makespan limit is the only search cap."""
    if dc < 0:
        raise PreconditionError("distance to clique cannot be negative")
    return 3 * (2 * dc + 2) ** dc + 2


@dataclass(frozen=True)
class VertexType:
    """Clique vertices with identical modulator neighborhoods; two such
    vertices have equal closed neighborhoods and are interchangeable."""

    type_id: int
    signature: FrozenSet[int]
    members: Tuple[int, ...]


def classify_types(inst: Instance, split: CliqueSplit) -> Tuple[VertexType, ...]:
    """Vertex types of the clique part, ordered by smallest member."""
    groups: Dict[FrozenSet[int], List[int]] = {}
    for v in sorted(split.clique):
        groups.setdefault(inst.graph.neighbor_set(v) & split.modulator, []).append(v)
    ordered = sorted(groups.items(), key=lambda item: item[1][0])
    return tuple(
        VertexType(tid, sig, tuple(vs)) for tid, (sig, vs) in enumerate(ordered)
    )


def kernel_graph(inst: Instance, split: CliqueSplit) -> Graph:
    """The instance's graph with each vertex type of the clique part
    trimmed: a type of at most VERTICES_PER_CORE_AGENT vertices per agent
    stays whole, and a larger one keeps the agents' endpoints in it, padded
    with its lowest other members to that budget. The modulator stays
    whole. The result keeps the instance's vertex ids and only the edges
    among the kept vertices, so every trimmed vertex is isolated; it is
    `inst.graph` itself when nothing is trimmed, which holds at once when
    the clique part has at most the budget's vertices."""
    budget = VERTICES_PER_CORE_AGENT * inst.n_agents
    if len(split.clique) <= budget:
        return inst.graph
    endpoints = set(inst.starts) | set(inst.targets)
    kept: Set[int] = set(split.modulator)
    for t in classify_types(inst, split):
        if len(t.members) <= budget:
            kept.update(t.members)
        else:
            fixed = [v for v in t.members if v in endpoints]
            pad = [v for v in t.members if v not in endpoints]
            kept.update(fixed + pad[: budget - len(fixed)])
    return inst.graph if len(kept) == inst.graph.n else inst.graph.restricted(kept)
