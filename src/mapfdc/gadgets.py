from __future__ import annotations

import random
from itertools import islice
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .errors import PreconditionError
from .graphs import Graph, clique_split
from .model import (
    ColoredGroup,
    ColoredInstance,
    Instance,
    Placement,
    Schedule,
)

# --- gadget registry ---------------------------------------------------------


@dataclass(frozen=True)
class GadgetRegistry:
    """Name table for generated instances: structural vertex names and named
    agent groups, so schedules and proofs can be written against roles
    rather than raw ids."""

    vertices: Dict[str, int] = field(default_factory=dict)
    agent_groups: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def vertex(self, name: str) -> int:
        return self.vertices[name]

    def agents(self, name: str) -> Tuple[int, ...]:
        return self.agent_groups[name]


def serialize_registry(reg: GadgetRegistry) -> str:
    out = []
    for name, vid in reg.vertices.items():
        out.append(f"name {name} vertex {vid}")
    for name, ids in reg.agent_groups.items():
        out.append(f"name {name} agents " + " ".join(str(a) for a in ids))
    return "\n".join(out) + "\n"


class _Builder:
    """Incremental graph/agent assembly with registry bookkeeping."""

    def __init__(self) -> None:
        self.edges: List[Tuple[int, int]] = []
        self.n = 0
        self.starts: List[int] = []
        self.targets: List[int] = []
        self.vertices: Dict[str, int] = {}
        self.agent_groups: Dict[str, Tuple[int, ...]] = {}

    def vertex(self, name: str) -> int:
        vid = self.n
        self.n += 1
        self.vertices[name] = vid
        return vid

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def agent(self, start: int, target: int) -> int:
        aid = len(self.starts)
        self.starts.append(start)
        self.targets.append(target)
        return aid

    def group(self, name: str, ids: Sequence[int]) -> None:
        self.agent_groups[name] = tuple(ids)

    def finish(self, limit: int) -> Tuple[Instance, GadgetRegistry]:
        inst = Instance(
            Graph(self.n, self.edges),
            tuple(self.starts),
            tuple(self.targets),
            limit,
        )
        return inst, GadgetRegistry(self.vertices, self.agent_groups)


# --- numeric three-partition reduction ---------------------------------------


@dataclass(frozen=True)
class ThreePartitionSpec:
    """Scaled three-partition input: 3n values, each strictly between a
    quarter and half of the common triple sum phi, so any triple summing to
    phi has exactly three members."""

    n: int
    betas: Tuple[int, ...]
    phi: int

    @property
    def goal(self) -> int:
        return self.n * self.phi + 3 * self.n


def preprocess_three_partition(raw: Sequence[int]) -> ThreePartitionSpec:
    """Scale and shift raw item sizes into the strict range (phi/4, phi/2):
    each value beta becomes 6(beta + 2*phi_raw)."""
    if len(raw) % 3 != 0 or not raw:
        raise PreconditionError("item count must be a positive multiple of 3")
    n = len(raw) // 3
    if n < 2:
        raise PreconditionError("need at least 6 items")
    total = sum(raw)
    if total % n != 0:
        raise PreconditionError("item sum must split evenly into triples")
    if min(raw) < 1:
        raise PreconditionError("item sizes must be positive")
    phi_raw = total // n
    betas = tuple(6 * (b + 2 * phi_raw) for b in raw)
    phi = sum(betas) // n
    for b in betas:
        if not (4 * b > phi and 2 * b < phi):
            raise PreconditionError("scaled item falls outside (phi/4, phi/2)")
    return ThreePartitionSpec(n, betas, phi)


def _red_edge(
    b: _Builder, prefix: str, hub: int, size: int, pre_placed: bool
) -> None:
    """Attach `size` leaves to `hub` with agents cycling one leaf onward.
    With pre_placed the first agent starts on the hub itself and its leaf
    stays empty."""
    leaves = []
    for i in range(1, size + 1):
        v = b.vertex(f"{prefix}.v{i}")
        b.edge(hub, v)
        leaves.append(v)
    ids = []
    for i in range(size):
        start = hub if (pre_placed and i == 0) else leaves[i]
        target = leaves[(i + 1) % size]
        ids.append(b.agent(start, target))
    b.group(f"agents.{prefix}", ids)


def build_three_partition_instance(
    spec: ThreePartitionSpec,
) -> Tuple[Instance, GadgetRegistry]:
    """Tree instance whose optimal makespan hits the limit exactly when the
    scaled items admit a partition into triples of equal sum.

    Two chained stars of rotating agents pin down when their shared exit
    vertices are free; traveler agents thread those windows, and bow-tie
    agents burn every other turn on the remaining gate vertices."""
    n = spec.n
    ell = spec.goal
    b = _Builder()
    u1, u2, u3, u4, u5, u6, u7, u8, u9 = [b.vertex(f"u{i}") for i in range(1, 10)]
    for a, c in ((u1, u2), (u2, u3), (u3, u4), (u4, u5), (u2, u6), (u2, u8), (u2, u9), (u4, u7)):
        b.edge(a, c)

    for j, size in enumerate(spec.betas, start=1):
        _red_edge(b, f"r1.g{j}", u1, size, pre_placed=(j == 1))

    z = [spec.phi] + [spec.phi + 2] * (n - 2) + [spec.phi + 4]
    for j, size in enumerate(z, start=1):
        _red_edge(b, f"r7.g{j}", u7, size, pre_placed=(j == 1))

    _leaf_agents(b, "agents.ax", (u5, u6), ("xplus.", "xminus."), 2 * n - 2)
    _leaf_agents(b, "agents.ay", (u8, u9), ("yplus.", "yminus."), 4 * n)
    s_x = ell - 1 - (2 * n - 2)
    s_y = ell - 1 - 4 * n
    for hub, size in (("u3", s_x), ("u5", s_x), ("u6", s_x), ("u8", s_y), ("u9", s_y)):
        v, bow = b.vertices[hub], f"bow.{hub}"
        _leaf_agents(b, f"agents.{bow}", (v, v), (f"{bow}.in", f"{bow}.out"), size)
    return b.finish(ell)


def _leaf_agents(
    b: _Builder, group: str, hubs: Tuple[int, int], names: Tuple[str, str], count: int
) -> None:
    """`count` leaves named names[0] + "1".. on hubs[0], then as many named
    names[1] + "1".. on hubs[1], and one agent from the i-th leaf of the
    first row to the i-th of the second."""
    rows = [[b.vertex(f"{name}{i}") for i in range(1, count + 1)] for name in names]
    for hub, row in zip(hubs, rows):
        for v in row:
            b.edge(hub, v)
    b.group(group, [b.agent(s, t) for s, t in zip(*rows)])


def _star_moves(
    moves: Dict[int, List[Tuple[int, int]]],
    agent_ids: Sequence[int],
    starts: Placement,
    targets: Placement,
    hub: int,
    w: int,
    tau: int,
    size: int,
    pre_placed: bool,
) -> None:
    """Itinerary of one rotating star group launched at tau: the lead agent
    camps on the neighbor w while the others relay through the hub."""
    lead = agent_ids[0]
    if not pre_placed:
        moves.setdefault(tau + 1, []).append((lead, hub))
    moves.setdefault(tau + 2, []).append((lead, w))
    moves.setdefault(tau + size + 1, []).append((lead, hub))
    moves.setdefault(tau + size + 2, []).append((lead, targets[lead]))
    for i in range(size, 1, -1):
        a = agent_ids[i - 1]
        at_hub = tau + (size - i) + 2
        moves.setdefault(at_hub, []).append((a, hub))
        moves.setdefault(at_hub + 1, []).append((a, targets[a]))


def three_partition_forward_schedule(
    spec: ThreePartitionSpec,
    inst: Instance,
    reg: GadgetRegistry,
    partition: Sequence[Sequence[int]],
) -> Schedule:
    """Schedule of makespan exactly the limit, built from a certificate
    partition (triples of 1-based item indices with equal sums)."""
    n = spec.n
    ell = spec.goal
    seen: Set[int] = set()
    for triple in partition:
        if len(triple) != 3:
            raise PreconditionError("certificate groups must be triples")
        for idx in triple:
            if not (1 <= idx <= 3 * n) or idx in seen:
                raise PreconditionError("certificate is not a permutation of the items")
            seen.add(idx)
        if sum(spec.betas[i - 1] for i in triple) != spec.phi:
            raise PreconditionError("certificate triple does not sum to phi")
    if len(seen) != 3 * n:
        raise PreconditionError("certificate does not cover all items")

    triples = [list(t) for t in partition]
    first = next(i for i, t in enumerate(triples) if 1 in t)
    lead_triple = triples.pop(first)
    lead_triple.remove(1)
    order = [1] + sorted(lead_triple)
    for t in triples:
        order.extend(t)

    u = {name: reg.vertex(name) for name in (f"u{i}" for i in range(1, 10))}
    moves: Dict[int, List[Tuple[int, int]]] = {}

    tau = -1
    for pos, j in enumerate(order):
        size = spec.betas[j - 1]
        ids = reg.agents(f"agents.r1.g{j}")
        _star_moves(
            moves, ids, inst.starts, inst.targets,
            u["u1"], u["u2"], tau, size, pre_placed=(pos == 0),
        )
        tau = tau + size + 1

    z = [spec.phi] + [spec.phi + 2] * (n - 2) + [spec.phi + 4]
    tau = -1
    for j, size in enumerate(z, start=1):
        ids = reg.agents(f"agents.r7.g{j}")
        _star_moves(
            moves, ids, inst.starts, inst.targets,
            u["u7"], u["u4"], tau, size, pre_placed=(j == 1),
        )
        tau = tau + size + 1

    gate_busy: Dict[int, Set[int]] = {
        u["u3"]: set(), u["u5"]: set(), u["u6"]: set(), u["u8"]: set(), u["u9"]: set(),
    }

    ax = reg.agents("agents.ax")
    path_x = (u["u5"], u["u4"], u["u3"], u["u2"], u["u6"])
    for i in range(1, n):
        for slot in range(2):
            a = ax[2 * (i - 1) + slot]
            tau = i * (spec.phi + 3) - 5 + slot
            for step, v in enumerate(path_x, start=1):
                moves.setdefault(tau + step, []).append((a, v))
            moves.setdefault(tau + 6, []).append((a, inst.targets[a]))
            gate_busy[u["u5"]].add(tau + 1)
            gate_busy[u["u3"]].add(tau + 3)
            gate_busy[u["u6"]].add(tau + 5)

    ay = reg.agents("agents.ay")
    sizes_in_order = [spec.betas[j - 1] for j in order]
    prefix = 0
    launches: List[int] = []
    for j, size in enumerate(sizes_in_order, start=1):
        prefix += size
        if j % 3 != 0 and j < 3 * n:
            launches.append(prefix + j - 3)
            launches.append(prefix + j - 2)
    path_y = (u["u8"], u["u2"], u["u9"])
    for a, tau in zip(ay, launches, strict=True):
        for step, v in enumerate(path_y, start=1):
            moves.setdefault(tau + step, []).append((a, v))
        moves.setdefault(tau + 4, []).append((a, inst.targets[a]))
        gate_busy[u["u8"]].add(tau + 1)
        gate_busy[u["u9"]].add(tau + 3)

    for hub_name in ("u3", "u5", "u6", "u8", "u9"):
        hub = u[hub_name]
        ids = reg.agents(f"agents.bow.{hub_name}")
        free = [g for g in range(1, ell) if g not in gate_busy[hub]]
        for a, g in zip(ids, free, strict=True):
            moves.setdefault(g, []).append((a, hub))
            moves.setdefault(g + 1, []).append((a, inst.targets[a]))

    placements: List[Placement] = []
    cur = list(inst.starts)
    for t in range(1, ell + 1):
        for a, v in moves.get(t, ()):
            cur[a] = v
        placements.append(tuple(cur))
    return Schedule(tuple(placements))


# --- pancake sorting reduction ------------------------------------------------


@dataclass(frozen=True)
class PancakeLayout:
    n: int
    n_plus: int
    flips: int
    length: int


def _pancake_layout(n: int, flips: int) -> PancakeLayout:
    if n < 1:
        raise PreconditionError("need at least one pancake")
    if flips < 1:
        raise PreconditionError("need at least one flip")
    n_plus = n + 2
    return PancakeLayout(n, n_plus, flips, 3 * n_plus * flips)


def pancake_trivial_yes(n: int, flips: int) -> bool:
    """Budgets past the worst-case flip count make every instance solvable."""
    return flips > -(-18 * n // 11)


def _aux_plan(lay: PancakeLayout) -> List[Tuple[str, str, str]]:
    """(group, start name, target name) per auxiliary agent, in agent order.
    Every residue window sends one family across its junction so the shared
    entry vertex is busy for exactly one phase per round."""
    big_l = lay.length
    np3 = 3 * lay.n_plus
    plan: List[Tuple[str, str, str]] = []
    for i in range(1, big_l + 1):
        r = i % np3
        cross = lay.n_plus * 2 <= r < np3
        plan.append(("bb", f"ub.{-i}", f"vb.{big_l - i}" if cross else f"ub.{big_l - i}"))
    for i in range(1, big_l + 1):
        r = i % np3
        cross = r < lay.n_plus
        plan.append(("bc", f"uc.{-i}", f"vc.{big_l - i}" if cross else f"uc.{big_l - i}"))
    for i in range(1, big_l + 1):
        r = i % np3
        cross = lay.n_plus <= r < 2 * lay.n_plus
        plan.append(("ba1", f"ua.{-i}", f"wa.{big_l - i}" if cross else f"ua.{big_l - i}"))
    for i in range(1, big_l + 1):
        r = i % np3
        if not (lay.n_plus <= r < 2 * lay.n_plus):
            plan.append(("ba2", f"wa.{-i}", f"wa.{big_l - i}"))
    return plan


def _pancake_builder(
    lay: PancakeLayout, primaries: Sequence[Tuple[str, Iterable[Tuple[int, int]]]]
) -> _Builder:
    """The pancake tree; then, per (name, slot pairs) of `primaries`, the
    agent group agents.<name> with one agent from va.<s> to va.<t> per pair;
    then the timer families agents.bb, .bc, .ba1 and .ba2 in `_aux_plan`
    order."""
    big_l = lay.length
    b = _Builder()
    vstar = b.vertex("vstar")
    va = [b.vertex(f"va.{i}") for i in range(lay.n + 1)]
    vb = [b.vertex(f"vb.{i}") for i in range(big_l + 1)]
    vc = [b.vertex(f"vc.{i}") for i in range(big_l + 1)]
    for row in (va, vb, vc):
        b.edge(vstar, row[0])
        for x, y in zip(row, row[1:]):
            b.edge(x, y)
    for prefix, attach_to, attach_at in (
        ("ua", va[0], -1),
        ("wa", va[0], 1),
        ("ub", vb[0], -1),
        ("uc", vc[0], -1),
    ):
        row = [b.vertex(f"{prefix}.{j}") for j in range(-big_l, big_l + 1)]
        for x, y in zip(row, row[1:]):
            b.edge(x, y)
        b.edge(attach_to, row[attach_at + big_l])
    for name, pairs in primaries:
        b.group(f"agents.{name}", [b.agent(va[s], va[t]) for s, t in pairs])
    timers: Dict[str, List[int]] = {"bb": [], "bc": [], "ba1": [], "ba2": []}
    for gname, s, t in _aux_plan(lay):
        timers[gname].append(b.agent(b.vertices[s], b.vertices[t]))
    for gname, ids in timers.items():
        b.group(f"agents.{gname}", ids)
    return b


def build_pancake_instance(
    perm: Sequence[int], flips: int
) -> Tuple[Instance, GadgetRegistry]:
    """Tree instance whose makespan limit a schedule meets when the
    permutation sorts with the given number of prefix reversals:
    `pancake_forward_schedule` builds that witness. The converse does not
    hold yet: some unsortable permutations, such as (2, 3, 1) at flips 1,
    also have schedules within the limit (ROADMAP.md lists those found).

    Pancake agents sit on a short path; timer agents stream along four long
    paths and across three junction vertices, leaving each junction usable
    only during the phase of each round that its role allows."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise PreconditionError("not a permutation of 1..n")
    lay = _pancake_layout(n, flips)
    pos_of = {p: i + 1 for i, p in enumerate(perm)}
    primary = [(pos_of[p], p) for p in range(1, n + 1)]
    return _pancake_builder(lay, [("primary", primary)]).finish(lay.length)


def build_colored_pancake_instance(
    alpha: Sequence[int], beta: Sequence[int], flips: int
) -> Tuple[ColoredInstance, GadgetRegistry]:
    """Colored variant: pancakes are interchangeable within a symbol class,
    so the goal is transforming one binary stack into another. The colored
    groups are the builder's agent groups in order: the pancakes of symbol
    0, those of symbol 1, then the four timer families."""
    alpha = tuple(int(x) for x in alpha)
    beta = tuple(int(x) for x in beta)
    n = len(alpha)
    if n == 0 or len(beta) != n:
        raise PreconditionError("symbol strings must be equal nonzero length")
    if any(x not in (0, 1) for x in alpha + beta):
        raise PreconditionError("symbols must be 0 or 1")
    if sorted(alpha) != sorted(beta):
        raise PreconditionError("symbol strings must agree as multisets")
    lay = _pancake_layout(n, flips)

    def slots(word: Tuple[int, ...], sym: int) -> List[int]:
        return [i + 1 for i in range(n) if word[i] == sym]

    b = _pancake_builder(
        lay, [(f"primary{sym}", zip(slots(alpha, sym), slots(beta, sym))) for sym in (0, 1)]
    )
    groups = tuple(
        ColoredGroup(
            gi, tuple(b.starts[a] for a in ids), tuple(b.targets[a] for a in ids)
        )
        for gi, ids in enumerate(b.agent_groups.values(), start=1)
    )
    inst = ColoredInstance(Graph(b.n, b.edges), groups, lay.length)
    return inst, GadgetRegistry(b.vertices, b.agent_groups)


def _slot_trajectories(
    reg: GadgetRegistry, lay: PancakeLayout, flip_seq: Sequence[int]
) -> List[List[int]]:
    """Vertex per turn for each stack slot's occupant. Index s in 1..n gives
    the token that starts on va.s; entry [0] is unused."""
    n, np1, big_l = lay.n, lay.n_plus, lay.length
    va = [reg.vertex(f"va.{i}") for i in range(n + 1)]
    vb = [reg.vertex(f"vb.{i}") for i in range(n + 1)]
    vc = [reg.vertex(f"vc.{i}") for i in range(n + 1)]
    vstar = reg.vertex("vstar")
    traj: List[List[int]] = [[] for _ in range(n + 1)]
    for s in range(1, n + 1):
        traj[s].append(va[s])
    arrangement = list(range(n + 1))

    def extend(slot: int, path: List[int], from_turn: int) -> None:
        row = traj[slot]
        while len(row) - 1 < from_turn:
            row.append(row[-1])
        row.extend(path)

    for rnd, r in enumerate(flip_seq):
        base = 3 * np1 * rnd
        if r == 1:
            continue
        tokens = [arrangement[j] for j in range(1, r + 1)]
        for j in range(1, r + 1):
            down = [va[x] for x in range(j - 1, -1, -1)] + [vstar]
            if j < r:
                down += [vb[x] for x in range(0, r - j)]
            extend(tokens[j - 1], down, base)
        for j in range(1, r + 1):
            if j == r:
                path = [vc[x] for x in range(0, r - 1)]
            else:
                path = [vb[x] for x in range(r - 2 - j, -1, -1)] + [vstar]
                if j >= 2:
                    path += [vc[x] for x in range(0, j - 1)]
            extend(tokens[j - 1], path, base + np1 - 1)
        for j in range(1, r + 1):
            if j == 1:
                path = [va[x] for x in range(0, r + 1)]
            else:
                path = [vc[x] for x in range(j - 3, -1, -1)] + [vstar] + [
                    va[x] for x in range(0, r + 2 - j)
                ]
            extend(tokens[j - 1], path, base + 2 * np1 - 1)
        for j in range(1, r + 1):
            arrangement[r + 1 - j] = tokens[j - 1]
    for s in range(1, n + 1):
        row = traj[s]
        while len(row) - 1 < big_l:
            row.append(row[-1])
        if len(row) - 1 != big_l:
            raise AssertionError("slot trajectory overran the horizon")
    return traj


def _aux_trajectories(reg: GadgetRegistry, lay: PancakeLayout) -> List[List[int]]:
    """Route per auxiliary agent, in agent order: its tree path from start
    to target. The i-th agent of a family (1 <= i <= L) starts on row
    vertex -i and travels L hops, so its route is the window [L-i, 2L-i] of
    one fixed track of 2L + 1 vertices. The track is the agent's own row
    (ua, ub, uc or wa, vertices -L..L) when it stays on it, or else the
    row's first half (-L..-1) followed by the path it crosses into: vb.0..L,
    vc.0..L, or va.0 then wa.1..L. Each window is a slice of its track,
    checked at both ends against the plan."""
    big_l = lay.length
    vertex = reg.vertex

    def run(prefix: str, lo: int) -> List[int]:
        return [vertex(f"{prefix}.{j}") for j in range(lo, big_l + 1)]

    tracks = {(p, p): run(p, -big_l) for p in ("ua", "ub", "uc", "wa")}
    for row, into, path in (
        ("ub", "vb", run("vb", 0)),
        ("uc", "vc", run("vc", 0)),
        ("ua", "wa", [vertex("va.0")] + run("wa", 1)),
    ):
        tracks[row, into] = tracks[row, row][:big_l] + path
    rows: List[List[int]] = []
    for gname, s, t in _aux_plan(lay):
        row, _, i = s.partition(".")
        start = big_l + int(i)
        route = tracks[row, t.partition(".")[0]][start : start + big_l + 1]
        if route[0] != vertex(s) or route[-1] != vertex(t):
            raise AssertionError(f"auxiliary route {s} -> {t} is not a window of its track")
        rows.append(route)
    return rows


def _pancake_witness(
    limit: int,
    reg: GadgetRegistry,
    primaries: Sequence[Tuple[int, int, int]],
    flip_seq: Sequence[int],
    mismatch: str,
) -> Schedule:
    """Witness of makespan exactly the limit for a pancake instance whose
    pancake agents are given, in agent order, as (label, start, target).
    The labels on va.1..n read from the starts, flipped by `flip_seq`, must
    read as the labels on va.1..n from the targets; PreconditionError with
    `mismatch` otherwise. Rows are the agents' routes transposed by one
    `zip`: the slot trajectories, then the timer routes."""
    n = len(primaries)
    lay = _pancake_layout(n, limit // (3 * (n + 2)))
    if len(flip_seq) != lay.flips:
        raise PreconditionError(f"certificate must list exactly {lay.flips} flips")
    slot_of = {reg.vertex(f"va.{i}"): i for i in range(1, n + 1)}
    word, goal = [0] * (n + 1), [0] * (n + 1)
    for label, s, t in primaries:
        word[slot_of[s]], goal[slot_of[t]] = label, label
    for r in flip_seq:
        if not (1 <= r <= n):
            raise PreconditionError(f"flip size {r} out of range")
        word[1 : r + 1] = reversed(word[1 : r + 1])
    if word != goal:
        raise PreconditionError(mismatch)
    slots = _slot_trajectories(reg, lay, flip_seq)
    columns = [slots[slot_of[s]] for _, s, _ in primaries]
    columns += _aux_trajectories(reg, lay)
    return Schedule(tuple(islice(zip(*columns), 1, None)))


def pancake_forward_schedule(
    inst: Instance,
    reg: GadgetRegistry,
    flip_seq: Sequence[int],
) -> Schedule:
    """Schedule of makespan exactly the limit from a sorting certificate."""
    primaries = [
        (p, inst.starts[a], inst.targets[a])
        for p, a in enumerate(reg.agents("agents.primary"), start=1)
    ]
    return _pancake_witness(
        inst.makespan_limit, reg, primaries, flip_seq,
        "flip sequence does not sort the permutation",
    )


def colored_pancake_forward_schedule(
    inst: ColoredInstance,
    reg: GadgetRegistry,
    flip_seq: Sequence[int],
) -> Schedule:
    """Group-wise schedule of makespan exactly the limit from a certificate
    transforming the start string into the target string."""
    primaries = [
        (sym, s, t)
        for sym, g in enumerate(inst.groups[:2])
        for s, t in zip(g.starts, g.targets)
    ]
    return _pancake_witness(
        inst.makespan_limit, reg, primaries, flip_seq,
        "flip sequence does not produce the target string",
    )


# --- seeded random instances --------------------------------------------------


def random_instance(
    vertices: int, dc: int, agents: int, seed: int
) -> Instance:
    """Seeded instance whose graph sits at the requested distance to clique:
    a clique plus `dc` extra vertices with coin-flip attachments, resampled
    until the split comes out exact."""
    if vertices < 1:
        raise PreconditionError("need at least one vertex")
    if not (0 <= dc < vertices):
        raise PreconditionError("distance to clique out of range")
    if not (1 <= agents <= vertices):
        raise PreconditionError("agent count out of range")
    rng = random.Random(seed)
    for _ in range(1000):
        mod = set(rng.sample(range(vertices), dc))
        rest = sorted(v for v in range(vertices) if v not in mod)
        edges = [
            (rest[i], rest[j])
            for i in range(len(rest))
            for j in range(i + 1, len(rest))
        ]
        for m in sorted(mod):
            for v in range(vertices):
                if v != m and (v not in mod or v > m) and rng.random() < 0.5:
                    edges.append((min(m, v), max(m, v)))
        g = Graph(vertices, edges)
        if clique_split(g, budget=dc).dc != dc:
            continue
        starts = tuple(rng.sample(range(vertices), agents))
        targets = tuple(rng.sample(range(vertices), agents))
        return Instance(g, starts, targets)
    raise PreconditionError("could not hit the requested distance to clique")
