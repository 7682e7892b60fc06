"""Input generators for the benchmark.

Nothing here imports `mapfdc`: the inputs are written as instance text from
the workload seed alone, so a change to the package's own generators or
serializers cannot shift what the benchmark measures.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class NearClique:
    """Graph on 0..n-1 whose vertices outside `modulator` form a clique.

    `modulator` maps each modulator vertex to its neighbour set."""

    n: int
    modulator: Dict[int, FrozenSet[int]]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if u in self.modulator:
            return v in self.modulator[u]
        if v in self.modulator:
            return u in self.modulator[v]
        return True

    def neighbors(self, v: int) -> List[int]:
        return [u for u in range(self.n) if self.has_edge(v, u)]

    def edge_lines(self) -> List[str]:
        out = []
        for u in range(self.n):
            if u in self.modulator:
                out.extend(f"edge {u} {v}" for v in sorted(self.modulator[u]) if v > u)
                continue
            for v in range(u + 1, self.n):
                if v not in self.modulator:
                    out.append(f"edge {u} {v}")
            for m in sorted(self.modulator):
                if m > u and u in self.modulator[m]:
                    out.append(f"edge {u} {m}")
        return out


@dataclass(frozen=True)
class Case:
    """One benchmark input: the instance text handed to the program plus what
    the independent checkers need to judge the answer."""

    name: str
    text: str
    graph: NearClique
    starts: Tuple[int, ...]
    targets: Tuple[int, ...]


def instance_text(graph: NearClique, starts: Sequence[int], targets: Sequence[int]) -> str:
    lines = ["mapf 1", f"vertices {graph.n}"]
    lines.extend(graph.edge_lines())
    lines.extend(f"agent {s} {t}" for s, t in zip(starts, targets))
    return "\n".join(lines) + "\n"


def distance_to_clique(graph: NearClique, limit: int) -> Optional[int]:
    """Fewest vertex deletions that leave a clique, by brute force up to
    `limit` deletions (None when more are needed)."""
    for k in range(limit + 1):
        for removed in itertools.combinations(range(graph.n), k):
            gone = set(removed)
            keep = [v for v in range(graph.n) if v not in gone]
            if all(graph.has_edge(u, v) for u, v in itertools.combinations(keep, 2)):
                return k
    return None


def small_near_clique(n: int, dc: int, agents: int, draw: int) -> Case:
    """Random graph at distance exactly `dc` from a clique: a clique on n - dc
    vertices plus `dc` vertices joined to every other vertex by a coin flip.
    Starts and targets are uniform samples."""
    rng = random.Random(draw)
    while True:
        mods = sorted(rng.sample(range(n), dc))
        nbrs: Dict[int, set] = {m: set() for m in mods}
        for u in range(n):
            for v in range(u + 1, n):
                if (u in nbrs or v in nbrs) and rng.random() < 0.5:
                    for a, b in ((u, v), (v, u)):
                        if a in nbrs:
                            nbrs[a].add(b)
        graph = NearClique(n, {m: frozenset(s) for m, s in nbrs.items()})
        if distance_to_clique(graph, dc) != dc:
            continue
        starts = tuple(rng.sample(range(n), agents))
        targets = tuple(rng.sample(range(n), agents))
        name = f"near-{n}v-dc{dc}-{agents}a-d{draw}"
        return Case(name, instance_text(graph, starts, targets), graph, starts, targets)


def swapping_pairs(starts: Sequence[int], targets: Sequence[int]) -> int:
    """Number of agent pairs whose start and target vertices are exchanged."""
    at_start = {v: a for a, v in enumerate(starts)}
    count = 0
    for a, t in enumerate(targets):
        b = at_start.get(t)
        if b is not None and b > a and targets[b] == starts[a]:
            count += 1
    return count


def dense_lift_case(
    clique: int, attached: int, agents: int, pairs: int, core: int, rng: random.Random
) -> Case:
    """dc = 1 near-clique: clique 0..clique-1 plus modulator vertex `clique`,
    joined to the top `attached` clique vertices.

    Agents 0..core-1 stand still on vertices 0..core-1. The other agents start
    and end on distinct random vertices of the unattached part, with exactly
    `pairs` pairs of them exchanging vertices and no other exchange."""
    free = list(range(core, clique - attached))
    dropped = agents - core
    if len(free) < dropped:
        raise ValueError("unattached part too small for the dropped agents")
    starts = rng.sample(free, dropped)
    targets: List[Optional[int]] = [None] * dropped
    for p in range(pairs):
        a, b = 2 * p, 2 * p + 1
        targets[a], targets[b] = starts[b], starts[a]
    pool = [v for v in free if v not in set(starts[: 2 * pairs])]
    rng.shuffle(pool)
    at_start = {v: i for i, v in enumerate(starts)}
    for i in range(2 * pairs, dropped):
        while True:
            v = pool.pop()
            j = at_start.get(v)
            if j is not None and targets[j] == starts[i]:
                pool.insert(0, v)
                continue
            targets[i] = v
            break
    order = list(range(dropped))
    rng.shuffle(order)
    all_starts = tuple(range(core)) + tuple(starts[i] for i in order)
    all_targets = tuple(range(core)) + tuple(targets[i] for i in order)
    if swapping_pairs(all_starts, all_targets) != pairs:
        raise AssertionError("generator produced the wrong number of exchanges")
    graph = NearClique(
        clique + 1, {clique: frozenset(range(clique - attached, clique))}
    )
    name = f"dense-{clique}q-{agents}a-{pairs}p"
    return Case(name, instance_text(graph, all_starts, all_targets), graph, all_starts, all_targets)


# --- witness-certify inputs ------------------------------------------------

# Largest number of prefix reversals any stack of n pancakes needs.
PANCAKE_NUMBER = {1: 0, 2: 1, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8}


def flip_certificate(perm: Sequence[int]) -> List[int]:
    """Shortest sequence of prefix-reversal sizes that sorts `perm`, by
    breadth-first search over stacks."""
    start = tuple(perm)
    goal = tuple(sorted(start))
    parent: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {start: (start, 0)}
    queue = deque([start])
    while goal not in parent:
        cur = queue.popleft()
        for r in range(2, len(cur) + 1):
            nxt = cur[:r][::-1] + cur[r:]
            if nxt not in parent:
                parent[nxt] = (cur, r)
                queue.append(nxt)
    seq: List[int] = []
    cur = goal
    while cur != start:
        cur, r = parent[cur]
        seq.append(r)
    return seq[::-1]


def random_stack(n: int, rng: random.Random) -> List[int]:
    """A random unsorted permutation of 1..n (n >= 2)."""
    perm = list(range(1, n + 1))
    while perm == sorted(perm):
        rng.shuffle(perm)
    return perm


def partition_items(triples: int, triple_sum: int, rng: random.Random):
    """Positive item sizes that split into `triples` triples of sum
    `triple_sum`, shuffled, with the 1-based index triples that certify it."""
    items: List[int] = []
    for _ in range(triples):
        a = rng.randint(1, triple_sum - 2)
        b = rng.randint(1, triple_sum - 1 - a)
        items.extend((a, b, triple_sum - a - b))
    order = list(range(len(items)))
    rng.shuffle(order)
    shuffled = [items[i] for i in order]
    where = {old: new + 1 for new, old in enumerate(order)}
    partition = [tuple(where[3 * t + j] for j in range(3)) for t in range(triples)]
    return shuffled, partition
