"""The three benchmark workloads.

Each workload turns the seed into a fixed list of slots (one input each),
runs one slot as one timed closed-loop operation, and judges each output
with the independent checkers in `checks`. A run repeats whole rounds over
all slots, so every run attempts the same operations in the same ratio.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import checks
import gen

FAILED = "failed"


@dataclass
class Outcome:
    """Result of one operation: its timed seconds and what it returned."""

    seconds: float
    value: Any = None
    error: Optional[Exception] = None


class Workload:
    """Base: `slots` holds the inputs; `run` times one; `judge` checks one.

    `judge` returns None for a correct answer, FAILED for an operation that
    failed the way the workload expects, and any other string to describe a
    wrong answer."""

    name = ""
    # Runs go on past --seconds until this many rounds are done, so the tail
    # percentile below always has at least ten samples beyond it.
    min_rounds = 1
    tail_percentile = 50

    def __init__(self, mapfdc: Dict[str, Any], seed: int) -> None:
        self.m = mapfdc
        self.seed = seed
        self.slots: List[Any] = []

    def make_slots(self) -> List[Any]:
        raise NotImplementedError

    def run(self, slot: Any) -> Outcome:
        raise NotImplementedError

    def judge(self, slot: Any, out: Outcome) -> Optional[str]:
        raise NotImplementedError


# --- kernel-search -----------------------------------------------------------

# (vertices, dc, agents, draw) for gen.small_near_clique. Picked from seeded
# draws for a moderate search cost (about 20-280 ms each); draws that take
# seconds were skipped. Packed means agents outnumber the clique vertices, so
# the kernel search runs with an occupancy floor k >= 1.
KERNEL_SEARCH_DRAWS: Tuple[Tuple[int, int, int, int], ...] = (
    (8, 3, 5, 2),  # warm-up slot
    (7, 3, 7, 12),  # packed, k = 3, infeasible
    (7, 3, 5, 3),  # packed, k = 1, optimum 3
    (7, 3, 6, 2),  # packed, k = 2, optimum 3
    (7, 2, 7, 1),  # packed, k = 2
    (8, 2, 7, 3),  # packed, k = 1
    (8, 1, 6, 2),
    (9, 1, 7, 2),
    (9, 2, 6, 3),
    (9, 3, 6, 1),
    (10, 3, 6, 2),
    (10, 3, 5, 1),
    (10, 3, 4, 0),
)


class KernelSearch(Workload):
    """Small near-cliques where every agent is core and the joint search is
    nearly the whole cost. The instances are fixed; the seed only orders each
    round."""

    name = "kernel-search"
    # p94 falls inside the costliest instance (1 of 13 slots), not between two
    # instances whose times react differently to a busy host.
    min_rounds = 13
    tail_percentile = 94

    def __init__(self, mapfdc, seed):
        super().__init__(mapfdc, seed)
        self.optimum: Dict[str, Optional[int]] = {}

    def make_slots(self):
        return [gen.small_near_clique(*draw) for draw in KERNEL_SEARCH_DRAWS]

    def run(self, case: gen.Case) -> Outcome:
        model, fpt = self.m["model"], self.m["fpt"]
        t0 = time.perf_counter()
        inst = model.parse_instance(case.text)
        result, _ = fpt.solve_with_stats(inst)
        return Outcome(time.perf_counter() - t0, result)

    def judge(self, case, out):
        if out.error is not None:
            return f"{case.name}: raised {out.error!r}"
        if case.name not in self.optimum:
            nbrs = [case.graph.neighbors(v) for v in range(case.graph.n)]
            self.optimum[case.name] = checks.optimal_makespan(nbrs, case.starts, case.targets)
        return judge_solve(case, out.value, self.optimum[case.name])


def judge_solve(case: gen.Case, result, optimum: Optional[int]) -> Optional[str]:
    """Check a solver answer `(makespan, schedule)` or None against the known
    optimum, validating the schedule independently."""
    if result is None or optimum is None:
        if result is None and optimum is None:
            return None
        return f"{case.name}: answer {result and result[0]}, optimum {optimum}"
    makespan, sched = result
    placements = sched.placements
    if makespan != optimum or len(placements) != optimum:
        return f"{case.name}: makespan {makespan}, optimum {optimum}"
    ok, rule, turn = checks.check_schedule(case.graph.has_edge, case.starts, case.targets, placements)
    if not ok:
        return f"{case.name}: schedule breaks rule {rule} at turn {turn}"
    return None


# --- dense-lift ----------------------------------------------------------------

DENSE_CLIQUE = 310
DENSE_ATTACHED = 8  # leaves 302 > 3 * 100 unattached vertices, so agents get dropped
DENSE_AGENTS = 250
DENSE_CORE = 100
# Fixed inputs, independent of the seed, on which final-turn repair fails every
# time: fewer than four exchanging pairs among dropped agents.
DENSE_FAULT_DRAWS = ((1, 101), (3, 103))
DENSE_FAULT_MESSAGE = "no eligible helper agent for final-turn repair"


@dataclass(frozen=True)
class DenseSlot:
    case: gen.Case
    expect_fault: bool


class DenseLift(Workload):
    """dc = 1 near-cliques with a clique of 340 vertices and 260 agents: 100
    core agents stand still, 160 dropped agents cross the clique. Every
    instance has an exchanging pair, so the optimum is 2 and the lift and
    final-turn repair run. Seeded instances have 4-8 pairs; two fixed
    instances have 1 and 3 pairs and hit the repair fault."""

    name = "dense-lift"
    min_rounds = 6
    tail_percentile = 76

    def make_slots(self):
        rng = random.Random(self.seed)
        slots = []
        for _ in range(5):
            case = gen.dense_lift_case(
                DENSE_CLIQUE, DENSE_ATTACHED, DENSE_AGENTS, rng.randint(4, 8), DENSE_CORE, rng
            )
            slots.append(DenseSlot(case, False))
        for pairs, draw in DENSE_FAULT_DRAWS:
            case = gen.dense_lift_case(
                DENSE_CLIQUE, DENSE_ATTACHED, DENSE_AGENTS, pairs, DENSE_CORE, random.Random(draw)
            )
            slots.append(DenseSlot(case, True))
        return slots

    def run(self, slot: DenseSlot) -> Outcome:
        model, fpt = self.m["model"], self.m["fpt"]
        t0 = time.perf_counter()
        try:
            inst = model.parse_instance(slot.case.text)
            result, _ = fpt.solve_with_stats(inst)
        except self.m["MapfError"] as exc:
            return Outcome(time.perf_counter() - t0, error=exc)
        return Outcome(time.perf_counter() - t0, result)

    def judge(self, slot, out):
        if out.error is not None:
            if slot.expect_fault and str(out.error) == DENSE_FAULT_MESSAGE:
                return FAILED
            return f"{slot.case.name}: raised {out.error!r}"
        # Every agent lives in a clique of 4+ vertices with a free vertex, so
        # one turn suffices without an exchanging pair and two with one.
        pairs = gen.swapping_pairs(slot.case.starts, slot.case.targets)
        return judge_solve(slot.case, out.value, 2 if pairs else 1)


# --- witness-certify -------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSlot:
    """One generator run. kind is "pancake" (arg: stack, certificate) or
    "partition" (arg: items, partition); corrupt names the rule a corrupted
    copy must break, with the fraction of the schedule where it is placed."""

    name: str
    kind: str
    arg: Tuple[Any, Any]
    limit: int
    corrupt: Optional[str] = None
    at: float = 0.0


# Corrupted copies: (rule, base slot kind/size, fraction of the makespan).
CORRUPTIONS = (
    ("neighborhood", ("pancake", 5), 0.5),
    ("injective", ("pancake", 6), 0.75),
    ("swap", ("partition", 2), 0.25),
    ("target", ("pancake", 4), 1.0),
    ("limit", ("pancake", 3), 1.0),
)
PARTITION_SUM = 3  # raw triple sum; scaled, each triple sums to 42 * 3


def pancake_slot(n: int, rng: random.Random, **kw) -> WitnessSlot:
    stack = gen.random_stack(n, rng)
    flips = gen.PANCAKE_NUMBER[n]
    cert = gen.flip_certificate(stack)
    cert += [1] * (flips - len(cert))  # a size-1 flip is a skipped round
    return WitnessSlot(f"pancake-{n}", "pancake", (stack, cert), 3 * (n + 2) * flips, **kw)


def partition_slot(triples: int, rng: random.Random, **kw) -> WitnessSlot:
    items, partition = gen.partition_items(triples, PARTITION_SUM, rng)
    phi = 42 * PARTITION_SUM
    return WitnessSlot(
        f"partition-{3 * triples}", "partition", (items, partition), triples * (phi + 3), **kw
    )


class WitnessCertify(Workload):
    """Generator path end to end: build a hard instance, build its witness
    schedule, round-trip it through the schedule format and validate it.
    Pancake stacks of 2-7 with certificates from gen.flip_certificate,
    partition inputs of 6 and 9 items, and five copies corrupted at a known
    turn that validation must reject with the matching rule."""

    name = "witness-certify"
    min_rounds = 4
    tail_percentile = 80

    def __init__(self, mapfdc, seed):
        super().__init__(mapfdc, seed)
        self.digest: Dict[int, str] = {}

    def make_slots(self):
        # The memo is keyed by id(slot): a slot of an earlier set-up that was
        # freed can share its id with a new slot of another input.
        self.digest = {}
        rng = random.Random(self.seed)
        slots = [pancake_slot(5, rng)]  # warm-up slot
        slots += [pancake_slot(n, rng) for n in (2, 3, 4, 6, 7)]
        slots += [partition_slot(t, rng) for t in (2, 3)]
        for rule, (kind, size), at in CORRUPTIONS:
            make = pancake_slot if kind == "pancake" else partition_slot
            slots.append(make(size, rng, corrupt=rule, at=at))
        return slots

    def _build(self, slot: WitnessSlot):
        g = self.m["gadgets"]
        if slot.kind == "pancake":
            stack, cert = slot.arg
            inst, reg = g.build_pancake_instance(stack, len(cert))
            return inst, g.pancake_forward_schedule(inst, reg, cert)
        items, partition = slot.arg
        spec = g.preprocess_three_partition(items)
        inst, reg = g.build_three_partition_instance(spec)
        return inst, g.three_partition_forward_schedule(spec, inst, reg, partition)

    def run(self, slot: WitnessSlot) -> Outcome:
        model = self.m["model"]
        t0 = time.perf_counter()
        inst, witness = self._build(slot)
        built = time.perf_counter() - t0
        placements = witness.placements
        expect = None
        if slot.corrupt:  # untimed: the benchmark's own edit of the witness
            placements, expect = corrupt(inst, placements, slot.corrupt, slot.at)
            witness = type(witness)(placements)
        t1 = time.perf_counter()
        text = model.serialize_schedule(witness)
        parsed = model.parse_schedule(text, inst)
        verdict = model.validate_schedule(inst, parsed)
        seconds = built + time.perf_counter() - t1
        return Outcome(seconds, (inst, text, parsed, verdict, expect))

    def judge(self, slot, out):
        if out.error is not None:
            return f"{slot.name}: raised {out.error!r}"
        inst, text, parsed, verdict, expect = out.value
        if inst.makespan_limit != slot.limit:
            return f"{slot.name}: limit {inst.makespan_limit}, expected {slot.limit}"
        if slot.corrupt is None:
            if not verdict.ok or len(parsed.placements) != slot.limit:
                return f"{slot.name}: witness rejected ({verdict.rule}) or wrong length"
            expect = (True, None, None)
        elif (verdict.ok, verdict.rule, verdict.turn) != expect:
            got = (verdict.ok, verdict.rule, verdict.turn)
            return f"{slot.name}: corrupted copy judged {got}, expected {expect}"
        digest = hashlib.sha1(text.encode()).hexdigest()
        if id(slot) in self.digest:  # same input, same schedule: already checked
            return None if self.digest[id(slot)] == digest else f"{slot.name}: schedule changed"
        edges = inst.graph.edges
        mine = checks.check_schedule(
            lambda u, v: (min(u, v), max(u, v)) in edges,
            inst.starts, inst.targets, parsed.placements, inst.makespan_limit,
        )
        if mine != expect:
            return f"{slot.name}: independent check gives {mine}, expected {expect}"
        self.digest[id(slot)] = digest
        return None


def corrupt(inst, placements: Sequence[Tuple[int, ...]], rule: str, at: float):
    """Copy of `placements` that breaks `rule` first at a turn near `at` of
    the makespan (the last turn for "target", one past it for "limit").
    Returns (placements, expected verdict as (ok, rule, turn))."""
    m = len(placements)
    rows = list(placements)
    if rule == "limit":
        rows.append(rows[-1])
        return tuple(rows), (False, "limit", m + 1)
    adj: Dict[int, set] = {}
    for u, v in inst.graph.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    first = m if rule == "target" else max(1, int(at * m))
    for turn in range(first, m + 1):
        prev = rows[turn - 2] if turn >= 2 else inst.starts
        row = _break_turn(rule, prev, rows[turn - 1], adj, inst.graph.n, inst.targets)
        if row is not None:
            rows[turn - 1] = row
            return tuple(rows), (False, rule, turn)
    raise RuntimeError(f"no turn from {first} on can be made to break {rule}")


def _break_turn(rule, prev, cur, adj, n_vertices, targets) -> Optional[Tuple[int, ...]]:
    """One edited placement `cur` that keeps every earlier rule of the turn
    and breaks `rule`, or None when this turn offers no such edit."""
    holder = {v: a for a, v in enumerate(cur)}
    at_prev = {v: a for a, v in enumerate(prev)}
    for a, p in enumerate(prev):
        near = adj.get(p, set()) | {p}
        row = list(cur)
        if rule == "neighborhood":
            far = next((v for v in range(n_vertices) if v not in near), None)
            if far is not None:
                row[a] = far
                return tuple(row)
        if rule == "injective":
            b = next((holder[v] for v in sorted(near) if v in holder and holder[v] != a), None)
            if b is not None:
                row[a] = cur[b]
                return tuple(row)
        if rule == "swap":
            # a and b exchange their previous vertices; no third agent may
            # hold either vertex in this turn.
            for q in sorted(adj.get(p, ())):
                b = at_prev.get(q)
                if b is not None and {holder.get(p), holder.get(q)} <= {None, a, b}:
                    row[a], row[b] = q, p
                    return tuple(row)
        if rule == "target" and cur[a] == targets[a]:
            # Stay put or stop short on a free vertex next to prev, but not
            # on the vertex of an agent that takes over prev (an exchange).
            for v in sorted(near):
                x = at_prev.get(v)
                if v != targets[a] and v not in holder and (x is None or cur[x] != p):
                    row[a] = v
                    return tuple(row)
    return None
