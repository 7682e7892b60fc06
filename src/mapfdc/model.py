from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ParseError, PreconditionError
from .graphs import Graph

Placement = Tuple[int, ...]


def _check_placement(graph: Graph, pl: Sequence[int], what: str) -> None:
    for v in pl:
        if not (0 <= v < graph.n):
            raise PreconditionError(f"{what} vertex {v} out of range")
    if len(set(pl)) != len(pl):
        raise PreconditionError(f"{what} is not injective")


@dataclass(frozen=True)
class Instance:
    """MAPF instance: agents 0..|A|-1 with injective start and target maps."""

    graph: Graph
    starts: Placement
    targets: Placement
    makespan_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.targets):
            raise PreconditionError("start and target maps differ in length")
        _check_placement(self.graph, self.starts, "start")
        _check_placement(self.graph, self.targets, "target")
        if self.makespan_limit is not None and self.makespan_limit < 0:
            raise PreconditionError("makespan limit must be non-negative")

    @property
    def n_agents(self) -> int:
        return len(self.starts)

    @property
    def agents(self) -> range:
        return range(len(self.starts))


@dataclass(frozen=True)
class Schedule:
    """Placements s_1..s_m; turn 0 is the instance's start map."""

    placements: Tuple[Placement, ...]

    @property
    def makespan(self) -> int:
        return len(self.placements)

    def final(self, starts: Placement) -> Placement:
        return self.placements[-1] if self.placements else starts


@dataclass(frozen=True)
class ColoredGroup:
    group_id: int
    starts: Tuple[int, ...]
    targets: Tuple[int, ...]


@dataclass(frozen=True)
class ColoredInstance:
    """MAPF with anonymous targets inside each group: a group's agents must
    collectively end on the group's target set. Agent ids are assigned
    group by group, within a group in start-list order."""

    graph: Graph
    groups: Tuple[ColoredGroup, ...]
    makespan_limit: Optional[int] = None

    def __post_init__(self) -> None:
        for g in self.groups:
            if len(g.starts) != len(g.targets):
                raise PreconditionError(
                    f"group {g.group_id}: start/target counts differ"
                )
        _check_placement(self.graph, self.all_starts, "start")
        _check_placement(self.graph, self.all_targets, "target")
        if self.makespan_limit is not None and self.makespan_limit < 0:
            raise PreconditionError("makespan limit must be non-negative")

    @property
    def all_starts(self) -> Placement:
        return tuple(v for g in self.groups for v in g.starts)

    @property
    def all_targets(self) -> Placement:
        return tuple(v for g in self.groups for v in g.targets)

    @property
    def n_agents(self) -> int:
        return sum(len(g.starts) for g in self.groups)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rule: Optional[str] = None
    turn: Optional[int] = None
    agents: Tuple[int, ...] = ()
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def detect_swaps(prev: Sequence[int], nxt: Sequence[int]) -> List[Tuple[int, int]]:
    """All unordered agent pairs {a, b} with nxt[a] = prev[b] and nxt[b] = prev[a],
    as (a, b) with a < b, in increasing order of a.

    Placements must cover the same agents (equal length), and prev must be
    injective, as every placement of a valid schedule is.
    """
    if len(prev) != len(nxt):
        raise PreconditionError("placements cover different agent sets")
    # Both members of an exchange move, and with prev injective an agent
    # that waits can be no member, so the movers are the only candidates.
    movers = _movers(prev, nxt)
    at_prev = {prev[b]: b for b in movers}
    out: List[Tuple[int, int]] = []
    for a in movers:
        b = at_prev.get(nxt[a])
        if b is not None and a < b and nxt[b] == prev[a]:
            out.append((a, b))
    return out


def _movers(prev: Sequence[int], nxt: Sequence[int]) -> List[int]:
    """Agents whose vertex changes, in increasing order (compared in C)."""
    return list(compress(range(len(nxt)), map(ne, prev, nxt)))


_SLICE = 64  # agents per slice of `_slice_movers`


def _slice_movers(prev: Sequence[int], nxt: Sequence[int]) -> List[int]:
    """`_movers` for rows of equal length where few agents move: the rows
    are compared _SLICE agents at a time, in C, and only the slices that
    differ are compared agent by agent."""
    out: List[int] = []
    for i in range(0, len(nxt), _SLICE):
        j = i + _SLICE
        p, q = prev[i:j], nxt[i:j]
        if p != q:
            out.extend(compress(range(i, j), map(ne, p, q)))
    return out


def _validate_turns(
    graph: Graph, starts: Placement, placements: Sequence[Placement]
) -> Optional[Verdict]:
    """First motion-rule breach, checking per turn the neighbourhood rule,
    then injectivity, then swaps, in one Python pass over the agents that
    move. An agent that waits sits on a vertex already checked, so it
    breaks neither the range nor the edge rule, and no neighbour set holds
    a vertex out of range.

    `at` maps each vertex of the last row accepted to its agent. A move
    u -> v needs v in N(u), and is half of an exchange when the agent
    b = at[v] that left v now stands on u. Movers are met in agent order,
    so the first failed edge test names the first breach; an exchange is
    only noted, and reported after injectivity. The first turn, and any
    turn after one that moved n/8 agents or more, walks both rows whole,
    skipping agents that wait, then builds the next `at` from the new row
    in C: the row is injective exactly when `at` has n keys. Any other
    turn finds its movers by `_slice_movers` and updates `at` with them
    alone: with the previous row injective, the new row is injective
    exactly when the movers land on distinct vertices that no waiting
    agent holds. Only a breach runs the scan that names the agents."""
    n = len(starts)
    n_verts = graph.n
    nbrs = graph.neighbor_sets
    prev = starts
    at = dict(zip(starts, range(n)))
    few = False  # the previous turn moved fewer than n/8 agents
    for turn, cur in enumerate(placements, start=1):
        if len(cur) != n:
            raise PreconditionError(f"turn {turn}: placement covers {len(cur)} agents, expected {n}")
        if few:
            movers = _slice_movers(prev, cur)
            olds = [prev[a] for a in movers]
            news = [cur[a] for a in movers]
            moves = zip(olds, news)
        else:
            moves = zip(prev, cur)
        moved = 0
        swap = False
        for u, v in moves:
            if u == v:
                continue
            if v not in nbrs[u]:
                if not (0 <= v < n_verts):
                    raise PreconditionError(f"turn {turn}: vertex {v} out of range")
                return Verdict(
                    False, "neighborhood", turn, (at[u],),
                    f"agent {at[u]} moves {u} -> {v} without an edge",
                )
            moved += 1
            b = at.get(v)
            if b is not None and cur[b] == u:
                swap = True
        if few:
            for u in olds:
                del at[u]
            at.update(zip(news, movers))
        else:
            at = dict(zip(cur, range(n)))
        if len(at) != n:
            seen: Dict[int, int] = {}
            clash: Tuple[int, ...] = ()
            for a, v in enumerate(cur):
                if v in seen:
                    clash = (seen[v], a)
                    break
                seen[v] = a
            return Verdict(
                False, "injective", turn, clash,
                f"agents {clash[0]} and {clash[1]} share vertex {cur[clash[1]]}",
            )
        if swap:
            a, b = detect_swaps(prev, cur)[0]
            return Verdict(
                False, "swap", turn, (a, b),
                f"agents {a} and {b} exchange vertices {prev[a]} and {prev[b]}",
            )
        few = 8 * moved < n
        prev = cur
    return None


def validate_schedule(inst: Instance, sched: Schedule) -> Verdict:
    """Feasibility check: closed-neighborhood moves, per-turn injectivity,
    no swaps (turn 0 included), final placement = targets, makespan limit."""
    bad = _validate_turns(inst.graph, inst.starts, sched.placements)
    if bad is not None:
        return bad
    final = sched.final(inst.starts)
    m = sched.makespan
    targets = inst.targets
    if tuple(final) != tuple(targets):  # one compare in C; the scan names the agent
        a = next(a for a in inst.agents if final[a] != targets[a])
        return Verdict(
            False, "target", m, (a,),
            f"agent {a} ends on {final[a]}, target is {targets[a]}",
        )
    if inst.makespan_limit is not None and m > inst.makespan_limit:
        return Verdict(
            False, "limit", m, (),
            f"makespan {m} exceeds limit {inst.makespan_limit}",
        )
    return Verdict(True)


def validate_colored_schedule(inst: ColoredInstance, sched: Schedule) -> Verdict:
    starts = inst.all_starts
    bad = _validate_turns(inst.graph, starts, sched.placements)
    if bad is not None:
        return bad
    final = sched.final(starts)
    m = sched.makespan
    offset = 0
    for idx, g in enumerate(inst.groups):
        got = set(final[offset : offset + len(g.starts)])
        want = set(g.targets)
        if got != want:
            stray = sorted(got - want)
            return Verdict(
                False, "target", m, (),
                f"group {g.group_id} ends on {sorted(got)}, target set is "
                f"{sorted(want)} (off-target: {stray})",
            )
        offset += len(g.starts)
    if inst.makespan_limit is not None and m > inst.makespan_limit:
        return Verdict(
            False, "limit", m, (),
            f"makespan {m} exceeds limit {inst.makespan_limit}",
        )
    return Verdict(True)


# --- file formats ---------------------------------------------------------

_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"  # the ASCII line breaks of splitlines but "\n"
# Texts shorter than _BULK_MIN are read line by line: the bulk reader's
# fixed cost in cold caches (fresh process) exceeds what it saves there.
_BULK_MIN = 1 << 11
_EDGE_BLOCK = 1 << 16  # characters per bulk step; its token list stays small


def _stretches(text: str) -> Iterator[Tuple[int, int]]:
    """Bounds (p, q) of the stretches of `text` that `_lines` splits: each
    ends just after a "\\n", the last at the end of the text."""
    p, end = 0, len(text)
    while p < end:
        q = text.find("\n", p) + 1 or end
        yield p, q
        p = q


def _lines(text: str) -> Iterator[str]:
    """`text.splitlines()` one line at a time, never a copy of the whole
    text. Every "\\n" ends a line break ("\\r\\n" included), so cutting
    after each one cuts no break, and splitting the stretches between the
    cuts gives the lines of the whole text."""
    for p, q in _stretches(text):
        yield from text[p:q].splitlines()


def _content_lines(lines: Iterable[str], start: int = 1) -> Iterator[Tuple[int, List[str]]]:
    """(line number, tokens) of every line that has tokens once a `#`
    comment is cut off; the first of `lines` is line `start`."""
    for no, raw in enumerate(lines, start=start):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if toks:
            yield no, toks


def _int_tok(no: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"expected integer {what}, got {tok!r}") from None


def _vertex_ids(n: int) -> Dict[str, int]:
    """Vertex id by its canonical decimal, for ids 0..n-1: a hit is a token
    proved to be an id in range, and equal ids share one int object."""
    return {str(v): v for v in range(n)}


def _read_edge_block(
    block: str, ids: Dict[str, int], ends: Dict[str, int], adj: List[List[int]]
) -> int:
    """Append the k lines of `block`, which ends in "\\n", to the neighbour
    lists `adj` and return k; return 0, changing nothing, unless each line is
    proved to be `edge u v`. Loops and repeated edges are left to the caller.
    `ends` maps `f"{v}\\nedge"` to v for each id v of `ids`. Proof: split on
    single spaces, the block is `edge`, then pairs of an id and an id
    followed by "\\nedge", the last pair's second token being an id followed
    by the block's final "\\n". Ids hold digits alone, so joining the tokens
    back with single spaces gives k lines `edge u v` and nothing else."""
    toks = block.split(" ")
    if toks[0] != "edge" or not len(toks) & 1:
        return 0
    last = toks.pop()
    try:
        us = list(map(ids.__getitem__, toks[1::2]))
        vs = list(map(ends.__getitem__, toks[2::2]))
        vs.append(ids[last[:-1]])
    except KeyError:
        return 0
    del toks
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    return len(us)


# graph, the directive lines after the graph, and the last content line
_Head = Tuple[Graph, List[Tuple[int, List[str]]], int]


def _parse_graph_lines(text: str, header: str) -> _Head:
    """Common head of both instance formats: header, vertices, edges.
    A text in the writers' layout is read in bulk; any other text, and any
    fault, goes whole to the line reader, which names the faulty line."""
    return _read_written_head(text, header) or _read_graph_lines(text, header)


def _read_written_head(text: str, header: str) -> Optional[_Head]:
    """`_parse_graph_lines` for a text laid out as the writers lay it out,
    else None; it never raises. The text must be ASCII with "\\n" its only
    line break and open `<header> 1`, `vertices <n>` with n in digits and no
    larger than the text is long, then one run of edge lines, up to the last
    line that begins `edge `, read in blocks (`_read_edge_block`) into
    per-vertex neighbour lists: a list append stays in cache where a set add
    lands anywhere in a table of twice the final size. The lists are checked
    for loops and repeats once, as they are frozen. No line after the run
    may be one the line reader reads as part of the graph."""
    if len(text) < _BULK_MIN or not text.isascii():
        return None
    if any(c in text for c in _OTHER_BREAKS):
        return None
    lead = f"{header} 1\nvertices "
    start = text.find("\n", len(lead)) + 1
    count = text[len(lead) : start - 1]
    # int() refuses a long enough count; one of 19 digits could never be allocated
    if not (text.startswith(lead) and start and count.isdigit() and len(count) < 19):
        return None
    n = int(count)  # as the line reader reads it, leading zeros and all
    if n > len(text):  # the id tables and the lists are O(n) before any edge is read
        return None
    last = text.rfind("\nedge ", start - 1) + 1  # the last edge line, or 0
    end = text.find("\n", last) + 1 if last else start
    if not end:  # an edge line ends the text
        return None
    ids = _vertex_ids(n)
    ends = {t + "\nedge": v for t, v in ids.items()}
    lists: List[List[int]] = [[] for _ in range(n)]
    p, no = start, 2
    while p < end:
        q = text.rfind("\n", p, min(p + _EDGE_BLOCK, end)) + 1
        k = _read_edge_block(text[p:q], ids, ends, lists)
        if not k:
            return None
        p, no = q, no + k
    # The rest is read before the lists are frozen: read after, its token
    # lists set off a collection that walks every frozen set (about 2 ms of
    # a 310-vertex clique).
    rest = list(_content_lines(text[p:].splitlines(), no + 1))
    if any(toks[0] in ("edge", "vertices") for _, toks in rest):
        return None
    nbr = [frozenset(set(a)) for a in lists]  # each table sized as Graph sizes it
    if sum(map(len, nbr)) != sum(map(len, lists)):
        return None
    return Graph._from_neighbor_sets(n, nbr), rest, rest[-1][0] if rest else no


def _read_graph_lines(text: str, header: str) -> _Head:
    """`_parse_graph_lines` line by line, each edge going straight into
    per-vertex neighbour sets; raises ParseError at the first fault. A
    vertex's set is made at its first edge, so a declared count costs one
    slot per vertex until edges arrive, and every isolated vertex shares one
    empty frozenset."""
    head = False
    n: Optional[int] = None
    nbr: List[Optional[Set[int]]] = []
    rest: List[Tuple[int, List[str]]] = []
    no = 0  # last content line
    for no, toks in _content_lines(text.splitlines()):
        if not head:
            if toks != [header, "1"]:
                raise ParseError(no, f"expected header '{header} 1'")
            head = True
            continue
        key = toks[0]
        if key == "edge":
            if n is None:
                raise ParseError(no, "edge before vertices line")
            if len(toks) != 3:
                raise ParseError(no, "edge takes two endpoints")
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                u = _int_tok(no, toks[1], "endpoint")
                v = _int_tok(no, toks[2], "endpoint")
            if u == v:
                raise ParseError(no, f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"unknown vertex id in edge {u} {v}")
            su, sv = nbr[u], nbr[v]
            if su is None:
                su = nbr[u] = set()
            elif v in su:
                raise ParseError(no, f"duplicate edge {u} {v}")
            if sv is None:
                sv = nbr[v] = set()
            su.add(v)
            sv.add(u)
        elif key == "vertices":
            if n is not None:
                raise ParseError(no, "duplicate vertices line")
            if len(toks) != 2:
                raise ParseError(no, "vertices takes one count")
            n = _int_tok(no, toks[1], "vertex count")
            if n < 0:
                raise ParseError(no, "vertex count must be non-negative")
            try:
                nbr = [None] * n
            except OverflowError:  # a count past any list index
                raise ParseError(no, f"vertex count {n} too large") from None
        else:
            rest.append((no, toks))
    if not head:
        raise ParseError(1, "empty file")
    if n is None:
        raise ParseError(no, "missing vertices line")
    empty = frozenset()
    return Graph._from_neighbor_sets(n, [empty if a is None else a for a in nbr]), rest, no


def _read_limit(no: int, toks: List[str], limit: Optional[int]) -> int:
    """The value of the `limit` line `no`; `limit` is the one read before."""
    if limit is not None:
        raise ParseError(no, "duplicate limit line")
    if len(toks) != 2:
        raise ParseError(no, "limit takes one value")
    value = _int_tok(no, toks[1], "limit")
    if value < 0:
        raise ParseError(no, "limit must be non-negative")
    return value


def parse_instance(text: str) -> Instance:
    graph, rest, last = _parse_graph_lines(text, "mapf")
    n = graph.n
    starts: List[int] = []
    targets: List[int] = []
    seen_s: Dict[int, int] = {}
    seen_t: Dict[int, int] = {}
    limit: Optional[int] = None
    for no, toks in rest:
        key = toks[0]
        if key == "agent":
            if len(toks) != 3:
                raise ParseError(no, "agent takes start and target")
            s = _int_tok(no, toks[1], "start")
            t = _int_tok(no, toks[2], "target")
            for v in (s, t):
                if not (0 <= v < n):
                    raise ParseError(no, f"unknown vertex id {v}")
            if s in seen_s:
                raise ParseError(no, f"duplicate start vertex {s}")
            if t in seen_t:
                raise ParseError(no, f"duplicate target vertex {t}")
            seen_s[s] = len(starts)
            seen_t[t] = len(targets)
            starts.append(s)
            targets.append(t)
        elif key == "limit":
            limit = _read_limit(no, toks, limit)
        else:
            raise ParseError(no, f"unknown directive {key!r}")
    if not starts:
        raise ParseError(last, "instance has no agents")
    return Instance(graph, tuple(starts), tuple(targets), limit)


def serialize_instance(inst: Instance) -> str:
    out = ["mapf 1", f"vertices {inst.graph.n}"]
    out.extend(f"edge {u} {v}" for u, v in inst.graph.sorted_edges())
    out.extend(
        f"agent {s} {t}" for s, t in zip(inst.starts, inst.targets)
    )
    if inst.makespan_limit is not None:
        out.append(f"limit {inst.makespan_limit}")
    return "\n".join(out) + "\n"


def parse_colored_instance(text: str) -> ColoredInstance:
    graph, rest, last = _parse_graph_lines(text, "cmapf")
    n = graph.n
    groups: List[ColoredGroup] = []
    limit: Optional[int] = None
    i = 0
    while i < len(rest):
        no, toks = rest[i]
        key = toks[0]
        if key == "limit":
            limit = _read_limit(no, toks, limit)
            i += 1
            continue
        if key != "group":
            raise ParseError(no, f"unknown directive {key!r}")
        if len(toks) != 2:
            raise ParseError(no, "group takes one id")
        gid = _int_tok(no, toks[1], "group id")
        if gid != len(groups) + 1:
            raise ParseError(no, f"group ids must be sequential; expected {len(groups) + 1}")
        if i + 1 >= len(rest) or rest[i + 1][1][0] != "starts":
            raise ParseError(no, f"group {gid} missing starts line")
        if i + 2 >= len(rest) or rest[i + 2][1][0] != "targets":
            raise ParseError(no, f"group {gid} missing targets line")
        sno, stoks = rest[i + 1]
        tno, ttoks = rest[i + 2]
        svs = [_int_tok(sno, x, "start") for x in stoks[1:]]
        tvs = [_int_tok(tno, x, "target") for x in ttoks[1:]]
        for lno, vs in ((sno, svs), (tno, tvs)):
            for v in vs:
                if not (0 <= v < n):
                    raise ParseError(lno, f"unknown vertex id {v}")
        if len(svs) != len(tvs):
            raise ParseError(tno, f"group {gid}: {len(svs)} starts but {len(tvs)} targets")
        groups.append(ColoredGroup(gid, tuple(svs), tuple(tvs)))
        i += 3
    if not groups:
        raise ParseError(last, "colored instance has no groups")
    try:
        return ColoredInstance(graph, tuple(groups), limit)
    except PreconditionError as exc:
        raise ParseError(last, str(exc)) from None


def serialize_colored_instance(inst: ColoredInstance) -> str:
    out = ["cmapf 1", f"vertices {inst.graph.n}"]
    out.extend(f"edge {u} {v}" for u, v in inst.graph.sorted_edges())
    for g in inst.groups:
        out.append(f"group {g.group_id}")
        out.append("starts " + " ".join(str(v) for v in g.starts))
        out.append("targets " + " ".join(str(v) for v in g.targets))
    if inst.makespan_limit is not None:
        out.append(f"limit {inst.makespan_limit}")
    return "\n".join(out) + "\n"


def parse_schedule(text: str, inst) -> Schedule:
    """Parse a schedule for the given instance (plain or colored): per-turn
    vertex rows in agent order. Rows are read lazily and each is converted
    as it is read; a wrong turn count is reported ahead of the first bad
    row. Vertex ids come from one table per call (`_vertex_ids`), so the
    rows share their int objects.

    A turn line in the writers' layout, `turn <i>: ` and canonical ids
    separated by single spaces, is read in place in `text`: whole
    (`_read_whole_turn`), or, after a turn that changed fewer than half of
    its _SLICE-agent slices, slice by slice (`_read_sparse_turn`), which
    splits only the slices that differ from the row before. Any other line
    is split as `_lines` splits it and read by `_parse_turn`, which names
    the fault."""
    n_agents = inst.n_agents
    n_verts = inst.graph.n
    ids = _vertex_ids(n_verts).__getitem__
    span = _SLICE * (len(str(max(n_verts - 1, 0))) + 1)  # longest slice text
    m = -1  # the turn count, once the header is read
    placements: List[Placement] = []
    bad_row: Optional[ParseError] = None
    found = 0
    prev: Optional[Placement] = None
    texts: Optional[List[str]] = None  # `_slice_texts` of prev, on a sparse turn
    seen = last = 0  # lines read, and the number of the last content line
    for p, q in _stretches(text):
        if found < m and bad_row is None:
            stop = q - 1 if text[q - 1] == "\n" else q
            if text.endswith("\r", p, stop):
                stop -= 1
            head = f"turn {found + 1}: "
            if texts is None:
                read = _read_whole_turn(text, p, stop, head, prev, ids, n_agents)
            else:
                read = _read_sparse_turn(text, p, stop, head, prev, texts, ids, span)
            if read is not None:
                seen = last = seen + 1
                found += 1
                prev, texts = read
                placements.append(prev)
                continue
        lines = text[p:q].splitlines()
        for no, toks in _content_lines(lines, seen + 1):
            last = no
            if m < 0:
                if toks[0] != "schedule" or len(toks) != 2:
                    raise ParseError(no, "expected header 'schedule <m>'")
                m = _int_tok(no, toks[1], "makespan")
                if m < 0:
                    raise ParseError(no, "makespan must be non-negative")
                continue
            found += 1
            if bad_row is None and found <= m:
                try:
                    row = _parse_turn(no, toks, found, n_agents, n_verts, ids)
                except ParseError as exc:
                    bad_row = exc
                    continue
                placements.append(row)
                few = prev is not None and _few_changed(prev, row)
                texts = _slice_texts(toks[2:]) if few else None
                prev = row
        seen += len(lines)
    if m < 0:
        raise ParseError(1, "empty schedule file")
    if found != m:
        raise ParseError(last, f"expected {m} turn lines, found {found}")
    if bad_row is not None:
        raise bad_row
    return Schedule(tuple(placements))


def _few_changed(prev: Sequence[int], cur: Sequence[int]) -> bool:
    """Whether rows of equal length differ in fewer than half of their
    _SLICE-agent slices. The slices whose first agent moved are counted
    first, and counting stops at half, so a row on which nearly every agent
    moves is told apart in a few index lookups, without a slice copy."""
    n = len(cur)
    if len(prev) != n or n <= _SLICE:  # one slice: nothing to share but the row
        return False
    spare = (n - 1) // (2 * _SLICE)  # changed slices allowed: under half of them
    for i in range(0, n, _SLICE):
        if prev[i] != cur[i]:
            if not spare:
                return False
            spare -= 1
    return 2 * len(_changed_slices(prev, cur)) < -(-n // _SLICE)


def _changed_slices(prev: Sequence[int], cur: Sequence[int]) -> List[int]:
    """Start agent of each _SLICE-agent slice where rows of equal length differ."""
    return [i for i in range(0, len(cur), _SLICE) if prev[i : i + _SLICE] != cur[i : i + _SLICE]]


def _slice_texts(names: Sequence[str]) -> List[str]:
    """The row text `" ".join(names)` cut after every _SLICE-th name: each
    piece but the last ends in its separating space."""
    texts = [" ".join(names[i : i + _SLICE]) + " " for i in range(0, len(names), _SLICE)]
    if texts:
        texts[-1] = texts[-1][:-1]
    return texts


# a row read from a turn line, and `_slice_texts` of it when the turn
# changed fewer than half of its slices, else None
_Turn = Tuple[Placement, Optional[List[str]]]


def _read_whole_turn(
    text: str, p: int, stop: int, head: str, prev: Optional[Placement],
    ids: Callable[[str], int], n_agents: int,
) -> Optional[_Turn]:
    """The line `text[p:stop]` read as a row of `n_agents` ids when it is
    `head` followed by canonical ids separated by single spaces; else None.
    Every character of an accepted line is then proved to be a head, id or
    single-space character, so the line holds no other line break and no
    comment."""
    if not text.startswith(head, p, stop):
        return None
    toks = text[p + len(head) : stop].split(" ")
    if len(toks) != n_agents:
        return None
    try:
        row = tuple(map(ids, toks))
    except KeyError:
        return None
    return row, (_slice_texts(toks) if prev is not None and _few_changed(prev, row) else None)


def _read_sparse_turn(
    text: str, p: int, stop: int, head: str, prev: Placement, texts: List[str],
    ids: Callable[[str], int], span: int,
) -> Optional[_Turn]:
    """`_read_whole_turn` for the row that follows `prev`, whose ids' slice
    texts `texts` holds (`_slice_texts`); returns None changing nothing.
    A slice whose text recurs at its place is taken from `prev`; only the
    others are split and looked up (`ids`), and their texts replace the old
    ones in `texts`. A slice text is at most `span` characters long."""
    if not text.startswith(head, p, stop):
        return None
    off = p + len(head)
    last = len(texts) - 1
    row: Optional[List[int]] = None
    new: List[Tuple[int, str]] = []
    for k, piece in enumerate(texts):
        if k < last:
            if text.startswith(piece, off, stop):
                off += len(piece)
                continue
            chunk = text[off : off + span]  # a line break is no id or space
            toks = chunk.split(" ", _SLICE)
            if len(toks) <= _SLICE:
                return None
            piece = chunk[: len(chunk) - len(toks.pop())]
        else:
            if stop - off == len(piece) and text.startswith(piece, off):
                break
            piece = text[off:stop]
            toks = piece.split(" ")
            if len(toks) != len(prev) - _SLICE * last:
                return None
        try:
            vals = list(map(ids, toks))
        except KeyError:
            return None
        if row is None:
            row = list(prev)
        row[k * _SLICE : k * _SLICE + len(vals)] = vals
        new.append((k, piece))
        off += len(piece)
    for k, piece in new:
        texts[k] = piece
    return (prev if row is None else tuple(row)), (texts if 2 * len(new) < len(texts) else None)


def _parse_turn(
    no: int, toks: List[str], idx: int, n_agents: int, n_verts: int,
    ids: Callable[[str], int],
) -> Placement:
    """Row `turn <idx>: v ...` read from line `no` as a placement; `ids`
    maps the canonical decimal of each vertex id in range to the id."""
    if toks[0] != "turn":
        raise ParseError(no, "expected turn line")
    if len(toks) < 2 or not toks[1].endswith(":"):
        raise ParseError(no, "expected 'turn <i>:'")
    i = _int_tok(no, toks[1][:-1], "turn index")
    if i != idx:
        raise ParseError(no, f"turn index {i} out of order, expected {idx}")
    try:
        vs = tuple(map(ids, toks[2:]))
        in_range = True  # every token hit the table
    except KeyError:  # any other token: read it as int() does
        in_range = False
        try:
            vs = tuple(map(int, toks[2:]))
        except ValueError:  # rerun token by token to name the bad one
            vs = tuple(_int_tok(no, x, "vertex") for x in toks[2:])
    if len(vs) != n_agents:
        raise ParseError(no, f"turn covers {len(vs)} agents, expected {n_agents}")
    if not in_range and vs and (min(vs) < 0 or max(vs) >= n_verts):
        bad = next(v for v in vs if not (0 <= v < n_verts))
        raise ParseError(no, f"unknown vertex id {bad}")
    return vs


class _Names(dict):
    """str(v) of each int vertex id, made on its first use."""

    def __missing__(self, v: int) -> str:
        name = self[v] = str(v)
        return name


def serialize_schedule(sched: Schedule) -> str:
    """Schedule text, one `turn <i>: v ...` line per row. After a turn that
    changed fewer than half of its _SLICE-agent slices (`_few_changed`),
    the text of each slice is kept, and only the slices that differ from
    the row before are joined again."""
    rows = sched.placements
    first = rows[0] if rows else ()
    # one str() per distinct id, not per token; the first row's ids in one go
    name = _Names(zip(first, map(str, first))).__getitem__
    out = [f"schedule {sched.makespan}"]
    prev: Placement = ()
    texts: Optional[List[str]] = None  # `_slice_texts` of prev, on a sparse turn
    for i, pl in enumerate(rows, start=1):
        if texts is not None and len(prev) == len(pl):
            changed = _changed_slices(prev, pl)
            for j in changed:
                cut = " ".join(map(name, pl[j : j + _SLICE]))
                texts[j // _SLICE] = cut + " " if j + _SLICE < len(pl) else cut
            row = "".join(texts)
            if 2 * len(changed) >= len(texts):
                texts = None
        elif _few_changed(prev, pl):
            texts = _slice_texts(list(map(name, pl)))
            row = "".join(texts)
        else:
            texts = None
            row = " ".join(map(name, pl))
        out.append(f"turn {i}: {row}")
        prev = pl
    out.append("")  # the last line's break, without a second copy of the text
    return "\n".join(out)
