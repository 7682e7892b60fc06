from __future__ import annotations

import random
import sys
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfdc import model
from mapfdc.errors import ParseError, PreconditionError
from mapfdc.gadgets import (
    build_pancake_instance,
    build_three_partition_instance,
    pancake_forward_schedule,
    preprocess_three_partition,
    three_partition_forward_schedule,
)
from mapfdc.graphs import Graph, complete_graph
from mapfdc.model import (
    ColoredGroup,
    ColoredInstance,
    Instance,
    Schedule,
    Verdict,
    detect_swaps,
    parse_colored_instance,
    parse_instance,
    parse_schedule,
    serialize_colored_instance,
    serialize_instance,
    serialize_schedule,
    validate_colored_schedule,
    validate_schedule,
)


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_detect_swaps_stationary_placements() -> None:
    assert detect_swaps((0, 1, 2), (0, 1, 2)) == []


def test_detect_swaps_edge_exchange() -> None:
    assert detect_swaps((0, 1), (1, 0)) == [(0, 1)]


def test_detect_swaps_triangle_rotation_is_clean() -> None:
    assert detect_swaps((0, 1, 2), (1, 2, 0)) == []


def test_detect_swaps_reports_every_pair() -> None:
    assert detect_swaps((0, 1, 2, 3), (1, 0, 3, 2)) == [(0, 1), (2, 3)]


def test_detect_swaps_rejects_mismatched_arity() -> None:
    with pytest.raises(PreconditionError):
        detect_swaps((0, 1), (0,))


def test_validate_accepts_empty_schedule_when_already_home() -> None:
    inst = Instance(_path(3), (0, 2), (0, 2))
    verdict = validate_schedule(inst, Schedule(()))
    assert verdict.ok and bool(verdict)


def test_validate_rejects_empty_schedule_away_from_target() -> None:
    inst = Instance(_path(3), (0,), (1,))
    verdict = validate_schedule(inst, Schedule(()))
    assert not verdict.ok
    assert verdict.rule == "target"
    assert verdict.turn == 0
    assert verdict.agents == (0,)


def test_validate_rejects_non_edge_move() -> None:
    inst = Instance(_path(3), (0,), (2,))
    verdict = validate_schedule(inst, Schedule(((2,),)))
    assert verdict.rule == "neighborhood"
    assert verdict.turn == 1
    assert verdict.agents == (0,)


def test_validate_rejects_vertex_collision() -> None:
    inst = Instance(complete_graph(3), (0, 1), (2, 2 - 1))
    verdict = validate_schedule(inst, Schedule(((2, 2),)))
    assert verdict.rule == "injective"
    assert verdict.turn == 1
    assert verdict.agents == (0, 1)


def test_validate_rejects_swap_on_first_turn() -> None:
    inst = Instance(_path(2), (0, 1), (1, 0))
    verdict = validate_schedule(inst, Schedule(((1, 0),)))
    assert verdict.rule == "swap"
    assert verdict.turn == 1
    assert verdict.agents == (0, 1)


def test_validate_reports_first_failing_turn() -> None:
    # turn 1 is fine, turn 2 breaks the neighborhood rule, turn 3 would
    # also collide; only the earliest violation is reported
    inst = Instance(_path(4), (0, 3), (1, 2))
    sched = Schedule(((1, 2), (3, 1), (3, 3)))
    verdict = validate_schedule(inst, sched)
    assert verdict.rule == "neighborhood"
    assert verdict.turn == 2


def test_validate_enforces_makespan_limit() -> None:
    inst = Instance(_path(2), (0,), (1,), makespan_limit=1)
    ok = validate_schedule(inst, Schedule(((1,),)))
    assert ok.ok
    padded = Schedule(((0,), (1,)))
    verdict = validate_schedule(inst, padded)
    assert verdict.rule == "limit"
    assert verdict.turn == 2


def test_validate_waiting_is_always_legal() -> None:
    inst = Instance(_path(3), (0, 2), (1, 2))
    sched = Schedule(((0, 2), (0, 2), (1, 2)))
    assert validate_schedule(inst, sched).ok


def test_colored_validator_accepts_group_set_targets() -> None:
    # two same-color agents trade places via the spare vertex
    g = complete_graph(3)
    inst = ColoredInstance(g, (ColoredGroup(1, (0, 1), (1, 0)),))
    collision = Schedule(((2, 1), (1, 1)))
    verdict = validate_colored_schedule(inst, collision)
    assert not verdict.ok and verdict.rule == "injective"
    sched = Schedule(((2, 1), (2, 0), (1, 0)))
    assert validate_colored_schedule(inst, sched).ok
    # staying put also works: the final set {0, 1} already matches
    assert validate_colored_schedule(inst, Schedule(((0, 1),))).ok


def test_colored_validator_accepts_empty_schedule_on_target_set() -> None:
    g = _path(3)
    inst = ColoredInstance(g, (ColoredGroup(1, (0, 2), (2, 0)),))
    assert validate_colored_schedule(inst, Schedule(())).ok


def test_colored_validator_rejects_cross_group_targets() -> None:
    g = complete_graph(4)
    inst = ColoredInstance(
        g,
        (
            ColoredGroup(1, (0,), (1,)),
            ColoredGroup(2, (2,), (3,)),
        ),
    )
    # group 1's agent parks on group 2's target
    sched = Schedule(((3, 1),))
    verdict = validate_colored_schedule(inst, sched)
    assert not verdict.ok
    assert verdict.rule == "target"
    assert "group 1" in verdict.message


def test_colored_validator_shares_motion_rules() -> None:
    g = _path(2)
    inst = ColoredInstance(g, (ColoredGroup(1, (0, 1), (0, 1)),))
    verdict = validate_colored_schedule(inst, Schedule(((1, 0),)))
    assert verdict.rule == "swap"


def test_parse_minimal_instance() -> None:
    inst = parse_instance("mapf 1\nvertices 1\nagent 0 0\n")
    assert inst.graph.n == 1
    assert inst.starts == (0,) and inst.targets == (0,)
    assert inst.makespan_limit is None


def test_parse_instance_comments_and_limit() -> None:
    text = (
        "mapf 1       # header\n"
        "vertices 3\n"
        "\n"
        "edge 0 1\n"
        "edge 1 2     # a path\n"
        "agent 0 2\n"
        "limit 7\n"
    )
    inst = parse_instance(text)
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.makespan_limit == 7


def test_instance_round_trip() -> None:
    inst = Instance(complete_graph(4), (0, 1, 3), (3, 1, 0), makespan_limit=9)
    again = parse_instance(serialize_instance(inst))
    assert again.graph == inst.graph
    assert again.starts == inst.starts
    assert again.targets == inst.targets
    assert again.makespan_limit == 9


def test_parse_instance_duplicate_start_reports_line() -> None:
    text = "mapf 1\nvertices 3\nagent 0 1\nagent 0 2\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 4
    assert "duplicate start" in str(err.value)


def test_parse_instance_rejects_bad_header_and_unknown_directive() -> None:
    with pytest.raises(ParseError):
        parse_instance("graph 1\nvertices 1\nagent 0 0\n")
    with pytest.raises(ParseError):
        parse_instance("mapf 1\nvertices 1\nagent 0 0\nwibble 3\n")
    with pytest.raises(ParseError):
        parse_instance("")


# (graph head after the header line, line of the error, message). The head
# is followed by a valid agent or group section, so the graph lines are the
# first fault in the file.
GRAPH_HEAD_ERRORS = [
    ("vertices 2\nedge 0 0\n", 3, "self-loop at vertex 0"),
    ("vertices 2\nedge 0 5\n", 3, "unknown vertex id in edge 0 5"),
    ("vertices 2\nedge -1 1\n", 3, "unknown vertex id in edge -1 1"),
    ("vertices 2\nedge 0 1\nedge 0 1\n", 4, "duplicate edge 0 1"),
    ("vertices 2\nedge 0 1\nedge 1 0\n", 4, "duplicate edge 1 0"),
    ("vertices 2\nedge 0 x\n", 3, "expected integer endpoint, got 'x'"),
    ("vertices 2\nedge 1.5 y\n", 3, "expected integer endpoint, got '1.5'"),
    ("vertices 2\nedge 0\n", 3, "edge takes two endpoints"),
    ("vertices 2\nedge 0 1 1\n", 3, "edge takes two endpoints"),
    ("edge 0 1\nvertices 2\n", 2, "edge before vertices line"),
    ("vertices 2\nedge 0 0   # a loop\n", 3, "self-loop at vertex 0"),
    ("vertices 2\nedge 0 1 # ok\nedge 1 0#again\n", 4, "duplicate edge 1 0"),
    ("vertices 2\n\n# gap\nedge 0 5\n", 5, "unknown vertex id in edge 0 5"),
    ("vertices x\n", 2, "expected integer vertex count, got 'x'"),
    ("vertices -1\n", 2, "vertex count must be non-negative"),
    ("vertices 2 3\n", 2, "vertices takes one count"),
    ("vertices 2\nvertices 2\n", 3, "duplicate vertices line"),
]

def _parse_error(parse, text: str) -> ParseError:
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


def _check_graph_line_errors(parse, header: str, tail: str) -> None:
    """Every case of GRAPH_HEAD_ERRORS, then the file-level faults, for one
    format; `tail` is a valid section after the graph."""
    for head, line, message in GRAPH_HEAD_ERRORS:
        err = _parse_error(parse, f"{header} 1\n{head}{tail}")
        assert (err.line, str(err)) == (line, f"line {line}: {message}")
        # blank and comment-only lines before the header shift every line number
        err = _parse_error(parse, f"\n# intro\n\n{header} 1\n{head}{tail}")
        assert (err.line, str(err)) == (line + 3, f"line {line + 3}: {message}")
    for text in ("", "\n", "# only a comment\n\n"):
        err = _parse_error(parse, text)
        assert (err.line, str(err)) == (1, "line 1: empty file")
    err = _parse_error(parse, f"\n# intro\nwrong 1\nvertices 2\n{tail}")
    assert (err.line, str(err)) == (3, f"line 3: expected header '{header} 1'")
    # reported on the last content line; trailing blanks and comments do not count
    last = 1 + tail.count("\n")
    for text in (f"{header} 1\n{tail}", f"{header} 1\n{tail}\n# end\n\n"):
        err = _parse_error(parse, text)
        assert (err.line, str(err)) == (last, f"line {last}: missing vertices line")


def test_parse_instance_rejects_edge_problems() -> None:
    _check_graph_line_errors(parse_instance, "mapf", "agent 0 1\n")


def test_parse_colored_instance_rejects_edge_problems() -> None:
    _check_graph_line_errors(parse_colored_instance, "cmapf", "group 1\nstarts 0\ntargets 1\n")


# Faults and unusual spellings planted in a long run of edge lines. Most sit
# in the last quarter of the run, far past the first 64 KB block.
HEAD_MUTATIONS = [
    "clean", "bad token deep", "out of range deep", "loop deep",
    "reverse in a later block", "repeat in the block", "edge before vertices",
    "vertices twice", "crlf", "tabs", "comments", "leading zero", "plus sign",
    "agents interleaved", "blank lines", "long line", "form feed",
    "non-ascii digit", "no final newline", "one endpoint last",
    "three endpoints last", "one and three endpoints in a block",
    "double space", "trailing space", "edge as an endpoint",
]
# the only mutation that keeps the writers' layout: every other text goes
# to the line reader
IN_BULK = {"clean"}
# lines added after the valid section of an IN_BULK text, with whether the
# bulk reader keeps it: a later edge or vertices line belongs to the graph,
# so such a text goes to the line reader. Every other mutation is declined
# whatever follows it.
EXTRA_TAILS = [
    ("edge 5 6\n", False),
    ("edge\t7 8\n", False),
    ("vertices 3\n", False),
    ("limit 4\n# done\n\n  \n", True),
]


def _graph_head(n: int, pairs: Sequence[Tuple[int, int]]) -> List[str]:
    return [f"vertices {n}"] + [f"edge {u} {v}" for u, v in pairs]


def _dense_pairs(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """About 60% of all pairs in serialized order, one in twenty reversed."""
    return [
        (v, u) if rng.random() < 0.05 else (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.6
    ]


def _mutated_head(kind: str, lines: List[str], n: int, rng: random.Random) -> str:
    out = list(lines)
    deep = rng.randrange(len(out) * 3 // 4, len(out))
    u, v = out[deep].split()[1:]
    if kind == "bad token deep":
        out[deep] = f"edge {u} x"
    elif kind == "out of range deep":
        out[deep] = f"edge {u} {n}"
    elif kind == "loop deep":
        out[deep] = f"edge {u} {u}"
    elif kind == "reverse in a later block":
        a, b = out[1 + rng.randrange(100)].split()[1:]
        out.insert(deep, f"edge {b} {a}")
    elif kind == "repeat in the block":
        out.insert(deep, out[deep])
    elif kind == "edge before vertices":
        out.insert(6, out.pop(0))
    elif kind == "vertices twice":
        out.insert(deep, out[0])
    elif kind == "tabs":  # a line that begins `edge\t` ends the run, one inside it does not
        out[deep] = f"edge\t{u} \t{v}"
        out[deep - 1] = out[deep - 1].replace(" ", "\t").replace("\t", " ", 1)
    elif kind == "comments":
        out[deep] += "  # trailing note"
        out.insert(deep, "# a comment line")
    elif kind == "leading zero":
        out[deep] = f"edge 0{u} {v}"
    elif kind == "plus sign":
        out[deep] = f"edge +{u} {v}"
    elif kind == "agents interleaved":
        for i, at in enumerate(sorted(rng.sample(range(1, len(out)), 3), reverse=True)):
            out.insert(at, f"agent {2 * i + 4} {2 * i + 5}")
    elif kind == "blank lines":
        out[deep:deep] = ["", "   "]
    elif kind == "long line":
        out[deep] = f"edge {u}{' ' * 70_000}{v}"
    elif kind == "form feed":
        out[deep] = f"edge {u}\f{v}"
    elif kind == "non-ascii digit":
        out[deep] = f"edge {u} {v}٣"
    elif kind == "one endpoint last":
        out[-1] = " ".join(out[-1].split()[:2])
    elif kind == "three endpoints last":
        out[-1] += " " + out[-1].split()[1]
    elif kind == "one and three endpoints in a block":  # tokens as many as two good lines
        out[deep - 1] = " ".join(out[deep - 1].split()[:2])
        out[deep] += f" {u}"
    elif kind == "double space":
        out[deep] = f"edge {u}  {v}"
    elif kind == "trailing space":
        out[deep] += " "
    elif kind == "edge as an endpoint":
        out[deep] = f"edge {u} edge"
    text = "\n".join(out) + "\n"
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    return text


def _read_both_ways(monkeypatch: pytest.MonkeyPatch, parse, text: str):
    """Parse `text` as it is, then with the bulk reader off (patched to
    return None); assert equal outcomes and return the first, with the
    number of edge lines read in blocks and whether the bulk reader
    returned the graph head."""
    read_head, parse_head = model._read_written_head, model._parse_graph_lines
    read_block = model._read_edge_block
    outcomes = []
    for bulk in (True, False):
        heads: list = []
        in_bulk: List[bool] = []
        block_lines: List[int] = []

        def written_head(text: str, header: str, bulk: bool = bulk):
            got = read_head(text, header) if bulk else None
            in_bulk.append(got is not None)
            return got

        def head(text: str, header: str):
            heads.append(parse_head(text, header))
            return heads[-1]

        def counted_block(block: str, ids, ends, nbr) -> int:
            block_lines.append(read_block(block, ids, ends, nbr))
            return block_lines[-1]

        with monkeypatch.context() as mp:
            mp.setattr(model, "_read_written_head", written_head)
            mp.setattr(model, "_parse_graph_lines", head)
            mp.setattr(model, "_read_edge_block", counted_block)
            try:
                got = (parse(text), *heads[-1])
            except ParseError as exc:
                got = (exc.line, str(exc))
        outcomes.append((got, sum(block_lines), in_bulk == [True]))
    (got, bulk_lines, in_bulk), (want, _, line_by_line) = outcomes
    assert got == want
    assert not line_by_line
    return got, bulk_lines, in_bulk


@pytest.mark.parametrize(
    "parse, header, tail",
    [
        (parse_instance, "mapf", "agent 0 1\nagent 2 3\n"),
        (parse_colored_instance, "cmapf", "group 1\nstarts 0 2\ntargets 1 3\n"),
    ],
    ids=["plain", "colored"],
)
def test_block_reader_matches_the_line_reader(monkeypatch, parse, header, tail) -> None:
    n = 300
    rng = random.Random(17)
    lines = _graph_head(n, _dense_pairs(n, rng))
    assert len("\n".join(lines)) > 3 * (1 << 16)
    for kind in HEAD_MUTATIONS:
        head = _mutated_head(kind, lines, n, rng)
        for extra, kept in [("", True)] + EXTRA_TAILS * (kind in IN_BULK):
            text = f"{header} 1\n{head}{tail}{extra}"
            if kind == "no final newline":
                text = f"{header} 1\n{head}".rstrip("\n")
            got, bulk_lines, in_bulk = _read_both_ways(monkeypatch, parse, text)
            if kind == "clean" and kept:
                assert got[1] == Graph(n, [map(int, ln.split()[1:]) for ln in lines[1:]])
            assert in_bulk == (kind in IN_BULK and kept), (kind, extra)
            if in_bulk:
                assert bulk_lines == len(lines) - 1


def test_block_reader_matches_the_line_reader_on_many_vertices(monkeypatch) -> None:
    # more vertices than a block has endpoints: loops and repeats are still
    # found, once, when the neighbour lists are frozen
    n = 20_000
    rng = random.Random(23)
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(15_000)})
    lines = _graph_head(n, pairs)
    for kind in ("clean", "reverse in a later block", "repeat in the block", "loop deep"):
        text = "mapf 1\n" + _mutated_head(kind, lines, n, rng) + "agent 0 1\n"
        got, bulk_lines, in_bulk = _read_both_ways(monkeypatch, parse_instance, text)
        assert bulk_lines == text.count("\nedge ")  # every block read, then frozen
        assert isinstance(got[0], Instance) == (kind == "clean") == in_bulk


def test_parse_instance_peak_memory_stays_near_the_graph(monkeypatch) -> None:
    # edge lines are read a block at a time, so the parse never holds a
    # token per edge of a dense file, and neighbour lists are frozen
    # through sets, never straight from lists
    n = 310
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    text = serialize_instance(Instance(Graph(n, edges), tuple(range(100)), tuple(range(100))))

    def line_reader(text: str, header: str):
        raise AssertionError("a written text went to the line reader")

    monkeypatch.setattr(model, "_read_graph_lines", line_reader)
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    built = Graph(n, edges)
    for v in range(n):
        assert sys.getsizeof(inst.graph.neighbor_set(v)) <= sys.getsizeof(built.neighbor_set(v))
    assert peak <= 1.5 * retained  # 1.16x; sets filled edge by edge peak at 2.7x


def test_edge_block_proof_takes_each_line_as_edge_u_v() -> None:
    ids = model._vertex_ids(12)
    ends = {t + "\nedge": v for t, v in ids.items()}
    adj: List[List[int]] = [[] for _ in range(12)]
    assert model._read_edge_block("edge 0 1\nedge 11 2\n", ids, ends, adj) == 2
    assert adj[0] == [1] and adj[11] == [2] and adj[2] == [11]
    for block in (
        "edge 3\nedge 4 5 6\n",  # as many tokens as two lines of two endpoints
        "edge 3 4 5\nedge 6\n", "edge 3 4\nedge 5\n", "agent 3 4\n", "edges 3 4\n",
        "edge 3  4\n", "edge 3 4 \nedge 5 6\n", " edge 3 4\n", "edge 3 4\n\nedge 5 6\n",
        "edge 3 4\n\n",
        "edge 3 edge\n", "edge edge 4\n", "edge 3 4\nedge edge 5\n", "edge 3 12\n",
        "edge 03 4\n", "edge 3 4\nvertices 5 6\n", "edge 3 4\tedge 5 6\n", "edge\n", "",
    ):
        assert model._read_edge_block(block, ids, ends, adj) == 0, block
    assert sum(map(len, adj)) == 4  # nothing appended by a declined block


@pytest.mark.parametrize("parse, header, tail", [
    (parse_instance, "mapf", "agent 0 1\n"),
    (parse_colored_instance, "cmapf", "group 1\nstarts 0\ntargets 1\n"),
])
@pytest.mark.parametrize("filler", [0, 300])
def test_a_declared_vertex_count_costs_one_slot_per_vertex(parse, header, tail, filler) -> None:
    # 200,000 vertices, no edges; with 300 comment lines the text is long
    # enough for the bulk reader, which declines a count above the text's length
    n = 200_000
    text = f"{header} 1\nvertices {n}\n" + "# filler\n" * filler + tail
    assert (len(text) >= model._BULK_MIN) == bool(filler)
    assert model._read_written_head(text, header) is None
    tracemalloc.start()
    try:
        inst = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.graph == Graph(n, [])
    assert len({id(inst.graph.neighbor_set(v)) for v in range(n)}) == 1  # one shared empty set
    assert peak <= 40 * n  # 25 bytes a vertex; a set per vertex, then a frozenset, took 450


def test_colored_instance_round_trip() -> None:
    inst = ColoredInstance(
        complete_graph(5),
        (
            ColoredGroup(1, (0, 1), (2, 3)),
            ColoredGroup(2, (4,), (0,)),
        ),
        makespan_limit=11,
    )
    again = parse_colored_instance(serialize_colored_instance(inst))
    assert again.graph == inst.graph
    assert again.groups == inst.groups
    assert again.makespan_limit == 11
    assert again.all_starts == (0, 1, 4)
    assert [len(g.starts) for g in again.groups] == [2, 1]


def test_parse_colored_rejects_non_sequential_groups() -> None:
    text = (
        "cmapf 1\nvertices 3\n"
        "group 2\nstarts 0\ntargets 1\n"
    )
    with pytest.raises(ParseError):
        parse_colored_instance(text)


def test_both_instance_forms_reject_a_negative_limit() -> None:
    with pytest.raises(ParseError, match="line 5: limit must be non-negative"):
        parse_instance("mapf 1\nvertices 2\nedge 0 1\nagent 0 1\nlimit -1\n")
    with pytest.raises(ParseError, match="line 7: limit must be non-negative"):
        parse_colored_instance(
            "cmapf 1\nvertices 2\nedge 0 1\ngroup 1\nstarts 0\ntargets 1\nlimit -1\n"
        )
    with pytest.raises(PreconditionError, match="makespan limit must be non-negative"):
        Instance(_path(2), (0,), (1,), makespan_limit=-1)
    with pytest.raises(PreconditionError, match="makespan limit must be non-negative"):
        ColoredInstance(_path(2), (ColoredGroup(1, (0,), (1,)),), makespan_limit=-1)


def test_parse_schedule_zero_makespan() -> None:
    inst = Instance(_path(2), (0,), (0,))
    sched = parse_schedule("schedule 0\n", inst)
    assert sched.makespan == 0
    assert validate_schedule(inst, sched).ok


def test_parse_schedule_wrong_arity_reports_line() -> None:
    inst = Instance(_path(3), (0, 2), (1, 2))
    with pytest.raises(ParseError) as err:
        parse_schedule("schedule 1\nturn 1: 1\n", inst)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ("turn 1: 1 2\nturn 2: 1 x\n", 3, "expected integer vertex, got 'x'"),
        ("turn 1: 1 2\nturn 2: 9 1.0\n", 3, "expected integer vertex, got '1.0'"),
        ("turn 1: 1 2\nturn 2: 1 3\n", 3, "unknown vertex id 3"),
        ("turn 1: -1 2\nturn 2: 1 2\n", 2, "unknown vertex id -1"),
        ("turn 1: 1 2\nturn 2: 7 -2\n", 3, "unknown vertex id 7"),
        ("turn 1: 1 2\n# note\nturn 2: 1 2 5  # extra\n", 4, "turn covers 3 agents, expected 2"),
    ],
)
def test_parse_schedule_rejects_bad_vertices_with_line(rows: str, line: int, message: str) -> None:
    inst = Instance(_path(3), (0, 2), (1, 2))
    with pytest.raises(ParseError) as err:
        parse_schedule("schedule 2\n" + rows, inst)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_parse_schedule_truncated_and_misordered() -> None:
    inst = Instance(_path(2), (0,), (1,))
    with pytest.raises(ParseError):
        parse_schedule("schedule 2\nturn 1: 1\n", inst)
    with pytest.raises(ParseError):
        parse_schedule("schedule 2\nturn 1: 0\nturn 3: 1\n", inst)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("schedule 3\nturn 1: 1 x\nturn 2: 1 2\n", 3, "expected 3 turn lines, found 2"),
        ("schedule 1\nturn 1: 9 2\nturn 2: 1 2\n", 3, "expected 1 turn lines, found 2"),
        ("schedule 2\nturn 2: 1 2\n", 2, "expected 2 turn lines, found 1"),
    ],
)
def test_parse_schedule_reports_the_turn_count_before_a_bad_row(
    text: str, line: int, message: str
) -> None:
    inst = Instance(_path(3), (0, 2), (1, 2))
    with pytest.raises(ParseError) as err:
        parse_schedule(text, inst)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_parse_schedule_peak_memory_stays_near_the_result() -> None:
    # rows are converted as they are read, so the parse never holds every
    # row's tokens at once: 2,000 agents over 300 turns, on which every
    # agent moves, or a handful do (read slice by slice)
    n_agents, turns = 2000, 300
    inst = Instance(_path(4000), tuple(range(n_agents)), tuple(range(n_agents)))
    rng = random.Random(3)
    dense = [tuple(rng.sample(range(256, 4000), n_agents)) for _ in range(turns)]
    row = list(dense[0])
    sparse = []
    for _ in range(turns):
        for a in rng.sample(range(n_agents), 12):
            row[a] = rng.randrange(256, 4000)
        sparse.append(tuple(row))
    for rows in (dense, sparse):
        text = serialize_schedule(Schedule(tuple(rows)))
        tracemalloc.start()
        try:
            sched = parse_schedule(text, inst)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sched.placements == tuple(rows)
        assert peak <= 1.5 * retained


def test_schedule_round_trip() -> None:
    inst = Instance(complete_graph(3), (0, 1), (1, 2))
    sched = Schedule(((1, 2),))
    again = parse_schedule(serialize_schedule(sched), inst)
    assert again == sched
    assert validate_schedule(inst, again).ok


def test_lines_match_splitlines() -> None:
    # every line break of str.splitlines, "\r\n" and doubled breaks included
    alphabet = ["a", "7", " ", "#", "\n", "\r", "\r\n", "\v", "\f", "\x1c",
                "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\t", "\u0663"]
    rng = random.Random(11)
    for _ in range(20000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(12)))
        assert list(model._lines(text)) == text.splitlines(), repr(text)


def _reference_parse_schedule(text: str, inst) -> Schedule:
    """The schedule reader without the id table: `str.splitlines` and
    `int()` on every token, then a range check of every row."""

    def int_tok(no: int, tok: str, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ParseError(no, f"expected integer {what}, got {tok!r}") from None

    def content_lines():
        for no, raw in enumerate(text.splitlines(), start=1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                yield no, toks

    def turn(no: int, toks: List[str], idx: int) -> Tuple[int, ...]:
        if toks[0] != "turn":
            raise ParseError(no, "expected turn line")
        if len(toks) < 2 or not toks[1].endswith(":"):
            raise ParseError(no, "expected 'turn <i>:'")
        i = int_tok(no, toks[1][:-1], "turn index")
        if i != idx:
            raise ParseError(no, f"turn index {i} out of order, expected {idx}")
        vs = tuple(int_tok(no, x, "vertex") for x in toks[2:])
        if len(vs) != inst.n_agents:
            raise ParseError(no, f"turn covers {len(vs)} agents, expected {inst.n_agents}")
        for v in vs:
            if not (0 <= v < inst.graph.n):
                raise ParseError(no, f"unknown vertex id {v}")
        return vs

    lines = content_lines()
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty schedule file")
    no, toks = first
    if toks[0] != "schedule" or len(toks) != 2:
        raise ParseError(no, "expected header 'schedule <m>'")
    m = int_tok(no, toks[1], "makespan")
    if m < 0:
        raise ParseError(no, "makespan must be non-negative")
    rows: List[Tuple[int, ...]] = []
    bad: Optional[ParseError] = None
    found = 0
    for no, toks in lines:
        found += 1
        if bad is None and found <= m:
            try:
                rows.append(turn(no, toks, found))
            except ParseError as exc:
                bad = exc
    if found != m:
        raise ParseError(no, f"expected {m} turn lines, found {found}")
    if bad is not None:
        raise bad
    return Schedule(tuple(rows))


def _parse_or_error(parse, text: str, inst) -> Union[Schedule, Tuple[int, str]]:
    try:
        return parse(text, inst)
    except ParseError as exc:
        return exc.line, str(exc)


# Tokens int() reads as a vertex of a 12-vertex path but the id table misses
_NON_CANONICAL = ["007", "03", "+3", "-0", "1_0", "\u0663", "\uff13", "0_3"]
# Tokens that are no integer, or name no vertex of a 12-vertex path
_BAD_TOKENS = ["12", "40", "-1", "-07", "x", "3.0", "1e1", "0x3", "3:", "_3"]


def test_schedule_reader_matches_the_int_reader_on_non_canonical_tokens() -> None:
    inst = Instance(_path(12), (0, 5), (1, 6))
    for tok in _NON_CANONICAL:
        for row in (f"{tok} 6", f"1 {tok}", f" {tok}  {tok} ", f"{tok}\t2"):
            text = f"schedule 2\nturn 1: 1 6\r\nturn 2: {row}\n"
            got = _parse_or_error(parse_schedule, text, inst)
            assert got == _parse_or_error(_reference_parse_schedule, text, inst), repr(text)


def test_schedule_reader_matches_the_int_reader_on_random_rows() -> None:
    rng = random.Random(5)
    n, agents = 12, 3
    inst = Instance(_path(n), tuple(range(agents)), tuple(range(agents)))

    def token() -> str:
        r = rng.random()
        if r < 0.8:
            return str(rng.randrange(n))
        return rng.choice(_NON_CANONICAL if r < 0.9 else _BAD_TOKENS)

    outcomes = {"rows": 0, "errors": 0}
    for _ in range(3000):
        m = rng.randrange(4)
        lines = [f"schedule {m + rng.choice((0, 0, 0, 1, -1))}"]
        for i in range(1, m + 1):
            width = agents + rng.choice((0, 0, 0, 0, 1, -1))
            lines.append(f"turn {i}: " + " ".join(token() for _ in range(width)))
            if rng.random() < 0.1:
                lines.append("# a comment")
        text = rng.choice(("\n", "\r\n")).join(lines) + "\n"
        got = _parse_or_error(parse_schedule, text, inst)
        assert got == _parse_or_error(_reference_parse_schedule, text, inst), repr(text)
        outcomes["rows" if isinstance(got, Schedule) else "errors"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_serialize_schedule_writes_str_of_every_id() -> None:
    rng = random.Random(9)
    for _ in range(500):
        agents, turns = rng.randrange(5), rng.randrange(5)
        sched = Schedule(tuple(
            tuple(rng.choice((rng.randrange(-3, 300), rng.randrange(10**6, 10**20)))
                  for _ in range(agents))
            for _ in range(turns)
        ))
        want = "\n".join(
            [f"schedule {turns}"]
            + [f"turn {i}: " + " ".join(map(str, pl)) for i, pl in enumerate(sched.placements, 1)]
        ) + "\n"
        assert serialize_schedule(sched) == want


def _sparse_rows(
    rng: random.Random, ids: Sequence[int], agents: int, turns: int
) -> List[Tuple[int, ...]]:
    """Rows of `agents` ids drawn from `ids`: most turns move a few agents
    (none, now and then), some move every agent, and some half of them."""
    row = [rng.choice(ids) for _ in range(agents)]
    rows = []
    for _ in range(turns):
        kind = rng.random()
        if kind < 0.15:
            movers = range(agents)
        elif kind < 0.25:
            movers = rng.sample(range(agents), agents // 2)
        else:
            movers = rng.sample(range(agents), rng.randrange(5))
        for a in movers:
            row[a] = rng.choice(ids)
        rows.append(tuple(row))
    return rows


def test_serialize_schedule_matches_a_plain_join_on_rows_wider_than_a_slice(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # rows of 65-700 agents, written slice by slice on the turns after one
    # that changed few slices; ids whose digit count changes from
    # turn to turn, negative ids and ids above 10**6
    ids = [0, 5, 9, 10, 11, 99, 100, 101, 999, 1000, -1, -9, -10, -100,
           10**6 - 1, 10**6, 10**6 + 1, 123_456_789, 10**20]
    sparse_turns: List[int] = []
    changed = model._changed_slices

    def counted(prev: Sequence[int], cur: Sequence[int]) -> List[int]:
        sparse_turns.append(1)
        return changed(prev, cur)

    monkeypatch.setattr(model, "_changed_slices", counted)
    rng = random.Random(28)
    for _ in range(60):
        agents = rng.randrange(65, 701)
        rows = _sparse_rows(rng, ids, agents, rng.randrange(1, 12))
        if rng.random() < 0.2:  # a row of another width ends the sparse run
            narrow = tuple(rng.choice(ids) for _ in range(agents - 1))
            rows.insert(rng.randrange(len(rows) + 1), narrow)
        want = "\n".join(
            [f"schedule {len(rows)}"]
            + [f"turn {i}: " + " ".join(map(str, pl)) for i, pl in enumerate(rows, 1)]
        ) + "\n"
        assert serialize_schedule(Schedule(tuple(rows))) == want
    assert len(sparse_turns) > 100


def _edit_late_slice(kind: str, lines: List[str], n_verts: int, rng: random.Random) -> str:
    """Schedule text `lines` (header first, in the writers' layout) with one
    edit of `kind` placed in a late slice of a late turn."""
    lines = list(lines)
    t = rng.randrange(max(1, len(lines) - 3), len(lines))
    head, _, body = lines[t].partition(": ")
    toks = body.split(" ")
    slices = -(-len(toks) // model._SLICE)
    late = rng.randrange(max(0, slices - 2), slices)
    at = min(len(toks) - 1, model._SLICE * late + rng.randrange(model._SLICE))
    sep = [" "] * (len(toks) - 1)
    tail = ""
    if kind == "zeros":
        toks[at] = "00" + toks[at]
    elif kind == "plus":
        toks[at] = "+" + toks[at]
    elif kind == "out of range":
        toks[at] = rng.choice((str(n_verts), str(n_verts + 70), "-1"))
    elif kind == "tab":
        sep[at - 1] = "\t"
    elif kind == "double space":
        sep[at - 1] = "  "
    elif kind == "trailing space":
        tail = " "
    elif kind == "comment":
        tail = rng.choice((" # note", "#"))
    elif kind == "comment inside":
        toks[at] += "#"
    elif kind == "length":
        toks[at] = str(rng.choice([v for v in (9, 10, 99, 100, 999, 1000) if v < n_verts]))
    elif kind == "repeat":
        toks = lines[t - 1].partition(": ")[2].split(" ") if t > 1 else toks
        sep = [" "] * (len(toks) - 1)
    elif kind == "extra":
        toks.append(str(rng.randrange(n_verts)))
        sep.append(" ")
    elif kind == "missing":
        del toks[at]
        del sep[-1]
    body = toks[0] + "".join(s + tok for s, tok in zip(sep, toks[1:]))
    lines[t] = f"{head}: {body}{tail}"
    return "\n".join(lines) + "\n"


_LATE_EDITS = ["zeros", "plus", "out of range", "tab", "double space", "trailing space",
               "comment", "comment inside", "length", "repeat", "extra", "missing"]


def test_schedule_reader_matches_the_int_reader_on_edited_sparse_schedules(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # multi-slice schedules on which few agents move per turn, one edit in
    # a late slice of a late turn, "\n" or "\r\n" line ends, and now and
    # then no break after the last line: the slice-by-slice reader and the
    # whole-row readers must give the rows or the (line, message) of the
    # plain int() reader
    sparse = {"read": 0, "declined": 0}
    read_sparse = model._read_sparse_turn

    def counted(*args):
        got = read_sparse(*args)
        sparse["read" if got is not None else "declined"] += 1
        return got

    monkeypatch.setattr(model, "_read_sparse_turn", counted)
    rng = random.Random(17)
    outcomes = {"rows": 0, "errors": 0}
    for trial in range(240):
        n_verts = rng.choice((420, 1100, 1500))
        agents = rng.choice((129, 192, 193, 256, 257, 321, rng.randrange(65, 400)))
        inst = Instance(_path(n_verts), tuple(range(agents)), tuple(range(agents)))
        rows = _sparse_rows(rng, range(n_verts), agents, rng.randrange(3, 9))
        lines = serialize_schedule(Schedule(tuple(rows))).split("\n")[:-1]
        text = _edit_late_slice(_LATE_EDITS[trial % len(_LATE_EDITS)], lines, n_verts, rng)
        if rng.random() < 0.3:
            text = text.replace("\n", "\r\n")
        if rng.random() < 0.3:  # no break after the last line
            text = text.rstrip("\r\n")
        got = _parse_or_error(parse_schedule, text, inst)
        assert got == _parse_or_error(_reference_parse_schedule, text, inst), repr(text[-300:])
        outcomes["rows" if isinstance(got, Schedule) else "errors"] += 1
    assert min(outcomes.values()) > 60, outcomes
    assert sparse["read"] > 200 and sparse["declined"] > 50, sparse


def _witnesses() -> Dict[str, Tuple[Instance, Schedule]]:
    spec = preprocess_three_partition((1, 1, 1, 1, 1, 1))
    tp, reg = build_three_partition_instance(spec)
    pk, pk_reg = build_pancake_instance((3, 5, 1, 4, 2), 5)
    return {
        "three-partition": (
            tp, three_partition_forward_schedule(spec, tp, reg, ((1, 2, 3), (4, 5, 6)))
        ),
        "pancake": (pk, pancake_forward_schedule(pk, pk_reg, (4, 3, 5, 3, 4))),
    }


def test_witness_turns_take_the_reader_their_sparsity_calls_for(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A three-partition witness (1,781 agents, 28 slices) moves a few agents
    # per turn: after the first two turns, read whole, every turn is read
    # slice by slice, and the writer joins the changed slices alone. On a
    # pancake witness (390 agents) nearly every agent moves: every turn is
    # read and written whole. No line of the writers' layout reaches
    # `_parse_turn`. A silent fallback would keep the answers and lose the
    # gain; this test sees it.
    turns: Dict[str, List[int]] = {}

    def spy(name: str, turn_of: Callable[..., int]) -> None:
        real = getattr(model, name)
        turns[name] = []

        def counted(*args):
            got = real(*args)
            if got is not None and got is not False:
                turns[name].append(turn_of(*args))
            return got

        monkeypatch.setattr(model, name, counted)

    head_turn = lambda text, p, stop, head, *rest: int(head[5:-2])  # noqa: E731
    spy("_read_whole_turn", head_turn)
    spy("_read_sparse_turn", head_turn)
    spy("_parse_turn", lambda no, toks, idx, *rest: idx)
    spy("_few_changed", lambda prev, cur: 0)
    spy("_changed_slices", lambda prev, cur: 0)
    for kind, (inst, sched) in _witnesses().items():
        m = sched.makespan
        for name in turns:
            turns[name] = []
        text = serialize_schedule(sched)
        written = (len(turns["_few_changed"]), len(turns["_changed_slices"]))
        assert parse_schedule(text, inst) == sched
        assert validate_schedule(inst, sched).ok
        assert turns["_parse_turn"] == []
        if kind == "pancake":
            assert written == (0, 0)
            assert turns["_read_whole_turn"] == list(range(1, m + 1))
            assert turns["_read_sparse_turn"] == []
        else:
            # turn 2 is counted exactly and starts the run; turns 3.. compare slices
            assert written == (1, m - 1)
            assert turns["_read_whole_turn"] == [1, 2]
            assert turns["_read_sparse_turn"] == list(range(3, m + 1))


def test_a_sparse_run_ends_after_a_turn_that_changes_half_the_slices(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # 300 agents (5 slices): turns 1-4 and 7-9 move one agent, turns 5-6
    # move all. The reader reads turns 1-2 and 6-7 whole: turn 5 changed
    # every slice, so turn 6 is read whole and found dense, and turn 7 whole
    # again, found sparse. The writer decides the same turns by
    # `_few_changed`: dense, sparse, dense, sparse.
    agents = 300
    inst = Instance(_path(1000), tuple(range(agents)), tuple(range(agents)))
    rng = random.Random(6)
    row = list(range(agents))
    rows = []
    for turn in range(1, 10):
        for a in range(agents) if turn in (5, 6) else (rng.randrange(agents),):
            row[a] = rng.randrange(300, 1000)
        rows.append(tuple(row))
    sched = Schedule(tuple(rows))
    calls: Dict[str, List[object]] = {
        "_few_changed": [], "_read_whole_turn": [], "_read_sparse_turn": []
    }
    for name, log in calls.items():
        real = getattr(model, name)

        def counted(*args, real=real, log=log, name=name):
            got = real(*args)
            log.append(got if name == "_few_changed" else int(args[3][5:-2]))
            return got

        monkeypatch.setattr(model, name, counted)
    text = serialize_schedule(sched)
    assert calls["_few_changed"] == [False, True, False, True]
    calls["_few_changed"].clear()
    assert parse_schedule(text, inst) == sched
    assert calls["_read_whole_turn"] == [1, 2, 6, 7]
    assert calls["_read_sparse_turn"] == [3, 4, 5, 8, 9]
    assert calls["_few_changed"] == [True, False, True]  # turns 2, 6 and 7


def test_schedule_round_trip_shares_one_int_per_vertex() -> None:
    rng = random.Random(4)
    n = 2000
    for agents, turns in ((0, 0), (0, 3), (5, 0), (40, 30)):
        inst = Instance(_path(n), tuple(range(agents)), tuple(range(agents)))
        sched = Schedule(tuple(
            tuple(rng.sample(range(n), agents)) for _ in range(turns)
        ))
        again = parse_schedule(serialize_schedule(sched), inst)
        assert again == sched
        seen: Dict[int, int] = {}
        for pl in again.placements:
            for v in pl:
                assert seen.setdefault(v, v) is v


def _random_walk_schedule(
    rng: random.Random, inst: Instance, turns: int
) -> Schedule:
    """Motion-rule-respecting random walk (may miss targets)."""
    cur = list(inst.starts)
    rows: List[Tuple[int, ...]] = []
    for _ in range(turns):
        nxt = list(cur)
        order = list(range(len(cur)))
        rng.shuffle(order)
        taken = set(nxt)
        for a in order:
            options = [
                v
                for v in sorted(inst.graph.neighbor_set(cur[a]) | {cur[a]})
                if v == cur[a] or v not in taken
            ]
            pick = rng.choice(options)
            if detect_swaps(cur, [pick if b == a else nxt[b] for b in range(len(cur))]):
                continue
            taken.discard(nxt[a])
            taken.add(pick)
            nxt[a] = pick
        rows.append(tuple(nxt))
        cur = nxt
    return Schedule(tuple(rows))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_motion_validity_is_prefix_monotone(seed: int, cut: int) -> None:
    # if a schedule passes the per-turn rules, so does every prefix
    rng = random.Random(seed)
    g = complete_graph(4)
    inst = Instance(g, (0, 1), (0, 1))
    sched = _random_walk_schedule(rng, inst, 6)
    full = validate_schedule(
        Instance(g, inst.starts, sched.final(inst.starts)), sched
    )
    assert full.ok
    prefix = Schedule(sched.placements[:cut])
    trimmed = validate_schedule(
        Instance(g, inst.starts, prefix.final(inst.starts)), prefix
    )
    assert trimmed.ok


# --- the mover-only validator against an all-agents reference -----------------


def _reference_swaps(prev: Sequence[int], nxt: Sequence[int]) -> List[Tuple[int, int]]:
    at_prev = {v: a for a, v in enumerate(prev)}
    out: List[Tuple[int, int]] = []
    for a, v in enumerate(nxt):
        b = at_prev.get(v)
        if b is None or b == a:
            continue
        if nxt[b] == prev[a] and a < b:
            out.append((a, b))
    return out


def _reference_validate_turns(
    graph: Graph, starts: Tuple[int, ...], placements: Sequence[Tuple[int, ...]]
) -> Optional[Verdict]:
    """The motion rules checked for every agent on every turn: the reference
    for `model._validate_turns`, which visits only the agents that move."""
    n = len(starts)
    prev = starts
    for turn, cur in enumerate(placements, start=1):
        if len(cur) != n:
            raise PreconditionError(f"turn {turn}: placement covers {len(cur)} agents, expected {n}")
        for a, v in enumerate(cur):
            if not (0 <= v < graph.n):
                raise PreconditionError(f"turn {turn}: vertex {v} out of range")
            if v != prev[a] and not graph.has_edge(prev[a], v):
                return Verdict(
                    False, "neighborhood", turn, (a,),
                    f"agent {a} moves {prev[a]} -> {v} without an edge",
                )
        if len(set(cur)) != n:
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
        swaps = _reference_swaps(prev, cur)
        if swaps:
            a, b = swaps[0]
            return Verdict(
                False, "swap", turn, (a, b),
                f"agents {a} and {b} exchange vertices {prev[a]} and {prev[b]}",
            )
        prev = cur
    return None


def _verdict_or_error(check: Callable[[], Verdict]) -> Union[Verdict, str]:
    try:
        return check()
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def _both_ways(
    monkeypatch: pytest.MonkeyPatch, check: Callable[[], Verdict]
) -> Union[Verdict, str]:
    got = _verdict_or_error(check)
    with monkeypatch.context() as mp:
        mp.setattr(model, "_validate_turns", _reference_validate_turns)
        want = _verdict_or_error(check)
    assert got == want
    return got


def _random_row(
    rng: random.Random, graph: Graph, prev: Tuple[int, ...], fault_rate: float
) -> Tuple[int, ...]:
    """A random walk step that keeps the motion rules, then up to three
    planted faults: a vertex out of range, any vertex (often a non-edge),
    a shared vertex, or an exchange of two agents."""
    cur = list(prev)
    taken = set(cur)
    for a in rng.sample(range(len(cur)), len(cur)):
        if not (0 <= cur[a] < graph.n):  # a fault planted on an earlier turn
            continue
        options = [v for v in sorted(graph.neighbor_set(cur[a])) if v not in taken]
        if options and rng.random() < 0.6:
            v = rng.choice(options)
            taken.discard(cur[a])
            taken.add(v)
            cur[a] = v
    for _ in range(3):
        if cur and rng.random() < fault_rate:
            a = rng.randrange(len(cur))
            kind = rng.randrange(4)
            if kind == 0:
                cur[a] = rng.choice((-2, -1, graph.n, graph.n + 3))
            elif kind == 1:
                cur[a] = rng.randrange(graph.n)
            elif kind == 2:
                cur[a] = cur[rng.randrange(len(cur))]
            else:
                b = rng.randrange(len(cur))
                cur[a], cur[b] = prev[b], prev[a]
    return tuple(cur)


def _outcome(result: Union[Verdict, str]) -> str:
    if isinstance(result, str):
        return "precondition"
    return "ok" if result.ok else str(result.rule)


def test_validator_matches_the_all_agents_reference(monkeypatch: pytest.MonkeyPatch) -> None:
    seen = set()
    for seed in range(600):
        rng = random.Random(seed)
        n_verts = rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        graph = Graph(n_verts, [
            (u, v) for u in range(n_verts) for v in range(u + 1, n_verts)
            if rng.random() < density
        ])
        n_agents = rng.randint(0, n_verts)
        starts = tuple(rng.sample(range(n_verts), n_agents))
        fault_rate = rng.choice((0.0, 0.05, 0.2, 0.5))
        rows: List[Tuple[int, ...]] = []
        prev = starts
        for _ in range(rng.randint(0, 6)):
            prev = starts if rng.random() < 0.1 else _random_row(rng, graph, prev, fault_rate)
            rows.append(prev)
        sched = Schedule(tuple(rows))
        final = sched.final(starts)
        if rng.random() < 0.6 and len(set(final)) == n_agents and all(
            0 <= v < n_verts for v in final
        ):
            targets = final
        else:
            targets = tuple(rng.sample(range(n_verts), n_agents))
        limit = rng.choice((None, len(rows), max(0, len(rows) - 1)))
        inst = Instance(graph, starts, targets, limit)
        seen.add(_outcome(_both_ways(monkeypatch, lambda: validate_schedule(inst, sched))))
        cut = sorted(rng.sample(range(n_agents + 1), min(2, n_agents + 1)))
        groups = [
            (starts[i:j], tuple(rng.sample(targets[i:j], j - i)))
            for i, j in zip([0] + cut, cut + [n_agents])
            if j > i
        ]
        if groups:
            cinst = ColoredInstance(graph, tuple(
                ColoredGroup(gid, s, t) for gid, (s, t) in enumerate(groups, start=1)
            ), limit)
            seen.add(_outcome(_both_ways(
                monkeypatch, lambda: validate_colored_schedule(cinst, sched)
            )))
    assert seen == {"ok", "neighborhood", "injective", "swap", "target", "limit", "precondition"}


@pytest.mark.parametrize(
    "graph, starts, rows, outcome",
    [
        # a non-edge move before a vertex out of range in the same turn
        (_path(4), (0, 1), ((2, 9),), "neighborhood"),
        # a non-edge move after a vertex out of range in the same turn
        (_path(4), (0, 1), ((-1, 3),), "precondition"),
        # a shared vertex and an exchange in one turn: injectivity first
        (complete_graph(4), (0, 1, 2), ((1, 0, 0),), "injective"),
        # two exchanges in one turn: the first by agent id is reported
        (complete_graph(4), (0, 1, 2, 3), ((1, 0, 3, 2),), "swap"),
        (complete_graph(4), (0, 1, 2, 3), ((3, 2, 1, 0),), "swap"),
        # turns on which every agent waits
        (_path(3), (0, 2), ((0, 2), (0, 2)), "ok"),
        # no agents at all
        (_path(3), (), ((), ()), "ok"),
    ],
)
def test_validator_matches_the_reference_on_mixed_faults(
    monkeypatch: pytest.MonkeyPatch,
    graph: Graph,
    starts: Tuple[int, ...],
    rows: Tuple[Tuple[int, ...], ...],
    outcome: str,
) -> None:
    sched = Schedule(rows)
    inst = Instance(graph, starts, sched.final(starts) if outcome == "ok" else starts)
    assert _outcome(_both_ways(monkeypatch, lambda: validate_schedule(inst, sched))) == outcome


def _walk_step(
    rng: random.Random, graph: Graph, prev: Tuple[int, ...], tries: int
) -> Tuple[int, ...]:
    """A row that keeps the motion rules: up to `tries` agents, drawn at
    random, each step to a neighbour free in the row built so far."""
    cur = list(prev)
    taken = set(cur)
    for a in rng.sample(range(len(cur)), min(tries, len(cur))):
        if not (0 <= cur[a] < graph.n):  # a fault planted on an earlier turn
            continue
        options = [v for v in sorted(graph.neighbor_set(cur[a])) if v not in taken]
        if options:
            v = rng.choice(options)
            taken.discard(cur[a])
            taken.add(v)
            cur[a] = v
    return tuple(cur)


def _plant(
    rng: random.Random, graph: Graph, prev: Tuple[int, ...], row: Tuple[int, ...], kind: str
) -> Tuple[int, ...]:
    """`row` with one fault of `kind`; unchanged when the graph offers no
    place for it."""
    cur = list(row)
    n = len(cur)
    agents = rng.sample(range(n), n)
    if kind == "range":
        cur[agents[0]] = rng.choice((-1, graph.n, graph.n + 5))
    elif kind == "neighborhood":
        a = agents[0]
        far = [v for v in range(graph.n) if v != prev[a] and v not in graph.neighbor_set(prev[a])]
        if far:
            cur[a] = rng.choice(far)
    elif kind in ("on-waiter", "shared"):
        # a waiting agent b, or a mover b, and another agent a that can step
        # onto b's new vertex
        pick = [b for b in agents if (cur[b] == prev[b]) == (kind == "on-waiter")]
        for b in pick:
            near = [a for a in agents if a != b and cur[b] in graph.neighbor_set(prev[a])]
            if near:
                cur[near[0]] = cur[b]
                break
    else:  # two waiting agents on an edge exchange vertices
        for a in agents:
            if cur[a] != prev[a]:
                continue
            mates = [b for b in agents if b != a and cur[b] == prev[b]
                     and prev[b] in graph.neighbor_set(prev[a])]
            if mates:
                b = mates[0]
                cur[a], cur[b] = prev[b], prev[a]
                break
    return tuple(cur)


def test_validator_matches_the_reference_at_scale(monkeypatch: pytest.MonkeyPatch) -> None:
    # 60-300 agents, so turns after one that moved fewer than n/8 agents
    # take the slice scan and the occupancy update, and the others the
    # full scan; every fault is planted after both kinds of turn
    expect = {
        "range": "precondition", "neighborhood": "neighborhood",
        "on-waiter": "injective", "shared": "injective", "swap": "swap",
    }
    kinds = tuple(expect)
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        n_agents = rng.randint(60, 300)
        n_verts = n_agents + rng.randint(n_agents // 4, n_agents)
        edges = {(v, v + 1) for v in range(n_verts - 1)}
        for _ in range(2 * n_verts):
            u, v = rng.sample(range(n_verts), 2)
            edges.add((min(u, v), max(u, v)))
        graph = Graph(n_verts, sorted(edges))
        starts = tuple(rng.sample(range(n_verts), n_agents))
        rows: List[Tuple[int, ...]] = []
        prev = starts
        fault_at = rng.randint(1, 12)
        kind = kinds[seed % len(kinds)]
        few_before = True  # the turn before the fault moved few agents
        for turn in range(1, 14):
            many = turn % 2 == 0 if seed % 4 < 2 else rng.random() < 0.5
            tries = rng.randint(n_agents // 3, n_agents) if many else rng.randint(0, n_agents // 20)
            row = _walk_step(rng, graph, prev, tries)
            if turn == fault_at - 1:
                few_before = 8 * sum(map(int.__ne__, prev, row)) < n_agents
            if turn == fault_at:
                row = _plant(rng, graph, prev, row, kind)
            rows.append(row)
            prev = row
        sched = Schedule(tuple(rows))
        final = sched.final(starts)
        injective = len(set(final)) == n_agents and all(0 <= v < n_verts for v in final)
        targets = final if injective and rng.random() < 0.7 else starts
        inst = Instance(graph, starts, targets)
        got = _both_ways(monkeypatch, lambda: validate_schedule(inst, sched))
        seen.add((kind, _outcome(got), few_before and fault_at > 1))
        groups = (ColoredGroup(1, starts[:30], targets[:30]), ColoredGroup(2, starts[30:], targets[30:]))
        cinst = ColoredInstance(graph, groups)
        _both_ways(monkeypatch, lambda: validate_colored_schedule(cinst, sched))
    for fast in (False, True):
        for kind, outcome in expect.items():
            assert (kind, outcome, fast) in seen


def _square_cycle(size: int) -> Graph:
    """A cycle whose vertices are also joined to those two steps away."""
    return Graph(size, sorted({
        (min(v, w), max(v, w)) for v in range(size) for w in ((v + 1) % size, (v + 2) % size)
    }))


def _conveyor_all(prev: Tuple[int, ...], size: int) -> Tuple[int, ...]:
    """Every agent one step along the cycle, as pancake timer agents move."""
    return tuple((v + 1) % size for v in prev)


def _conveyor_few(rng: random.Random, prev: Tuple[int, ...], size: int) -> Tuple[int, ...]:
    """At most n/16 agents step along the cycle, each onto a vertex that no
    agent held before the turn."""
    cur = list(prev)
    taken = set(prev)
    for a in rng.sample(range(len(prev)), len(prev) // 16):
        v = (prev[a] + 1) % size
        if v not in taken:
            taken.add(v)
            cur[a] = v
    return tuple(cur)


def _turn_outcome(graph: Graph, prev: Tuple[int, ...], row: Tuple[int, ...]) -> str:
    try:
        bad = _reference_validate_turns(graph, prev, (row,))
    except PreconditionError:
        return "precondition"
    return "ok" if bad is None else str(bad.rule)


_FAULT_OUTCOME = {
    "range": "precondition", "neighborhood": "neighborhood",
    "on-waiter": "injective", "shared": "injective", "swap": "swap",
}


def _conveyor_fault(
    rng: random.Random, graph: Graph, prev: Tuple[int, ...], kind: str
) -> Tuple[int, ...]:
    """The all-mover step after `prev` with one fault of `kind` planted
    near a random agent a, drawn again until the reference gives that
    turn the fault's own verdict."""
    size = graph.n
    at = {v: a for a, v in enumerate(prev)}
    for _ in range(500):
        cur = list(_conveyor_all(prev, size))
        a = rng.randrange(len(prev))
        near = [at[w] for w in sorted(graph.neighbor_set(prev[a])) if w in at]
        if not near:
            continue
        b = rng.choice(near)
        if kind == "range":
            cur[a] = rng.choice((-1, size, size + 4))
        elif kind == "neighborhood":
            cur[a] = rng.choice([
                v for v in range(size) if v != prev[a] and v not in graph.neighbor_set(prev[a])
            ])
        elif kind == "on-waiter":
            cur[a] = cur[b] = prev[b]
        elif kind == "shared":
            cur[a] = cur[b]
        else:
            cur[a], cur[b] = prev[b], prev[a]
        if _turn_outcome(graph, prev, tuple(cur)) == _FAULT_OUTCOME[kind]:
            return tuple(cur)
    raise AssertionError(f"no {kind} fault planted")


@pytest.mark.parametrize("kind", sorted(_FAULT_OUTCOME))
@pytest.mark.parametrize("before", ["all", "few"])
def test_validator_matches_the_reference_on_conveyor_rows(
    monkeypatch: pytest.MonkeyPatch, kind: str, before: str
) -> None:
    # 64 to 200 agents on a cycle of twice as many vertices. On all-mover
    # turns every agent steps along it, so the next turn walks both rows
    # whole and rebuilds the vertex-to-agent map; after a turn that moved
    # at most n/16 agents, the next takes the slice scan. The fault turn is
    # an all-mover step with one fault planted, after a turn of `before`
    for seed, n in enumerate((64, 65, 97, 128, 200)):
        rng = random.Random(seed)
        size = 2 * n
        graph = _square_cycle(size)
        starts = tuple(rng.sample(range(size), n))
        fault_at = rng.randint(2, 8)
        rows: List[Tuple[int, ...]] = []
        prev = starts
        for turn in range(1, fault_at):
            few = before == "few" if turn == fault_at - 1 else rng.random() < 0.5
            prev = _conveyor_few(rng, prev, size) if few else _conveyor_all(prev, size)
            rows.append(prev)
        moved = sum(map(int.__ne__, rows[-2] if fault_at > 2 else starts, prev))
        assert (8 * moved < n) == (before == "few")
        rows.append(_conveyor_fault(rng, graph, prev, kind))
        rows.append(rows[-1])
        sched = Schedule(tuple(rows))
        inst = Instance(graph, starts, starts)
        got = _both_ways(monkeypatch, lambda: validate_schedule(inst, sched))
        assert _outcome(got) == _FAULT_OUTCOME[kind]
        if not isinstance(got, str):
            assert got.turn == fault_at
        cinst = ColoredInstance(graph, (
            ColoredGroup(1, starts[:40], starts[:40]), ColoredGroup(2, starts[40:], starts[40:]),
        ))
        _both_ways(monkeypatch, lambda: validate_colored_schedule(cinst, sched))


def _conveyor_before(
    rng: random.Random, before: str, starts: Tuple[int, ...], size: int
) -> List[Tuple[int, ...]]:
    """Rows ahead of a fault turn: none (the fault is on turn 1), or an
    all-mover turn or a turn of few movers after an all-mover turn."""
    if before == "none":
        return []
    rows = [_conveyor_all(starts, size)]
    if before == "few":
        rows.append(_conveyor_few(rng, rows[-1], size))
    return rows


@pytest.mark.parametrize("before", ["none", "all", "few"])
def test_a_later_non_edge_move_outranks_an_earlier_exchange(
    monkeypatch: pytest.MonkeyPatch, before: str
) -> None:
    # agents 0 and 1 exchange, and agent k, met later in the pass, moves
    # four steps along the cycle: the neighbourhood verdict names k
    size, k = 160, 77
    graph = _square_cycle(size)
    starts = tuple(range(0, size, 2))
    rows = _conveyor_before(random.Random(1), before, starts, size)
    prev = rows[-1] if rows else starts
    assert prev[1] == prev[0] + 2 and prev[k] + 4 < size
    cur = list(_conveyor_all(prev, size))
    cur[0], cur[1] = prev[1], prev[0]
    cur[k] = prev[k] + 4
    assert detect_swaps(prev, cur) == [(0, 1)]
    sched = Schedule(tuple(rows) + (tuple(cur),))
    got = _both_ways(monkeypatch, lambda: validate_schedule(Instance(graph, starts, starts), sched))
    assert got == Verdict(
        False, "neighborhood", len(rows) + 1, (k,),
        f"agent {k} moves {prev[k]} -> {prev[k] + 4} without an edge",
    )


@pytest.mark.parametrize("before", ["none", "all", "few"])
def test_a_shared_vertex_outranks_an_exchange_in_the_same_turn(
    monkeypatch: pytest.MonkeyPatch, before: str
) -> None:
    # agents 0 and 1 exchange, and agent k + 1 steps back onto the vertex
    # agent k steps forward to: the injectivity verdict names k and k + 1
    size, k = 160, 70
    graph = _square_cycle(size)
    starts = tuple(range(0, size, 2))
    rows = _conveyor_before(random.Random(2), before, starts, size)
    prev = rows[-1] if rows else starts
    assert prev[1] == prev[0] + 2 and prev[k + 1] == prev[k] + 2
    cur = list(_conveyor_all(prev, size))
    cur[0], cur[1] = prev[1], prev[0]
    cur[k + 1] = cur[k]
    assert detect_swaps(prev, cur) == [(0, 1)]
    sched = Schedule(tuple(rows) + (tuple(cur),))
    got = _both_ways(monkeypatch, lambda: validate_schedule(Instance(graph, starts, starts), sched))
    assert got == Verdict(
        False, "injective", len(rows) + 1, (k, k + 1),
        f"agents {k} and {k + 1} share vertex {cur[k]}",
    )


def test_a_pancake_witness_with_one_row_corrupted_per_rule(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # pancake-4 (268 agents, 72 turns, nearly every agent moves on every
    # turn): one copy per rule, each broken on one row only
    inst, reg = build_pancake_instance((3, 1, 4, 2), 4)
    rows = list(pancake_forward_schedule(inst, reg, (2, 3, 4, 2)).placements)
    m = len(rows)
    assert inst.n_agents == 268 and m == inst.makespan_limit == 72
    assert _outcome(_both_ways(monkeypatch, lambda: validate_schedule(inst, Schedule(tuple(rows))))) == "ok"
    g = inst.graph
    turn = m // 2
    prev, row = rows[turn - 2], rows[turn - 1]
    movers = [a for a in range(len(row)) if row[a] != prev[a]]
    assert 8 * len(movers) >= len(row)
    held = set(row)

    def edit(moves: Dict[int, int]) -> List[Tuple[int, ...]]:
        """The witness with agent a on vertex moves[a] on `turn`."""
        cur = list(row)
        for a, v in moves.items():
            cur[a] = v
        return rows[: turn - 1] + [tuple(cur)] + rows[turn:]

    corrupt: Dict[str, Tuple[List[Tuple[int, ...]], int]] = {}
    a = movers[len(movers) // 2]
    far = min(v for v in range(g.n) if v not in held and v != prev[a] and v not in g.neighbor_set(prev[a]))
    corrupt["neighborhood"] = (edit({a: far}), turn)
    a, v = next(
        (a, v) for a in movers for v in sorted(g.neighbor_set(prev[a])) if v in held and v != row[a]
    )
    corrupt["injective"] = (edit({a: v}), turn)
    # an exchange over an edge that leaves the row injective
    at = {v: b for b, v in enumerate(prev)}
    corrupt["swap"] = (next(
        bad for a in movers for w in sorted(g.neighbor_set(prev[a]) & at.keys())
        for bad in [edit({a: w, at[w]: prev[a]})] if len(set(bad[turn - 1])) == len(row)
    ), turn)
    corrupt["target"] = (rows[:-1] + [rows[-2]], m)
    corrupt["limit"] = (rows + [rows[-1]], m + 1)
    for rule, (bad, at_turn) in corrupt.items():
        got = _both_ways(monkeypatch, lambda: validate_schedule(inst, Schedule(tuple(bad))))
        assert isinstance(got, Verdict) and (got.rule, got.turn) == (rule, at_turn), rule


@pytest.mark.parametrize("length", [0, 63, 64, 65, 129])
@pytest.mark.parametrize("kind", [tuple, list])
def test_slice_movers_match_a_plain_compress(length: int, kind: type) -> None:
    rng = random.Random(length)
    for _ in range(50):
        prev = [rng.randrange(1000, 1100) for _ in range(length)]
        # equal values, distinct int objects: the scan must compare values
        nxt = [int(str(v)) for v in prev]
        assert all(x is not y for x, y in zip(prev, nxt))
        for a in rng.sample(range(length), rng.randint(0, min(length, 6))):
            nxt[a] = rng.randrange(1000, 1100)
        want = [a for a in range(length) if prev[a] != nxt[a]]
        assert model._slice_movers(kind(prev), kind(nxt)) == want
        assert model._movers(kind(prev), kind(nxt)) == want


def test_detect_swaps_matches_a_pair_enumeration() -> None:
    rng = random.Random(11)
    for _ in range(500):
        n_verts = rng.randint(1, 9)
        prev = tuple(rng.sample(range(n_verts), rng.randint(0, n_verts)))
        nxt = [rng.choice((v, rng.randrange(n_verts))) for v in prev]
        for _ in range(rng.randint(0, 3)):
            if len(prev) >= 2:
                a, b = rng.sample(range(len(prev)), 2)
                nxt[a], nxt[b] = prev[b], prev[a]
        n = len(prev)
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if nxt[a] == prev[b] and nxt[b] == prev[a]
        ]
        assert detect_swaps(prev, nxt) == pairs
