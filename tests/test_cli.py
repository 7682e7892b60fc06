from __future__ import annotations

import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mapfdc
from mapfdc import cli
from mapfdc.errors import MapfError
from mapfdc.graphs import Graph, complete_graph
from mapfdc.model import (
    Instance,
    Schedule,
    parse_instance,
    parse_schedule,
    serialize_instance,
    serialize_schedule,
    validate_schedule,
)


def _write_instance(path: Path, inst: Instance) -> None:
    path.write_text(serialize_instance(inst))


def _swap_on_an_edge() -> Instance:
    return Instance(Graph(2, [(0, 1)]), (0, 1), (1, 0))


# --- solve --------------------------------------------------------------------


def test_solve_then_validate_round_trip(tmp_path, capsys) -> None:
    ipath = tmp_path / "inst.mapf"
    spath = tmp_path / "out.sched"
    assert (
        cli.main(
            [
                "generate",
                "random",
                "--vertices",
                "6",
                "--dc",
                "1",
                "--agents",
                "3",
                "--seed",
                "4",
                "-o",
                str(ipath),
            ]
        )
        == 0
    )
    assert cli.main(["solve", str(ipath), "-o", str(spath)]) == 0
    assert cli.main(["validate", str(ipath), str(spath)]) == 0
    err = capsys.readouterr().err
    assert "valid, makespan" in err


def _no_search(*args, **kwargs):
    raise AssertionError("joint_bfs ran")


def test_solve_answers_a_complete_graph_without_a_search(
    tmp_path, capsys, monkeypatch
) -> None:
    monkeypatch.setattr(cli.fpt, "joint_bfs", _no_search)
    ipath = tmp_path / "k5.mapf"
    _write_instance(ipath, Instance(complete_graph(5), (0, 1, 2), (1, 0, 2)))
    spath = tmp_path / "k5.sched"
    assert cli.main(["solve", str(ipath), "-o", str(spath)]) == 0
    err = capsys.readouterr().err
    # the default solver is fpt, and a complete graph needs no search
    assert "\tfpt\tyes\t2\t0\t" in err
    inst = parse_instance(ipath.read_text())
    sched = parse_schedule(spath.read_text(), inst)
    assert validate_schedule(inst, sched).ok
    assert sched.makespan == 2


def test_solve_finishes_a_full_near_clique(tmp_path, capsys, monkeypatch) -> None:
    # dc = 1: clique 0..304 plus vertex 305 joined to 304. Agents 0..99 stand
    # still; the others fill 100..303, two pairs of them exchange vertices
    # and the rest shift one place along a cycle, so no vertex is spare.
    # Every agent lies in the clique part: the two-turn step answers with
    # no search.
    monkeypatch.setattr(cli.fpt, "joint_bfs", _no_search)
    clique = 305
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges.append((clique - 1, clique))
    region = list(range(100, clique - 1))
    rest = region[4:]
    targets = [101, 100, 103, 102] + rest[1:] + rest[:1]
    core = list(range(100))
    ipath = tmp_path / "full.mapf"
    spath = tmp_path / "full.sched"
    _write_instance(
        ipath, Instance(Graph(clique + 1, edges), tuple(core + region), tuple(core + targets))
    )
    assert cli.main(["solve", str(ipath), "-o", str(spath)]) == 0
    assert cli.main(["validate", str(ipath), str(spath)]) == 0
    assert "valid, makespan 2" in capsys.readouterr().err


def test_solve_reports_infeasible_with_exit_one(tmp_path, capsys) -> None:
    ipath = tmp_path / "edge.mapf"
    _write_instance(ipath, _swap_on_an_edge())
    assert cli.main(["solve", str(ipath), "--algo", "oracle"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_solve_honors_the_instance_makespan_limit(tmp_path, capsys) -> None:
    # the optimum is 2 turns; a limit of 1 makes the instance infeasible
    ipath = tmp_path / "tight.mapf"
    _write_instance(
        ipath, Instance(complete_graph(4), (0, 1), (1, 0), makespan_limit=1)
    )
    for algo in ("oracle", "fpt"):
        assert cli.main(["solve", str(ipath), "--algo", algo]) == 1
    capsys.readouterr()


def _star_leaf_exchange() -> Instance:
    # two leaves of a 5-vertex star trade places: 4 turns at best
    return Instance(Graph(5, [(0, i) for i in range(1, 5)]), (1, 2), (2, 1))


@pytest.mark.parametrize("algo", ["fpt", "oracle"])
def test_solve_cap_lowers_the_limit_for_every_solver(tmp_path, capsys, algo) -> None:
    ipath = tmp_path / "star.mapf"
    _write_instance(ipath, _star_leaf_exchange())
    assert cli.main(["solve", str(ipath), "--algo", algo, "--cap", "1"]) == 1
    assert "infeasible" in capsys.readouterr().err
    assert cli.main(["solve", str(ipath), "--algo", algo, "--cap", "4"]) == 0
    assert f"\t{algo}\tyes\t4\t" in capsys.readouterr().err


def test_solve_cap_never_raises_the_instance_limit(tmp_path, capsys) -> None:
    ipath = tmp_path / "star.mapf"
    _write_instance(ipath, replace(_star_leaf_exchange(), makespan_limit=3))
    assert cli.main(["solve", str(ipath), "--cap", "9"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--algo", "fpt", "--cap", "-1"],
        ["--algo", "oracle", "--cap", "-1"],
        ["--algo", "fpt", "--state-guard", "0"],
        ["--algo", "oracle", "--state-guard", "0"],
    ],
)
def test_solve_rejects_out_of_range_options(tmp_path, capsys, argv) -> None:
    # fpt answers K4 with one exchanging pair without a search, so only the
    # parser can refuse a guard of 0 there
    k4 = Instance(complete_graph(4), (0, 1), (1, 0))
    for name, inst in (("k4", k4), ("star", _star_leaf_exchange())):
        path = tmp_path / f"{name}.mapf"
        _write_instance(path, inst)
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", str(path)] + argv)
        assert err.value.code == 2
    capsys.readouterr()


def test_bench_rejects_a_guard_below_one(tmp_path, capsys) -> None:
    _write_instance(tmp_path / "k4.mapf", Instance(complete_graph(4), (0, 1), (1, 0)))
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", str(tmp_path), "--state-guard", "0"])
    assert err.value.code == 2
    capsys.readouterr()


def test_solve_searches_beyond_the_old_distance_ceiling(tmp_path, capsys) -> None:
    # K4 plus 21 pendant vertices is 21 deletions from a clique, beyond the
    # clique split's budget of 20; pendants 4 and 5 hang off 0 and 1, so
    # the target row fails and N[4] & N[5] is empty: the trimmed search
    # answers 3 (4 -> 0 -> 1 -> 5), since no step reads the split
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges.extend((v, v % 4) for v in range(4, 25))
    ipath = tmp_path / "far.mapf"
    spath = tmp_path / "far.sched"
    _write_instance(ipath, Instance(Graph(25, edges), (4,), (5,)))
    assert cli.main(["solve", str(ipath), "-o", str(spath)]) == 0
    row = capsys.readouterr().err.strip().split("\t")
    assert row[1:4] == ["fpt", "yes", "3"] and int(row[4]) > 0
    inst = parse_instance(ipath.read_text())
    sched = parse_schedule(spath.read_text(), inst)
    assert validate_schedule(inst, sched).ok
    assert sched.makespan == 3


def test_solve_answers_the_target_row_beyond_the_distance_ceiling(tmp_path, capsys) -> None:
    # the same dc = 21 graph, but the agent's target is its pendant's
    # anchor: the target row answers 1 before any search
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges.extend((v, v % 4) for v in range(4, 25))
    ipath = tmp_path / "near.mapf"
    spath = tmp_path / "near.sched"
    _write_instance(ipath, Instance(Graph(25, edges), (4,), (0,)))
    assert cli.main(["solve", str(ipath), "-o", str(spath)]) == 0
    assert "\tfpt\tyes\t1\t0\t" in capsys.readouterr().err
    inst = parse_instance(ipath.read_text())
    sched = parse_schedule(spath.read_text(), inst)
    assert validate_schedule(inst, sched).ok
    assert sched.makespan == 1


def test_solve_state_guard_exit_code(tmp_path, capsys) -> None:
    ipath = tmp_path / "guard.mapf"
    _write_instance(
        ipath,
        Instance(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), (0, 2), (4, 0)),
    )
    assert (
        cli.main(["solve", str(ipath), "--algo", "oracle", "--state-guard", "2"])
        == 3
    )
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "failure", [RecursionError("maximum recursion depth exceeded"), MapfError("boom")]
)
def test_solve_internal_failure_exit_code(tmp_path, capsys, monkeypatch, failure) -> None:
    def broken(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli.fpt, "solve_with_stats", broken)
    ipath = tmp_path / "step.mapf"
    _write_instance(ipath, Instance(Graph(2, [(0, 1)]), (0,), (1,)))
    assert cli.main(["solve", str(ipath), "--algo", "fpt"]) == 4
    err = capsys.readouterr().err
    assert err.count("internal error:") == 1
    assert "infeasible" not in err


@pytest.mark.parametrize("command", ["solve", "validate"])
@pytest.mark.parametrize(
    "data, message",
    [
        (b"mapf 1\n# \xff\nvertices 2\nedge 0 1\nagent 0 1\n", "line 2: not UTF-8 text"),
        (
            b"mapf 1\nvertices 100000000000000000000\n",
            "line 2: vertex count 100000000000000000000 too large",
        ),
    ],
    ids=["not-utf8", "vertex-count"],
)
def test_input_faults_are_parse_errors_naming_their_line(
    tmp_path, capsys, monkeypatch, command, data, message
) -> None:
    # exit 2, never the internal-error exit 4, from a file and from stdin
    ipath = tmp_path / "bad.mapf"
    ipath.write_bytes(data)
    spath = tmp_path / "home.sched"
    spath.write_text("schedule 0\n")
    extra = [str(spath)] if command == "validate" else []
    assert cli.main([command, str(ipath)] + extra) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert cli.main([command, "-"] + extra) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_solve_and_bench_reject_a_schedule_the_validator_rejects(
    tmp_path, capsys, monkeypatch
) -> None:
    # a solver whose one-turn answer moves both agents of an edge onto their
    # targets exchanges them: solve must write no schedule, and neither
    # command may report the run as an answer
    def swapping(inst, state_guard):
        return (1, Schedule((inst.targets,))), 1

    monkeypatch.setattr(cli.fpt, "solve_with_stats", swapping)
    (tmp_path / "in").mkdir()
    ipath = tmp_path / "in" / "swap.mapf"
    spath = tmp_path / "swap.sched"
    _write_instance(ipath, _swap_on_an_edge())
    assert cli.main(["solve", str(ipath), "-o", str(spath)]) == 4
    err = capsys.readouterr().err
    assert err.count("internal error:") == 1
    assert "fpt schedule invalid (agents 0 and 1 exchange vertices 0 and 1)" in err
    assert not spath.exists()
    assert cli.main(["bench", str(tmp_path / "in")]) == 4
    err = capsys.readouterr().err
    assert err.count("internal error:") == 1
    assert "swap.mapf: fpt schedule invalid" in err


def test_solve_rejects_colored_instances(tmp_path, capsys) -> None:
    ipath = tmp_path / "colored.cmapf"
    text = cli_colored_text(tmp_path)
    ipath.write_text(text)
    assert cli.main(["solve", str(ipath)]) == 2
    assert "plain instances only" in capsys.readouterr().err


class _SplitOnlyInPieces(str):
    def splitlines(self, keepends: bool = False):
        raise AssertionError("the whole file was split into lines")


def test_first_token_reads_only_up_to_the_first_content_line() -> None:
    def whole_file_reference(text: str) -> str:
        for raw in text.splitlines():
            body = raw.split("#", 1)[0].strip()
            if body:
                return body.split()[0]
        return ""

    edges = "".join(f"edge 0 {v}\n" for v in range(1, 500))
    for head in (
        "", "\n", "\n\n  \t\n", "# intro\n", "\n# a\n  # b\n\n", "   ",
        "\r\n# crlf\r\n", "#c\rx", "# c\x0c", "\x0c\n", "  #\x85",
    ):
        for rest in ("mapf 1\nvertices 500\n" + edges, "  cmapf 1 # colored\n", "x", ""):
            text = head + rest
            assert cli._first_token(_SplitOnlyInPieces(text)) == whole_file_reference(text), repr(text[:40])
    assert cli._first_token("# only\n\n#comments\n") == ""


def cli_colored_text(tmp_path: Path) -> str:
    from mapfdc.gadgets import build_colored_pancake_instance
    from mapfdc.model import serialize_colored_instance

    inst, _ = build_colored_pancake_instance("01", "10", 1)
    return serialize_colored_instance(inst)


# --- validate -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "mapf 1\nvertices 2\nedge 0 1\nagent 0 1\nlimit -1\n",
        "cmapf 1\nvertices 2\nedge 0 1\ngroup 1\nstarts 0\ntargets 1\nlimit -1\n",
    ],
    ids=["plain", "colored"],
)
def test_validate_rejects_a_negative_limit(tmp_path, capsys, text) -> None:
    ipath = tmp_path / "neg.mapf"
    spath = tmp_path / "step.sched"
    ipath.write_text(text)
    spath.write_text(serialize_schedule(Schedule(((1,),))))
    assert cli.main(["validate", str(ipath), str(spath)]) == 2
    assert "limit must be non-negative" in capsys.readouterr().err


def test_validate_flags_a_swap(tmp_path, capsys) -> None:
    ipath = tmp_path / "inst.mapf"
    spath = tmp_path / "swap.sched"
    inst = _swap_on_an_edge()
    _write_instance(ipath, inst)
    spath.write_text(serialize_schedule(Schedule(((1, 0),))))
    assert cli.main(["validate", str(ipath), str(spath)]) == 1
    err = capsys.readouterr().err
    assert "invalid" in err
    assert "exchange" in err


def test_validate_usage_error_on_truncated_schedule(tmp_path, capsys) -> None:
    ipath = tmp_path / "inst.mapf"
    spath = tmp_path / "short.sched"
    _write_instance(ipath, Instance(complete_graph(3), (0, 1), (1, 0)))
    spath.write_text("sched 2 1\nturn 1 2\n")
    assert cli.main(["validate", str(ipath), str(spath)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_accepts_the_empty_schedule_at_home(tmp_path, capsys) -> None:
    ipath = tmp_path / "home.mapf"
    spath = tmp_path / "home.sched"
    _write_instance(ipath, Instance(complete_graph(3), (0, 2), (0, 2)))
    spath.write_text(serialize_schedule(Schedule(())))
    assert cli.main(["validate", str(ipath), str(spath)]) == 0
    assert "makespan 0" in capsys.readouterr().err


# --- generate -----------------------------------------------------------------


def test_generate_random_is_deterministic(tmp_path) -> None:
    a = tmp_path / "a.mapf"
    b = tmp_path / "b.mapf"
    argv = ["generate", "random", "--vertices", "7", "--dc", "2", "--agents", "3"]
    assert cli.main(argv + ["--seed", "9", "-o", str(a)]) == 0
    assert cli.main(argv + ["--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.mapf"
    assert cli.main(argv + ["--seed", "10", "-o", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_random_reports_an_unmet_distance_as_a_usage_error(capsys) -> None:
    # six vertices with five of them extra: no draw of coin-flip attachments
    # keeps the graph five deletions from a clique
    argv = ["generate", "random", "--vertices", "6", "--dc", "5", "--agents", "2"]
    assert cli.main(argv + ["--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "could not hit the requested distance to clique" in err
    assert "internal error" not in err


def test_generate_pancake_with_witness(tmp_path, capsys) -> None:
    ipath = tmp_path / "pan.mapf"
    wpath = tmp_path / "pan.wit"
    rpath = tmp_path / "pan.names"
    assert (
        cli.main(
            [
                "generate",
                "pancake",
                "--perm",
                "2",
                "1",
                "--flips",
                "1",
                "--flip-seq",
                "2",
                "-o",
                str(ipath),
                "--witness",
                str(wpath),
                "--registry",
                str(rpath),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "limit 12" in err
    assert "witness: makespan 12" in err
    assert rpath.read_text().startswith("name ")
    assert cli.main(["validate", str(ipath), str(wpath)]) == 0


def test_generate_pancake_default_witness_path(tmp_path) -> None:
    ipath = tmp_path / "pan.mapf"
    argv = [
        "generate", "pancake", "--perm", "1", "2", "--flips", "1",
        "--flip-seq", "1", "-o", str(ipath),
    ]
    assert cli.main(argv) == 0
    assert (tmp_path / "pan.mapf.witness").exists()


def test_generate_witness_to_stdout_requires_a_witness_path(capsys) -> None:
    argv = [
        "generate", "pancake", "--perm", "2", "1", "--flips", "1",
        "--flip-seq", "2",
    ]
    assert cli.main(argv) == 2
    assert "--witness is required" in capsys.readouterr().err


def test_generate_three_partition_with_witness(tmp_path, capsys) -> None:
    ipath = tmp_path / "tp.mapf"
    wpath = tmp_path / "tp.wit"
    assert (
        cli.main(
            [
                "generate",
                "three-partition",
                "--betas",
                "1", "1", "1", "1", "1", "1",
                "--partition",
                "1,2,3",
                "4,5,6",
                "-o",
                str(ipath),
                "--witness",
                str(wpath),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "3063 vertices" in err
    assert "limit 258" in err
    assert "witness: makespan 258" in err
    assert cli.main(["validate", str(ipath), str(wpath)]) == 0


def test_generate_colored_with_witness(tmp_path, capsys) -> None:
    ipath = tmp_path / "col.cmapf"
    wpath = tmp_path / "col.wit"
    assert (
        cli.main(
            [
                "generate",
                "colored",
                "--alpha",
                "01",
                "--beta",
                "10",
                "--flips",
                "1",
                "--flip-seq",
                "2",
                "-o",
                str(ipath),
                "--witness",
                str(wpath),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert ipath.read_text().startswith("cmapf")
    assert cli.main(["validate", str(ipath), str(wpath)]) == 0


def test_generate_rejects_bad_symbol_strings(capsys) -> None:
    argv = [
        "generate", "colored", "--alpha", "02", "--beta", "20", "--flips", "1",
    ]
    assert cli.main(argv) == 2
    assert "0s and 1s" in capsys.readouterr().err


def test_generate_rejects_unbalanced_partition_items(capsys) -> None:
    argv = ["generate", "three-partition", "--betas", "1", "1", "1"]
    assert cli.main(argv) == 2
    capsys.readouterr()


# --- bench --------------------------------------------------------------------


def test_bench_reports_agreement(tmp_path, capsys) -> None:
    for seed in (3, 5):
        inst = cli_random(6, 1, 2, seed)
        (tmp_path / f"r{seed}.mapf").write_text(serialize_instance(inst))
    assert cli.main(["bench", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "\t".join(
        ("instance", "algo", "feasible", "makespan", "states", "ms")
    )
    assert len(lines) == 1 + 2 * 2
    algos = [line.split("\t")[1] for line in lines[1:]]
    assert algos == ["oracle", "fpt", "oracle", "fpt"]
    assert "agree everywhere" in captured.err


def test_bench_records_an_aborted_run_and_goes_on(tmp_path, capsys) -> None:
    # a.mapf is K20 plus the path 20-21 off vertex 0, with one agent from 21
    # to 19 and two standing on 1 and 2 (optimum 3): the oracle searches
    # the whole graph and uses up a 100-state guard, while fpt searches the
    # graph with the 19-vertex twin class trimmed to 9 and answers after 92
    # states; b.mapf must still run
    c = 20
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)] + [(0, c), (c, c + 1)]
    _write_instance(
        tmp_path / "a.mapf", Instance(Graph(c + 2, edges), (c + 1, 1, 2), (c - 1, 1, 2))
    )
    _write_instance(tmp_path / "b.mapf", cli_random(6, 1, 2, 3))
    assert cli.main(["bench", str(tmp_path), "--state-guard", "100"]) == 3
    captured = capsys.readouterr()
    rows = [line.split("\t") for line in captured.out.strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [
        ["a.mapf", "oracle"], ["a.mapf", "fpt"], ["b.mapf", "oracle"], ["b.mapf", "fpt"]
    ]
    assert [row[2] for row in rows] == ["aborted", "yes", "yes", "yes"]
    assert rows[1][3] == "3" and rows[2][3] == rows[3][3]
    assert "a.mapf oracle: state guard of 100 states exhausted" in captured.err
    assert "mismatch" not in captured.err


def test_bench_names_a_file_it_cannot_parse_and_goes_on(tmp_path, capsys) -> None:
    # a.mapf holds a byte that is not UTF-8 on line 2; b.mapf must still
    # run, and the bench exits 2 after its summary
    (tmp_path / "a.mapf").write_bytes(b"mapf 1\n# \xff\nvertices 2\nedge 0 1\nagent 0 1\n")
    _write_instance(tmp_path / "b.mapf", cli_random(6, 1, 2, 3))
    assert cli.main(["bench", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    rows = [line.split("\t") for line in captured.out.strip().splitlines()[1:]]
    assert [row[:3] for row in rows] == [["b.mapf", "oracle", "yes"], ["b.mapf", "fpt", "yes"]]
    assert captured.err.splitlines() == ["parse error: a.mapf: line 2: not UTF-8 text"]


def test_bench_reports_the_states_of_an_aborted_run(tmp_path, capsys) -> None:
    # some agent of this instance touches the modulator and its optimum is
    # 3, so fpt's two-turn search refutes makespan 2, and both solvers then
    # search and use up the 2-state guard
    assert cli.main(
        [
            "generate", "random", "--vertices", "8", "--dc", "2", "--agents", "4",
            "--seed", "130", "-o", str(tmp_path / "r.mapf"),
        ]
    ) == 0
    assert cli.main(["bench", str(tmp_path), "--state-guard", "2"]) == 3
    rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[1:5] for row in rows] == [
        ["oracle", "aborted", "-", "2"], ["fpt", "aborted", "-", "2"]
    ]


def cli_random(vertices: int, dc: int, agents: int, seed: int):
    from mapfdc.gadgets import random_instance

    return random_instance(vertices, dc, agents, seed)


def test_bench_empty_directory_prints_only_the_header(tmp_path, capsys) -> None:
    assert cli.main(["bench", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == [
        "\t".join(("instance", "algo", "feasible", "makespan", "states", "ms"))
    ]
    assert "no .mapf instances" in captured.err


@pytest.mark.parametrize("name", ["no-such-dir", "a.mapf"])
def test_bench_on_a_missing_path_or_a_file_is_an_io_error(tmp_path, capsys, name) -> None:
    # a mistyped directory must not pass as an empty one
    _write_instance(tmp_path / "a.mapf", _swap_on_an_edge())
    assert cli.main(["bench", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error:")


# --- entry points ----------------------------------------------------------------


def test_main_requires_a_subcommand() -> None:
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_module_entry_point(tmp_path) -> None:
    # the child interpreter must import the same package as this process
    src = str(Path(mapfdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mapfdc.cli",
            "generate",
            "random",
            "--vertices",
            "5",
            "--dc",
            "1",
            "--agents",
            "2",
            "--seed",
            "1",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    inst = parse_instance(proc.stdout)
    assert inst.graph.n == 5
    assert inst.n_agents == 2
