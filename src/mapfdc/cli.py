from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from . import fpt
from .engine import DEFAULT_STATE_GUARD
from .errors import MapfError, ParseError, PreconditionError, ResourceLimitError
from .gadgets import (
    build_colored_pancake_instance,
    build_pancake_instance,
    build_three_partition_instance,
    colored_pancake_forward_schedule,
    pancake_forward_schedule,
    pancake_trivial_yes,
    preprocess_three_partition,
    random_instance,
    serialize_registry,
    three_partition_forward_schedule,
)
from .model import (
    Instance,
    Schedule,
    _content_lines,
    _lines,
    parse_colored_instance,
    parse_instance,
    parse_schedule,
    serialize_colored_instance,
    serialize_instance,
    serialize_schedule,
    validate_colored_schedule,
    validate_schedule,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class RunReport:
    """One solver run on one instance, for logging and bench rows."""

    instance: str
    algo: str
    makespan: Optional[int]  # None when infeasible or aborted
    states: int
    millis: float
    aborted: Optional[str] = None  # message of the ResourceLimitError that ended the run

    def row(self) -> str:
        feasible = self.makespan is not None
        verdict = "aborted" if self.aborted is not None else "yes" if feasible else "no"
        return "\t".join(
            (
                self.instance,
                self.algo,
                verdict,
                str(self.makespan) if feasible else "-",
                str(self.states),
                f"{self.millis:.1f}",
            )
        )


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    """The text of the file `path`, or of stdin for -. Bytes that are not
    UTF-8 raise ParseError naming their line: the whole input is decoded at
    once, so the error holds every byte before them."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, "not UTF-8 text") from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _first_token(text: str) -> str:
    for _, toks in _content_lines(_lines(text)):  # lazily: never the whole file
        return toks[0]
    return ""


def _csv_ints(raw: str, what: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise PreconditionError(f"{what} must be comma-separated integers") from None


def _bits(raw: str, what: str) -> Tuple[int, ...]:
    if not raw or any(c not in "01" for c in raw):
        raise PreconditionError(f"{what} must be a nonempty string of 0s and 1s")
    return tuple(int(c) for c in raw)


# --- solve --------------------------------------------------------------------


def _run(
    label: str, inst: Instance, algo: str, state_guard: int
) -> Tuple[Optional[Tuple[int, Schedule]], RunReport]:
    """Solve `inst` with the `algo` solver ("fpt" or "oracle") and report
    the run. A ResourceLimitError, such as a tripped state guard, ends the
    run with no result and an aborted report of the states kept. Every
    schedule is validated before it is returned; one the validator rejects
    is a failure of the solver and raises MapfError."""
    solve = fpt.solve_with_stats if algo == "fpt" else fpt.oracle_with_stats
    started = time.perf_counter()
    try:
        result, states = solve(inst, state_guard)
    except ResourceLimitError as exc:
        millis = (time.perf_counter() - started) * 1000.0
        return None, RunReport(label, algo, None, exc.states, millis, aborted=str(exc))
    millis = (time.perf_counter() - started) * 1000.0
    if result is None:
        return None, RunReport(label, algo, None, states, millis)
    verdict = validate_schedule(inst, result[1])
    if not verdict.ok:
        raise MapfError(f"{label}: {algo} schedule invalid ({verdict.message})")
    return result, RunReport(label, algo, result[0], states, millis)


def _cmd_solve(args: argparse.Namespace) -> int:
    text = _read_text(args.instance)
    if _first_token(text) == "cmapf":
        raise PreconditionError("solve handles plain instances only")
    inst = parse_instance(text)
    if args.cap is not None:
        limit = inst.makespan_limit
        inst = replace(inst, makespan_limit=args.cap if limit is None else min(args.cap, limit))
    result, report = _run(args.instance, inst, args.algo, args.state_guard)
    _info(report.row())
    if report.aborted is not None:
        raise ResourceLimitError(report.aborted)
    if result is None:
        _info(f"{args.instance}: infeasible")
        return EXIT_NEGATIVE
    _write_text(args.output, serialize_schedule(result[1]))
    return EXIT_OK


# --- validate -----------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    itext = _read_text(args.instance)
    stext = _read_text(args.schedule)
    if _first_token(itext) == "cmapf":
        cinst = parse_colored_instance(itext)
        sched = parse_schedule(stext, cinst)
        verdict = validate_colored_schedule(cinst, sched)
    else:
        inst = parse_instance(itext)
        sched = parse_schedule(stext, inst)
        verdict = validate_schedule(inst, sched)
    if verdict.ok:
        _info(f"{args.schedule}: valid, makespan {sched.makespan}")
        return EXIT_OK
    _info(f"{args.schedule}: invalid ({verdict.message})")
    return EXIT_NEGATIVE


# --- generate -----------------------------------------------------------------


def _witness_path(args: argparse.Namespace) -> str:
    if args.witness:
        return args.witness
    if args.output != "-":
        return args.output + ".witness"
    raise PreconditionError(
        "--witness is required when the instance itself goes to stdout"
    )


def _emit_registry(args: argparse.Namespace, reg) -> None:
    if args.registry:
        _write_text(args.registry, serialize_registry(reg))


def _parse_partition(parts: Sequence[str]) -> Tuple[Tuple[int, ...], ...]:
    triples: List[Tuple[int, ...]] = []
    for part in parts:
        for chunk in part.split(";"):
            if chunk.strip():
                triples.append(_csv_ints(chunk, "partition triple"))
    return tuple(triples)


def _cmd_generate_three_partition(args: argparse.Namespace) -> int:
    spec = preprocess_three_partition(tuple(args.betas))
    inst, reg = build_three_partition_instance(spec)
    _write_text(args.output, serialize_instance(inst))
    _emit_registry(args, reg)
    _info(
        f"three-partition: {inst.graph.n} vertices, {inst.n_agents} agents, "
        f"limit {spec.goal}"
    )
    if args.partition:
        sched = three_partition_forward_schedule(
            spec, inst, reg, _parse_partition(args.partition)
        )
        path = _witness_path(args)
        _write_text(path, serialize_schedule(sched))
        _info(f"witness: makespan {sched.makespan} -> {path}")
    return EXIT_OK


def _cmd_generate_pancake(args: argparse.Namespace) -> int:
    perm = tuple(args.perm)
    inst, reg = build_pancake_instance(perm, args.flips)
    _write_text(args.output, serialize_instance(inst))
    _emit_registry(args, reg)
    _info(
        f"pancake: {inst.graph.n} vertices, {inst.n_agents} agents, "
        f"limit {inst.makespan_limit}"
    )
    if pancake_trivial_yes(len(perm), args.flips):
        _info("note: flip budget exceeds the worst case, any stack sorts")
    if args.flip_seq:
        sched = pancake_forward_schedule(inst, reg, tuple(args.flip_seq))
        path = _witness_path(args)
        _write_text(path, serialize_schedule(sched))
        _info(f"witness: makespan {sched.makespan} -> {path}")
    return EXIT_OK


def _cmd_generate_colored(args: argparse.Namespace) -> int:
    alpha = _bits(args.alpha, "--alpha")
    beta = _bits(args.beta, "--beta")
    inst, reg = build_colored_pancake_instance(alpha, beta, args.flips)
    _write_text(args.output, serialize_colored_instance(inst))
    _emit_registry(args, reg)
    _info(
        f"colored pancake: {inst.graph.n} vertices, {inst.n_agents} agents, "
        f"limit {inst.makespan_limit}"
    )
    if args.flip_seq:
        sched = colored_pancake_forward_schedule(inst, reg, tuple(args.flip_seq))
        path = _witness_path(args)
        _write_text(path, serialize_schedule(sched))
        _info(f"witness: makespan {sched.makespan} -> {path}")
    return EXIT_OK


def _cmd_generate_random(args: argparse.Namespace) -> int:
    inst = random_instance(args.vertices, args.dc, args.agents, args.seed)
    _write_text(args.output, serialize_instance(inst))
    _info(
        f"random: {inst.graph.n} vertices, {inst.n_agents} agents, "
        f"distance to clique {args.dc}, seed {args.seed}"
    )
    return EXIT_OK


# --- bench --------------------------------------------------------------------


def _bench_one(
    name: str, inst: Instance, state_guard: int
) -> Tuple[List[RunReport], List[str]]:
    reports = [_run(name, inst, algo, state_guard)[1] for algo in ("oracle", "fpt")]
    by_oracle, by_fpt = (rep.makespan for rep in reports)
    if by_oracle == by_fpt or any(rep.aborted is not None for rep in reports):
        return reports, []
    return reports, [f"{name}: oracle says {by_oracle}, fpt says {by_fpt}"]


def _cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise OSError(f"{args.directory} is not a directory")
    paths = sorted(directory.glob("*.mapf"))
    print("\t".join(("instance", "algo", "feasible", "makespan", "states", "ms")))
    if not paths:
        _info(f"no .mapf instances under {args.directory}")
        return EXIT_OK
    problems: List[str] = []
    faults: List[str] = []
    aborted: List[RunReport] = []
    for path in paths:
        try:
            inst = parse_instance(_read_text(str(path)))
        except ParseError as exc:
            faults.append(f"parse error: {path.name}: {exc}")
            continue
        except OSError as exc:
            faults.append(f"io error: {path.name}: {exc}")
            continue
        reports, bad = _bench_one(path.name, inst, args.state_guard)
        problems.extend(bad)
        for rep in reports:
            print(rep.row())
            if rep.aborted is not None:
                aborted.append(rep)
    for message in problems:
        _info(f"mismatch: {message}")
    for message in faults:
        _info(message)
    for rep in aborted:
        _info(f"resource limit: {rep.instance} {rep.algo}: {rep.aborted}")
    if problems:
        return EXIT_NEGATIVE
    if faults:
        return EXIT_USAGE
    if aborted:
        return EXIT_RESOURCE
    _info(f"{len(paths)} instances, oracle and fpt agree everywhere")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """Argument type: an integer no smaller than `low`."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_guard_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--state-guard",
        type=_int_at_least(1),
        default=DEFAULT_STATE_GUARD,
        help=(
            "abort after keeping this many search states, or fewer: the search"
            " also stops at a byte budget of 1 GiB, which at 12k + 200 bytes a"
            " state caps k agents at 2^30 // (12k + 200) states"
        ),
    )


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default="-", help="instance file, - for stdout")
    p.add_argument("--registry", help="write the vertex/agent name table here")
    p.add_argument(
        "--witness",
        help="schedule file for the certificate (default <output>.witness)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapfdc",
        description=(
            "Exact solvers and generators for swap-free multiagent "
            "path finding on graphs close to a clique."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find a provably optimal schedule")
    p_solve.add_argument("instance", help="instance file, - for stdin")
    p_solve.add_argument(
        "--algo",
        choices=("fpt", "oracle"),
        default="fpt",
        help=(
            "fpt: target row, two-turn step, then one search on the graph "
            "with each twin class trimmed; oracle: one search on the "
            "whole graph"
        ),
    )
    p_solve.add_argument(
        "--cap",
        type=_int_at_least(0),
        help="lower the instance's makespan limit to this many turns",
    )
    _add_guard_opt(p_solve)
    p_solve.add_argument("-o", "--output", default="-", help="schedule file, - for stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_val = sub.add_parser("validate", help="check a schedule against an instance")
    p_val.add_argument("instance")
    p_val.add_argument("schedule")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("generate", help="build benchmark instances")
    gsub = p_gen.add_subparsers(dest="kind", required=True)

    g3 = gsub.add_parser("three-partition", help="numeric partition reduction")
    g3.add_argument(
        "--betas", type=int, nargs="+", required=True, help="item sizes"
    )
    g3.add_argument(
        "--partition",
        nargs="+",
        help="certificate: triples of 1-based indices, e.g. 1,2,3 4,5,6",
    )
    _add_output_opts(g3)
    g3.set_defaults(func=_cmd_generate_three_partition)

    gp = gsub.add_parser("pancake", help="prefix-reversal sorting reduction")
    gp.add_argument(
        "--perm", type=int, nargs="+", required=True, help="permutation of 1..n"
    )
    gp.add_argument("--flips", type=int, required=True, help="allowed flip count")
    gp.add_argument(
        "--flip-seq", type=int, nargs="+", help="certificate: flip sizes"
    )
    _add_output_opts(gp)
    gp.set_defaults(func=_cmd_generate_pancake)

    gc = gsub.add_parser("colored", help="two-symbol pancake reduction")
    gc.add_argument("--alpha", required=True, help="start string over 0/1")
    gc.add_argument("--beta", required=True, help="target string over 0/1")
    gc.add_argument("--flips", type=int, required=True)
    gc.add_argument(
        "--flip-seq", type=int, nargs="+", help="certificate: flip sizes"
    )
    _add_output_opts(gc)
    gc.set_defaults(func=_cmd_generate_colored)

    gr = gsub.add_parser("random", help="seeded instance at a given distance to clique")
    gr.add_argument("--vertices", type=int, required=True)
    gr.add_argument("--dc", type=int, required=True)
    gr.add_argument("--agents", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("-o", "--output", default="-")
    gr.set_defaults(func=_cmd_generate_random)

    p_bench = sub.add_parser("bench", help="run oracle and fpt over a directory")
    p_bench.add_argument("directory")
    _add_guard_opt(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _info(f"parse error: {exc}")
        return EXIT_USAGE
    except PreconditionError as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        _info(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except OSError as exc:
        _info(f"io error: {exc}")
        return EXIT_USAGE
    except Exception as exc:
        # a failure of the program itself, never an answer about the input
        _info(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
