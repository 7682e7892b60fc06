"""Time the joint search on six fixed cases.

Each case calls `mapfdc.engine.joint_bfs` directly and reports the
makespan (`-` when none exists), the placements kept (`states`), the
successor placements produced (`generated`) and the best time of several
runs. Invoke from the repository root with

    PYTHONPATH=src python3 benchmarks/engine_bench.py [--repeats N]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Tuple

from mapfdc.cli import _int_at_least
from mapfdc.engine import joint_bfs
from mapfdc.gadgets import random_instance
from mapfdc.graphs import Graph, complete_graph


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _cases() -> List[Tuple[str, Graph, Tuple[int, ...], Tuple[int, ...]]]:
    cases = []

    g = complete_graph(8)
    starts = tuple(range(6))
    targets = tuple((i + 1) % 6 for i in range(6))
    cases.append(("clique-rotation-8v-6a", g, starts, targets))

    inst = random_instance(9, 2, 4, 1)
    cases.append(("near-clique-9v-4a", inst.graph, inst.starts, inst.targets))

    inst = random_instance(11, 2, 5, 3)
    cases.append(("near-clique-11v-5a", inst.graph, inst.starts, inst.targets))

    g = _cycle(12)
    cases.append(("cycle-12v-3a", g, (0, 4, 8), (4, 8, 0)))

    # packed instance with no schedule: two agents must trade the ends of the
    # bridge 0-5, so the bridge test answers before any search
    g = Graph(7, [(0, 5), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5)])
    cases.append(("infeasible-packed-7v-7a", g, (4, 6, 1, 0, 2, 3, 5), (3, 4, 6, 5, 1, 2, 0)))

    # packed and bridgeless with no schedule: the search must exhaust every
    # placement it can reach
    g = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)])
    cases.append(("infeasible-bridgeless-5v-5a", g, (2, 1, 0, 4, 3), (4, 2, 0, 3, 1)))
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=_int_at_least(1), default=3, help="timing runs per case"
    )
    args = parser.parse_args(argv)

    header = ("case", "makespan", "states", "generated", "ms")
    rows = [header]
    for name, g, starts, targets in _cases():
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            res = joint_bfs(g, starts, targets)
            best = min(best, (time.perf_counter() - t0) * 1000.0)
        makespan = "-" if res.path is None else str(len(res.path) - 1)
        rows.append((name, makespan, str(res.states), str(res.generated), f"{best:.2f}"))

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
