"""Per-layer spans and counts, recorded from the benchmark's side.

`Tracer.install` replaces public names of `mapfdc` modules with wrappers,
exactly where the caller resolves them (`mapfdc.fpt.joint_bfs` is the name
`fpt` looks up, not `mapfdc.engine.joint_bfs`). A name that no longer exists
is skipped, so the run still completes. Each wrapper records a span (name,
start, end, parent span, operation); a layer's self time is its span minus
the child spans inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


def _core_counts(counts, out, args):
    inst = args[0] if args else None
    core = len(out)
    counts["kernelize.core_agents"] += core
    counts["kernelize.dropped_agents"] += getattr(inst, "n_agents", core) - core


def _kernel_counts(counts, out, args):
    counts["kernelize.kernel_vertices"] += getattr(getattr(out, "graph", None), "n", 0)
    counts["kernelize.floor_k"] += getattr(out, "k", 0)


def _search_counts(counts, out, args):
    counts["engine.calls"] += 1
    counts["engine.states"] += getattr(out, "states", 0)


# (module, public name, layer metric the self time goes to, count hook)
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("model", "parse_instance", "model.parse_ms", None),
    ("model", "validate_schedule", "model.validate_ms", None),
    ("model", "serialize_schedule", "model.schedule_io_ms", None),
    ("model", "parse_schedule", "model.schedule_io_ms", None),
    ("fpt", "solve_with_stats", "fpt.self_ms", None),
    ("fpt", "clique_split", "graphs.clique_split_ms", None),
    ("fpt", "classify_types", "kernelize.kernel_ms", None),
    ("fpt", "select_core_agents", "kernelize.kernel_ms", _core_counts),
    ("fpt", "build_kernel", "kernelize.kernel_ms", _kernel_counts),
    ("fpt", "makespan_bound", "kernelize.kernel_ms", None),
    ("fpt", "build_pamapf", "kernelize.pamapf_ms", None),
    ("fpt", "joint_bfs", "engine.search_ms", _search_counts),
    ("fpt", "lift_schedule", "fpt.lift_ms", None),
    ("fpt", "repair_final_swaps", "fpt.repair_ms", None),
    ("fpt", "validate_schedule", "model.validate_ms", None),
    ("gadgets", "preprocess_three_partition", "gadgets.build_ms", None),
    ("gadgets", "build_three_partition_instance", "gadgets.build_ms", None),
    ("gadgets", "build_pancake_instance", "gadgets.build_ms", None),
    ("gadgets", "three_partition_forward_schedule", "gadgets.witness_ms", None),
    ("gadgets", "pancake_forward_schedule", "gadgets.witness_ms", None),
)

TIME_METRICS = sorted({metric for _, _, metric, _ in WRAPPED})
COUNT_METRICS = (
    "kernelize.core_agents",
    "kernelize.dropped_agents",
    "kernelize.kernel_vertices",
    "kernelize.floor_k",
    "engine.calls",
    "engine.states",
    "fpt.repair_errors",
)


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: List[Tuple[int, int, Optional[int], str, float, float, bool]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self._op_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[List[Any]] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self, modules: Dict[str, Any]) -> None:
        for mod_name, attr, metric, hook in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, f"{mod_name}.{attr}", metric, hook))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, name: str, metric: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._open.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._open.pop()
                self._op_seconds[metric] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(
                    (self.op, frame[0], parent[0] if parent else None, name, start, end, ok)
                )
                if not ok and name == "fpt.repair_final_swaps":
                    self.counts["fpt.repair_errors"] += 1
            if hook is not None:
                try:
                    hook(self.counts, out, args)
                except (AttributeError, TypeError):
                    pass  # the returned object changed shape: count nothing
            return out

        return traced

    def end_op(self, scale: float) -> None:
        """Close the current operation; its self times count times `scale`,
        the same speed factor applied to its end-to-end latency."""
        for metric, seconds in self._op_seconds.items():
            self.self_seconds[metric] += seconds * scale
        self._op_seconds.clear()

    def metrics(self, ops: int) -> Dict[str, Dict[str, Any]]:
        """Per-operation layer metrics over `ops` operations."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in TIME_METRICS:
            out[name] = {"value": 1000.0 * self.self_seconds[name] / ops, "unit": "ms"}
        for name in COUNT_METRICS:
            out[name] = {"value": self.counts[name] / ops, "unit": "count"}
        search = self.self_seconds["engine.search_ms"]
        rate = self.counts["engine.states"] / search if search > 0 else 0.0
        out["engine.states_per_s"] = {"value": rate, "unit": "1/s"}
        return out

    def write(self, path) -> None:
        fields = ("op", "span", "parent", "name", "start", "end", "ok")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
