"""Benchmark of the mapfdc pipeline; one workload per invocation.

    python3 perfbench/run.py --workload kernel-search --seed 1 --seconds 20 --trace 0

Run from the repository root. Imports `mapfdc` from `src/` next to this
directory, builds the workload's inputs from --seed, then runs whole rounds
of closed-loop operations (one call, wait for the answer, check it) until
--seconds have passed and the workload's minimum round count is reached.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Exits 2 without a result when the
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-up (inputs from the seed plus one warm-up operation) is repeated and
# its median reported, so one slow repetition does not move setup_s.
SETUPS = 5
# The speed of a shared host drifts. One fixed dense-lift operation, repeated
# for 90 seconds, varied by 27% between 6-second windows (interquartile range
# of the window medians over their median). So every timing is scaled by a
# fixed calibration loop timed right before and after it: reported =
# measured * CALIBRATION_REF_S / calibration time. Scaled, the same windows
# varied by 4%. Raw figures go to the result file.
CALIBRATION_REF_S = 0.002
CALIBRATION_REPS = 3

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import FAILED, DenseLift, KernelSearch, Outcome, WitnessCertify  # noqa: E402

WORKLOADS = {w.name: w for w in (KernelSearch, DenseLift, WitnessCertify)}


def load_mapfdc() -> Dict[str, Any]:
    """The checkout's own `mapfdc` modules; raises ImportError when absent."""
    src = ROOT / "src"
    if not (src / "mapfdc" / "__init__.py").is_file():
        raise ImportError(f"no mapfdc sources under {src}")
    sys.path.insert(0, str(src))
    import mapfdc
    from mapfdc import errors, fpt, gadgets, model

    if src not in Path(mapfdc.__file__).resolve().parents:
        raise ImportError(f"mapfdc was imported from {mapfdc.__file__}, not {src}")
    return {"model": model, "fpt": fpt, "gadgets": gadgets, "MapfError": errors.MapfError}


CALIBRATION_TEXT = "\n".join(f"edge {i} {i * 7 % 1000}" for i in range(3000))


def calibration_loop() -> int:
    """About 2 ms of the interpreter work `mapfdc` does most: split text into
    tokens, parse integers, build tuples, a set and a frozenset."""
    edges = set()
    for line in CALIBRATION_TEXT.splitlines():
        toks = line.split()
        u, v = int(toks[1]), int(toks[2])
        edges.add((u, v) if u < v else (v, u))
    return len(frozenset(edges))


def calibrate() -> List[float]:
    """CALIBRATION_REPS timings of the calibration loop, collector paused so
    that a full collection of the program's heap does not land in them."""
    times = []
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPS):
            t0 = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


def percentile(values: List[float], p: int) -> float:
    """p-th percentile with linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        mapfdc = load_mapfdc()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](mapfdc, args.seed)
    problems: List[str] = []
    setup_times = []
    raw_setup = []
    for _ in range(5):  # the first calibrations of a process run slow
        calibrate()
    for _ in range(SETUPS):
        gc.collect()
        cal = calibrate()
        t0 = time.perf_counter()
        wl.slots = wl.make_slots()
        warm = wl.run(wl.slots[0])
        raw_setup.append(time.perf_counter() - t0)
        cal += calibrate()
        setup_times.append(raw_setup[-1] * CALIBRATION_REF_S / statistics.median(cal))
        verdict = wl.judge(wl.slots[0], warm)
        if verdict is not None:
            problems.append(f"warm-up: {verdict}")
        del warm

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(mapfdc)
    order = random.Random(args.seed * 7919 + 1)
    latencies: List[float] = []
    raw_latencies: List[float] = []
    slot_of_op: List[int] = []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start < args.seconds:
        indices = list(range(len(wl.slots)))
        order.shuffle(indices)
        for i in indices:
            slot = wl.slots[i]
            gc.collect()
            cal = calibrate()
            if tracer:
                tracer.op = attempted
            try:
                out = wl.run(slot)
            except Exception as exc:  # an unexpected error is a wrong answer
                out = Outcome(float("nan"), error=exc)
            cal += calibrate()
            scale = CALIBRATION_REF_S / statistics.median(cal)
            if tracer:
                tracer.end_op(scale)
            attempted += 1
            verdict = wl.judge(slot, out)
            if verdict is not None:
                failed += 1
                if verdict != FAILED:
                    problems.append(verdict)
            if out.seconds == out.seconds:
                raw_latencies.append(out.seconds)
                latencies.append(out.seconds * scale)
                slot_of_op.append(i)
            del out
        rounds += 1
    if tracer:
        tracer.uninstall()

    completed = attempted - failed
    e2e = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": completed / sum(latencies), "unit": "1/s"},
        "latency_ms_p50": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "latency_ms_tail": {
            "value": 1000 * percentile(latencies, wl.tail_percentile),
            "unit": "ms",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": tracer.metrics(attempted) if tracer else e2e,
    }
    for problem in problems[:20]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    print(
        f"perfbench: {wl.name} seed {args.seed} trace {args.trace}: {rounds} rounds, "
        f"{attempted} operations, tail = p{wl.tail_percentile}; "
        + ", ".join(f"{k} {v['value']:.4g}" for k, v in e2e.items()),
        file=sys.stderr,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = dict(result, end_to_end=e2e, rounds=rounds, tail_percentile=wl.tail_percentile,
                  setup_times=setup_times, raw_setup_times=raw_setup,
                  raw_latencies=raw_latencies, latencies=latencies, slot_of_op=slot_of_op,
                  problems=problems)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
