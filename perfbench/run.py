"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bounding-4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick    # every workload, tiny, in seconds

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer metrics and writes
the spans as Chrome trace-event JSON under ``perfbench/out/``.  The last
line of standard output is always the result object; progress and check
failures go to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
#: A set-up too short to time once steadily is timed this many times.
SETUP_REPEATS = 3
#: Runs must end within 180 s; a hung run dumps its stacks and exits.
WATCHDOG_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "drive_s": "s",
    "jobs_per_s": "1/s",
    "objective_ratio": "ratio",
    "peak_shard_records": "records",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("trace.overhead_share", "trace.coverage"):
        return "share"
    if name.endswith("_records") or name.endswith("_rows"):
        return "records"
    return "count"


def pin_thread_pools() -> None:
    """One BLAS/OpenMP thread, set before NumPy loads (and inherited by
    the remote workers the knn workload spawns)."""
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def _progress(name: str, what: str, since: float) -> None:
    print(f"perfbench: {name}: {what} took {time.perf_counter() - since:.1f} s",
          file=sys.stderr)


def pin_malloc_arenas() -> None:
    """At most two glibc malloc arenas.  By default every thread that
    allocates can open its own arena, so the in-process service's peak
    RSS followed how its many short-lived threads happened to be
    scheduled.  Must run before any thread starts; a no-op off glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_arena_max = -8
    libc.mallopt(m_arena_max, 2)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
    executor: "str | None" = None,
) -> dict:
    from perfbench.bench_checks import CheckFailed
    from perfbench.bench_trace import Tracer
    from perfbench.bench_workloads import WORKLOADS, install_layer_spans

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[name](seed, quick, OUT, executor)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            install_layer_spans(tracer)
        setup_times = []
        for _ in range(1 if quick else SETUP_REPEATS):
            workload.teardown()
            gc.collect()
            with tracer.span("setup") if tracer is not None else nullcontext():
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        phase = time.perf_counter()
        workload.warm()
        _progress(name, "set-up and warm-up", phase)
        phase = time.perf_counter()
        if tracer is None:
            records = workload.timed(seconds)
        else:
            untraced = workload.timed(seconds / 2)
            install_layer_spans(tracer)
            traced = workload.timed(seconds / 2, tracer)
            tracer.uninstall()
            records = untraced + traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _progress(name, "timed phase", phase)
        phase = time.perf_counter()
        correct = True
        try:
            workload.check()
        except CheckFailed as exc:
            correct = False
            print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
        _progress(name, "checks", phase)
        if tracer is None:
            values = {
                "setup_s": statistics.median(setup_times),
                **workload.end_to_end(records),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {
                key: {"value": float(values[key]), "unit": unit}
                for key, unit in END_TO_END_UNITS.items()
            }
        else:
            metrics = {
                key: {"value": float(value), "unit": layer_unit(key)}
                for key, value in workload.layers(tracer, traced, untraced).items()
            }
            path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump(tracer.chrome_trace(), fh)
            print(f"perfbench: spans written to {path}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    for record in records:
        if record["failed"]:
            print(f"perfbench: {name}: failed: {record.get('error')}",
                  file=sys.stderr)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "metrics": metrics,
    }


def quick() -> int:
    """Every workload at a tiny size, untraced then traced."""
    from perfbench.bench_workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 0, 0.5, trace, quick=True)
            ok = ok and result["correct"] and result["failed"] == 0
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at a tiny size")
    parser.add_argument("--executor",
                        help="run the drives on this dataflow executor "
                             "instead of the workload's own")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    pin_thread_pools()
    pin_malloc_arenas()
    sys.path[:0] = [SRC, ROOT]
    from perfbench.bench_workloads import WORKLOADS

    if args.quick:
        return quick()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        executor=args.executor,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
