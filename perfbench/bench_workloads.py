"""The benchmark's three workloads.

Each workload builds its inputs from the run seed (``setup``), runs
untimed warm-up drives (``warm``), repeats its drive for the run length
(``timed``), checks every output against an independent computation
(``check``), and turns what it saw into end-to-end metrics
(``end_to_end``) or, for a traced run, per-layer metrics (``layers``).

The program is reached only through module attributes (``rdf.beam_score``,
never a ``from``-imported copy), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.core as rcore
import repro.core.pipeline as rpipeline
import repro.data.registry as rregistry
import repro.dataflow as rdf
import repro.dataflow.executor as rexecutor
import repro.dataflow.remote.cluster as rcluster
import repro.dataflow.transforms as rtransforms
import repro.graph as rgraph
import repro.incremental as rincremental
import repro.service as rservice

from perfbench import bench_checks as checks
from perfbench.bench_trace import Span, Tracer, covered_share, outermost

PRESET = "cifar100_like"
ALPHA = 0.9
KNN_K = 10
MACHINES = 8
ROUNDS = 4
#: Floor on f(S) / f(centralized greedy).  Measured ratios sit at
#: 0.99–1.00 on every workload; a drop below this is a quality bug.
QUALITY_FLOOR = 0.95
#: Dataset seeds reserved per run seed: run seed ``s`` draws its problem
#: instances from seeds ``4s .. 4s+3``.
SEEDS_PER_RUN = 4
#: Service client poll interval, small against the ~0.5 s cold-job
#: latency (each poll is one HTTP request the service must answer).
POLL_S = 0.025

#: Per-beam engine counters copied from each beam's ``PipelineMetrics``.
BEAM_COUNTS = (
    "shuffled_records",
    "pre_shuffle_records",
    "executed_stages",
    "vectorized_stages",
    "columnar_rows",
    "peak_shard_records",
)
BEAMS = ("knn", "bound", "greedy", "score")
#: Executor counters (``Executor.stats()`` keys) and the metric each feeds.
EXECUTOR_METRICS = {
    "stage_payload_bytes": "executor.stage_payload_bytes",
    "broadcast_bytes": "executor.broadcast_bytes",
    "retried_shards": "remote.retried_shards",
    "worker_failures": "remote.worker_failures",
}
#: Per-drive counters a drive record carries onto its ``drive`` span.
DRIVE_COUNTERS = ("runtime.gc_collections", "runtime.cpu_s") + tuple(
    EXECUTOR_METRICS.values()
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _gen2_collections() -> int:
    return int(gc.get_stats()[2]["collections"])


def _machine_cpu() -> Optional[List[int]]:
    """The machine-wide CPU time counters of ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float:
    """Share of the machine's CPU time the hypervisor took in between."""
    if before is None or after is None or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def _executor_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
    return {
        metric: int(after.get(key, 0)) - int(before.get(key, 0))
        for key, metric in EXECUTOR_METRICS.items()
    }


def _objective_of(problem, selected) -> float:
    g = problem.graph
    return checks.pairwise_objective(
        problem.utilities, g.indptr, g.indices, g.weights,
        problem.alpha, problem.beta, selected,
    )


def _greedy_reference(problem, k: int) -> float:
    """f of centralized ``greedy_heap`` on the same problem and k."""
    result = rcore.greedy_heap(problem, k)
    return _objective_of(problem, np.sort(result.selected))


# -- span wiring ------------------------------------------------------------


def _annotate_beam(span: Span, result, args, kwargs) -> None:
    metrics = result[-1]
    for name in BEAM_COUNTS:
        span.args[name] = int(getattr(metrics, name))
    span.args["staged_s"] = sum(p.wall_ms for p in metrics.stage_profiles) / 1e3


def _annotate_bound(span: Span, result, args, kwargs) -> None:
    _annotate_beam(span, result, args, kwargs)
    span.args["rounds"] = int(result[0].grow_rounds + result[0].shrink_rounds)


def _annotate_select(span: Span, result, args, kwargs) -> None:
    span.args["engine"] = args[0].config.engine


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry point of every measured layer."""
    tracer.wrap_function(rregistry.make_class_clusters, "data.build")
    tracer.wrap_function(rregistry.margin_utilities, "data.build")
    tracer.wrap_function(rgraph.build_knn_graph, "graph.knn")
    tracer.wrap_method(
        rpipeline.DistributedSelector, "select", "select", _annotate_select
    )
    tracer.wrap_function(rdf.beam_bound, "dataflow.bound", _annotate_bound)
    tracer.wrap_function(
        rtransforms.distributed_kth_largest, "dataflow.bound.kth_largest"
    )
    tracer.wrap_function(rdf.beam_knn_graph, "dataflow.knn", _annotate_beam)
    tracer.wrap_function(
        rdf.beam_distributed_greedy, "dataflow.greedy", _annotate_beam
    )
    tracer.wrap_function(rdf.beam_score, "dataflow.score", _annotate_beam)
    tracer.wrap_overrides(rexecutor.Executor, "run_stage", "executor.run_stage")
    tracer.wrap_method(rcluster.LocalCluster, "__init__", "remote.cluster_start")
    tracer.wrap_method(
        rincremental.IncrementalDriver, "drive", "incremental.drive"
    )


def _zero_layers() -> Dict[str, float]:
    """Every per-layer metric, zero until a workload measures it."""
    names = [
        "data.build_s", "graph.knn_s", "core.select_s",
        "dataflow.bound_s", "dataflow.bound.kth_largest_s",
        "dataflow.bound.kth_largest_calls", "dataflow.bound.rounds",
        "dataflow.knn_s", "dataflow.knn.unstaged_s",
        "dataflow.greedy_s", "dataflow.score_s",
    ]
    names += [f"dataflow.{beam}.{c}" for beam in BEAMS for c in BEAM_COUNTS]
    names += [
        "executor.run_stage_s", "executor.stages_run",
        "executor.stage_payload_bytes", "executor.broadcast_bytes",
        "remote.cluster_start_s", "remote.retried_shards",
        "remote.worker_failures", "runtime.gc_collections", "runtime.cpu_s",
        "runtime.steal_share",
        "service.queue_wait_s", "service.run_s", "service.dedup_job_s",
        "service.memory_job_s", "service.executed_jobs",
        "service.dedup_hits", "service.warm_contexts",
        "incremental.job_s", "incremental.reused_shards",
        "incremental.invalidated_shards", "incremental.executed_stages",
        "incremental.checkpoint_hits",
        "trace.drive_s", "trace.untraced_drive_s", "trace.overhead_share",
        "trace.coverage", "trace.spans_per_drive",
    ]
    return {name: 0.0 for name in names}


def _setup_layers(tracer: Tracer, out: Dict[str, float]) -> None:
    """Set-up layers: the median over set-up repetitions of each sum."""
    setups = tracer.named("setup")
    for metric, span_name in (
        ("data.build_s", "data.build"),
        ("graph.knn_s", "graph.knn"),
        ("remote.cluster_start_s", "remote.cluster_start"),
    ):
        out[metric] = _median(
            sum(s.duration for s in tracer.within(w.start, w.end) if s.name == span_name)
            for w in setups
        )


def _drive_layers(
    tracer: Tracer, drives: List[Span], out: Dict[str, float]
) -> None:
    """Per-drive sums of each layer's spans, as medians over drives."""
    rows = []
    for d in drives:
        inside = tracer.within(d.start, d.end, thread=d.thread)
        row: Dict[str, float] = {key: d.args.get(key, 0) for key in DRIVE_COUNTERS}
        for beam in BEAMS:
            spans = [s for s in inside if s.name == f"dataflow.{beam}"]
            row[f"dataflow.{beam}_s"] = sum(s.duration for s in spans)
            for c in BEAM_COUNTS:
                values = [s.args.get(c, 0) for s in spans]
                row[f"dataflow.{beam}.{c}"] = (
                    max(values, default=0) if c == "peak_shard_records"
                    else sum(values)
                )
        knn = [s for s in inside if s.name == "dataflow.knn"]
        row["dataflow.knn.unstaged_s"] = sum(
            s.duration - s.args.get("staged_s", 0.0) for s in knn
        )
        row["dataflow.bound.rounds"] = sum(
            s.args.get("rounds", 0) for s in inside if s.name == "dataflow.bound"
        )
        kth = [s for s in inside if s.name == "dataflow.bound.kth_largest"]
        row["dataflow.bound.kth_largest_s"] = sum(s.duration for s in kth)
        row["dataflow.bound.kth_largest_calls"] = len(kth)
        stages = outermost(inside, "executor.run_stage")
        row["executor.run_stage_s"] = sum(s.duration for s in stages)
        row["executor.stages_run"] = len(stages)
        row["trace.coverage"] = covered_share(
            d, [s for s in inside if s.parent == d.sid]
        )
        row["trace.spans_per_drive"] = len(inside)
        rows.append(row)
    for key in rows[0] if rows else ():
        out[key] = _median(row[key] for row in rows)


def _timed_loop(
    seconds: float, drive: Callable[[], Dict[str, Any]],
    tracer: Optional[Tracer], round_size: int,
) -> List[Dict[str, Any]]:
    """Repeat whole rounds of ``round_size`` drives until ``seconds`` have
    passed (at least one round).

    Each record holds the drive's wall time, whether it failed, and the
    drive's own counters; with a tracer the drive runs inside a
    ``drive`` span that carries those counters.
    """
    records = []
    start = time.perf_counter()
    while True:
        gc.collect()
        gen2 = _gen2_collections()
        record: Dict[str, Any] = {"failed": False}
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span("drive") if tracer is not None else nullcontext() as span:
            try:
                record.update(drive())
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                record["failed"] = True
                record["error"] = f"{type(exc).__name__}: {exc}"
        record["wall_s"] = time.perf_counter() - t0
        record["runtime.cpu_s"] = time.process_time() - cpu0
        record["runtime.gc_collections"] = _gen2_collections() - gen2
        if span is not None:
            span.args.update({k: record[k] for k in DRIVE_COUNTERS if k in record})
        records.append(record)
        if len(records) % round_size == 0 and time.perf_counter() - start >= seconds:
            return records


class Workload:
    """Shared shape: set up, warm, time, check, report.

    ``timed`` returns one record per attempted operation (a drive, or a
    service job); each has ``failed`` and ``wall_s``.
    """

    name = ""
    #: The dataflow executor the workload's drives run on by default.
    executor = "sequential"
    #: Problem instances per run.  A drive's cost depends on its data and
    #: its selection seed (bounding's edge sampling), so a run cycles its
    #: drives through several instances drawn from its seed, in whole
    #: rounds, and its median rests on all of them.
    instances = 2

    def __init__(
        self, seed: int, quick: bool, out_dir: str,
        executor: Optional[str] = None,
    ) -> None:
        self.seed = int(seed)
        self.quick = bool(quick)
        self.out_dir = out_dir
        self.executor = executor or type(self).executor
        self.instances = 2 if self.quick else type(self).instances
        self.turn = 0
        self.records: List[Dict[str, Any]] = []
        self.context = None
        self.ratio = 0.0  # set by check()

    def data_seed(self, instance: int) -> int:
        """Dataset (and selection) seed of one of this run's instances."""
        return self.seed * SEEDS_PER_RUN + instance

    def next_instance(self) -> int:
        instance = self.turn % self.instances
        self.turn += 1
        return instance

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` started (called before each re-setup)."""
        if self.context is not None:
            self.context.close()
            self.context = None

    def close(self) -> None:
        self.teardown()

    def drive(self) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """One untimed drive; the timed drives then start at instance 0."""
        self.drive()
        self.turn = 0

    def traced_extra(self) -> None:
        """Work a traced run adds after its drives, outside drive spans."""

    def timed(self, seconds: float, tracer: Optional[Tracer] = None):
        machine = _machine_cpu()
        start = time.perf_counter()
        records = _timed_loop(seconds, self.drive, tracer, self.instances)
        self.elapsed = time.perf_counter() - start
        self.steal_share = _steal_share(machine, _machine_cpu())
        if tracer is not None:
            self.traced_extra()
        self.records.extend(records)
        return records

    def drive_metrics(self, records) -> Dict[str, float]:
        """``drive_s``: median drive; ``jobs_per_s``: completed per second."""
        ok = [r["wall_s"] for r in records if not r["failed"]]
        return {
            "drive_s": _median(ok),
            "jobs_per_s": len(ok) / self.elapsed,
        }

    def end_to_end(self, records) -> Dict[str, float]:
        return {
            **self.drive_metrics(records),
            "objective_ratio": self.ratio,
            "peak_shard_records": float(
                max((r["peak"] for r in records if not r["failed"]), default=0)
            ),
        }

    def layers(self, tracer: Tracer, traced, untraced) -> Dict[str, float]:
        out = _zero_layers()
        _setup_layers(tracer, out)
        _drive_layers(tracer, tracer.named("drive"), out)
        memory = [
            s for s in tracer.named("select") if s.args.get("engine") == "memory"
        ]
        out["core.select_s"] = _median(s.duration for s in memory)
        out["runtime.steal_share"] = self.steal_share
        _overhead(out, self.drive_metrics(traced), self.drive_metrics(untraced))
        return out


def _check_repeats(records, instance: int, **outputs) -> None:
    """Every successful drive of ``instance`` gave the same outputs."""
    for r in records:
        if not r["failed"] and r["instance"] == instance:
            for key, value in outputs.items():
                checks.check_identical(f"repeated drive {key}", value, r[key])


def _overhead(out: Dict[str, float], traced, untraced) -> None:
    out["trace.drive_s"] = traced["drive_s"]
    out["trace.untraced_drive_s"] = untraced["drive_s"]
    if untraced["drive_s"] > 0:
        out["trace.overhead_share"] = traced["drive_s"] / untraced["drive_s"] - 1.0


def _peak(*metrics) -> int:
    return max(m.peak_shard_records for m in metrics if m is not None)


class BoundingWorkload(Workload):
    """One dataflow selection with approximate bounding per drive."""

    name = "bounding-4k"
    instances = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n = 400 if self.quick else 4000
        self.k = self.n // 10
        # Exact-mode dataflow ≡ in-memory bounding is checked on a
        # smaller problem of the same make-up (exact mode is slower).
        self.exact_n = 300 if self.quick else 2000

    def config(self, engine: str):
        return rcore.SelectorConfig(
            bounding="approximate", sampler="uniform", sampling_fraction=0.3,
            machines=MACHINES, rounds=ROUNDS, engine=engine,
            options=rdf.EngineOptions(executor=self.executor),
        )

    def setup(self) -> None:
        self.problems = []
        for i in range(self.instances):
            ds = rregistry.load_dataset(
                PRESET, n_points=self.n, seed=self.data_seed(i)
            )
            self.problems.append(
                rcore.SubsetProblem.with_alpha(ds.utilities, ds.graph, ALPHA)
            )
        self.context = rdf.DataflowContext(
            rdf.EngineOptions(executor=self.executor)
        )
        self.last: Dict[int, Any] = {}

    def drive(self) -> Dict[str, Any]:
        i = self.next_instance()
        before = self.context.executor.stats()
        report = rcore.DistributedSelector(
            self.problems[i], self.config("dataflow")
        ).select(self.k, seed=self.data_seed(i), context=self.context)
        self.last[i] = report
        return {
            "instance": i,
            "selected": report.selected,
            "peak": _peak(
                report.extra.get("bounding_metrics"),
                report.extra.get("greedy_metrics"),
            ),
            **_executor_delta(before, self.context.executor.stats()),
        }

    def traced_extra(self) -> None:
        # The memory engine on the same config: the floor that drive_s
        # is judged against (core.select_s).
        for i, problem in enumerate(self.problems):
            memory = rcore.DistributedSelector(problem, self.config("memory"))
            for _ in range(2):
                memory.select(self.k, seed=self.data_seed(i))

    def check(self) -> None:
        ratios = []
        for i, report in sorted(self.last.items()):
            problem = self.problems[i]
            selected = checks.check_selection(report.selected, self.n, self.k)
            expected = _objective_of(problem, selected)
            checks.check_objective("report", report.objective, expected)
            score, _ = rdf.beam_score(
                problem, selected, options=rdf.EngineOptions()
            )
            checks.check_objective("beam_score", score, expected)
            checks.check_bounding(report.bounding, self.n, self.k, selected)
            _check_repeats(self.records, i, selected=selected)
            ratios.append(expected / _greedy_reference(problem, self.k))
            checks.check_quality(ratios[-1], QUALITY_FLOOR)
        self.ratio = _median(ratios)
        # Dataflow exact bounding makes the in-memory decisions.
        ds = rregistry.load_dataset(
            PRESET, n_points=self.exact_n, seed=self.data_seed(0)
        )
        small = rcore.SubsetProblem.with_alpha(ds.utilities, ds.graph, ALPHA)
        k = self.exact_n // 10
        memory = rcore.bound(small, k, mode="exact", seed=self.seed)
        dataflow, _ = rdf.beam_bound(
            small, k, mode="exact", seed=self.seed, options=rdf.EngineOptions()
        )
        checks.check_bounding(memory, self.exact_n, k)
        checks.check_bounding(dataflow, self.exact_n, k)
        checks.check_same_bounding(memory, dataflow)


class KnnGreedyWorkload(Workload):
    """kNN build → partitioned greedy → scoring on a warm remote cluster."""

    name = "knn-greedy-20k"
    executor = "remote"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n = 600 if self.quick else 20000
        self.k = self.n // 10
        self.config = rcore.SelectorConfig(
            machines=MACHINES, rounds=ROUNDS, engine="dataflow",
            options=rdf.EngineOptions(executor=self.executor),
        )

    def setup(self) -> None:
        preset = rregistry.DATASET_PRESETS[PRESET]
        self.inputs = []
        for i in range(self.instances):
            embeddings, labels = rregistry.make_class_clusters(
                self.n, min(preset.n_classes, self.n), preset.dim,
                class_sep=preset.class_sep, within_std=preset.within_std,
                seed=self.data_seed(i),
            )
            utilities = rregistry.margin_utilities(
                embeddings, labels, train_fraction=0.1, temperature=4.0,
                seed=self.data_seed(i),
            )
            self.inputs.append((embeddings, utilities))
        self.context = rdf.DataflowContext(self.config.options)
        self.last: Dict[int, Any] = {}

    def drive(self) -> Dict[str, Any]:
        i = self.next_instance()
        embeddings, utilities = self.inputs[i]
        before = self.context.executor.stats()
        graph, neighbors, sims, knn_metrics = rdf.beam_knn_graph(
            embeddings, KNN_K, seed=self.data_seed(i), context=self.context
        )
        problem = rcore.SubsetProblem.with_alpha(utilities, graph, ALPHA)
        report = rcore.DistributedSelector(problem, self.config).select(
            self.k, seed=self.data_seed(i), context=self.context
        )
        score, score_metrics = rdf.beam_score(
            problem, report.selected, context=self.context
        )
        self.last[i] = (graph, neighbors, sims, problem, report, score)
        return {
            "instance": i,
            "selected": report.selected,
            "neighbors": neighbors,
            "peak": _peak(
                knn_metrics, report.extra["greedy_metrics"], score_metrics
            ),
            **_executor_delta(before, self.context.executor.stats()),
        }

    def check(self) -> None:
        ratios = []
        for i, last in sorted(self.last.items()):
            graph, neighbors, sims, problem, report, score = last
            embeddings = self.inputs[i][0]
            checks.check_knn(embeddings, neighbors, sims, seed=self.seed)
            checks.check_symmetric_graph(
                self.n, graph.indptr, graph.indices, graph.weights,
                embeddings=embeddings, neighbors=neighbors,
            )
            selected = checks.check_selection(report.selected, self.n, self.k)
            expected = _objective_of(problem, selected)
            checks.check_objective("report", report.objective, expected)
            checks.check_objective("beam_score", score, expected)
            _check_repeats(
                self.records, i, selected=selected, neighbors=neighbors
            )
            ratios.append(expected / _greedy_reference(problem, self.k))
            checks.check_quality(ratios[-1], QUALITY_FLOOR)
        self.ratio = _median(ratios)


class ServiceWorkload(Workload):
    """A closed loop of two clients against an in-process service.

    Each round (see ``STEPS``) every client runs a cold dataflow
    selection (a fresh seed every round), a memory-engine selection and
    a resubmission of its dataflow job under another tenant (answered
    from the result store); client 0 also advances one incremental
    family by one dataset version.  A client waits for each job before
    the next, and a barrier before each step keeps the two in step.
    Round 0 is the untimed warm-up.
    """

    name = "service-mix"
    executor = "thread"
    instances = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n = 300 if self.quick else 4000
        self.k = self.n // 10
        self.service = None
        self.server = None
        self.next_round = 0
        self.phases: List[Dict[str, Any]] = []
        self.state_dirs: List[str] = []

    def spec(self, kind: str, client: int, round_: int) -> Dict[str, Any]:
        """Selections of round ``r`` use instance ``r mod instances``; the
        incremental family lives on instance 0."""
        dataset = {"preset": PRESET, "n_points": self.n}
        if kind == "incremental":
            selector: Dict[str, Any] = {
                "k": self.k, "engine": "dataflow", "incremental": True,
            }
            dataset.update(seed=self.data_seed(0), version=round_)
        else:
            dataset["seed"] = self.data_seed(round_ % self.instances)
            selector = {
                "k": self.k, "machines": MACHINES, "rounds": ROUNDS,
                "seed": 1000 * (self.seed + 1) + 2 * round_ + client,
                "engine": "memory" if kind == "memory" else "dataflow",
            }
        return {
            "dataset": dataset,
            "selector": selector,
            "engine_options": {"executor": self.executor},
            "tenant": f"client{client}" + ("-replay" if kind == "replay" else ""),
        }

    def setup(self) -> None:
        state_dir = os.path.join(
            self.out_dir, f"service-state-{os.getpid()}-{len(self.state_dirs)}"
        )
        self.state_dirs.append(state_dir)
        self.service = rservice.SelectorService(
            rservice.ServiceConfig(state_dir=state_dir)
        )
        self.server, self.http_thread = rservice.start_http_server(self.service)
        self.address = self.server.server_address[:2]
        # One job per instance loads its dataset into the service's
        # problem cache; the selection seed is outside the scripts' range.
        client = rservice.ServiceClient(*self.address)
        for i in range(self.instances):
            spec = self.spec("memory", 0, i)
            spec["selector"]["seed"] = 0
            job_id = client.submit(spec)["job_id"]
            record = client.wait(job_id, poll_interval=POLL_S)
            if record["state"] != "done":
                raise RuntimeError(f"set-up job ended {record['state']!r}")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.http_thread.join(timeout=10)
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def close(self) -> None:
        self.teardown()
        for state_dir in self.state_dirs:
            shutil.rmtree(state_dir, ignore_errors=True)

    #: One round, as (job kind, clients that submit it together).  The
    #: cold dataflow jobs run one at a time, so their latency is one
    #: job's and does not hinge on how two drives share the interpreter
    #: lock; the short jobs overlap.
    STEPS = (
        ("dataflow", (0,)),
        ("dataflow", (1,)),
        ("memory", (0, 1)),
        ("replay", (0, 1)),
        ("incremental", (0,)),
    )

    def _job(self, api, kind: str, client: int, round_: int) -> Dict[str, Any]:
        """Submit one job and wait for it; keep only what checks need."""
        spec = self.spec(kind, client, round_)
        job: Dict[str, Any] = {"kind": kind, "spec": spec, "failed": True}
        t0 = time.perf_counter()
        try:
            job_id = api.submit(spec)["job_id"]
            job["record"] = api.wait(job_id, timeout=120.0, poll_interval=POLL_S)
            if job["record"]["state"] == "done":
                report = api.result(job_id)["report"]
                job["failed"] = False
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            job["error"] = f"{type(exc).__name__}: {exc}"
        job["wall_s"] = time.perf_counter() - t0
        if not job["failed"]:
            job["selected"] = np.asarray(report["selected"], dtype=np.int64)
            job["objective"] = float(report["objective"])
            if "engine_metrics" in report:
                job["peak"] = report["engine_metrics"]["greedy_metrics"][
                    "peak_shard_records"]
            job["incremental"] = report.get("incremental")
        return job

    def timed(self, seconds: float, tracer: Optional[Tracer] = None):
        """Both clients run whole rounds, in step, until ``seconds`` pass."""
        first = self.next_round
        sinks: List[List[Dict[str, Any]]] = [[], []]
        stop = [False]
        gc.collect()
        gen2 = _gen2_collections()
        hits = self.service.metrics()["counters"]["dedup_hits"]
        machine = _machine_cpu()
        cpu0 = time.process_time()
        start = time.perf_counter()
        barrier = threading.Barrier(2)
        end_of_round = threading.Barrier(
            2, action=lambda: stop.__setitem__(
                0, time.perf_counter() - start >= seconds
            ),
        )

        def client_loop(client: int) -> None:
            api = rservice.ServiceClient(*self.address, timeout=120.0)
            round_ = first
            while not stop[0]:
                for kind, clients in self.STEPS:
                    barrier.wait(timeout=150)
                    if client in clients:
                        sinks[client].append(self._job(api, kind, client, round_))
                end_of_round.wait(timeout=150)
                round_ += 1

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"client{c}")
            for c in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
            if t.is_alive():
                raise RuntimeError("a service client did not finish its round")
        self.elapsed = time.perf_counter() - start
        self.steal_share = _steal_share(machine, _machine_cpu())
        rounds = sum(1 for j in sinks[0] if j["kind"] == "dataflow")
        self.next_round = first + rounds
        self.phases.append({
            "rounds": rounds,
            "gc_collections": _gen2_collections() - gen2,
            "cpu_s": time.process_time() - cpu0,
            "dedup_hits": self.service.metrics()["counters"]["dedup_hits"] - hits,
        })
        jobs = sinks[0] + sinks[1]
        self.records.extend(jobs)
        return jobs

    def warm(self) -> None:
        self.timed(0.0)

    def drive_metrics(self, jobs) -> Dict[str, float]:
        cold = [j["wall_s"] for j in jobs if j["kind"] == "dataflow" and not j["failed"]]
        return {
            "drive_s": _median(cold),
            "jobs_per_s": sum(1 for j in jobs if not j["failed"]) / self.elapsed,
        }

    def end_to_end(self, jobs) -> Dict[str, float]:
        peaks = [
            j["peak"] for j in jobs if not j["failed"] and j["kind"] == "dataflow"
        ]
        return {
            **self.drive_metrics(jobs),
            "objective_ratio": self.ratio,
            "peak_shard_records": float(max(peaks, default=0)),
        }

    @staticmethod
    def version(utilities: np.ndarray, dataset: Dict[str, Any]):
        """The dataset version a spec names, as the service defines it:
        version 0 advanced by ``version`` synthetic delta steps drawn
        from the data seed."""
        version = rincremental.DatasetVersion.initial(utilities)
        if dataset["version"] > 0:
            log = rincremental.synthetic_deltas(
                version, seed=dataset["seed"], steps=dataset["version"],
                frac=0.1,
            )
            version = version.apply_all(log)
        return version

    def check(self) -> None:
        problems: Dict[int, Any] = {}
        for i in range(self.instances):
            ds = rregistry.load_dataset(
                PRESET, n_points=self.n, seed=self.data_seed(i)
            )
            problem = rcore.SubsetProblem.with_alpha(ds.utilities, ds.graph, ALPHA)
            problems[self.data_seed(i)] = (
                problem, _greedy_reference(problem, self.k)
            )
        ok = [j for j in self.records if not j["failed"]]
        leaders = {
            j["record"]["digest"]: j for j in ok
            if j["kind"] == "dataflow" and j["record"]["deduped_from"] is None
        }
        ratios = []
        for job in ok:
            selected = checks.check_selection(job["selected"], self.n, self.k)
            kind = job["kind"]
            problem, reference = problems[job["spec"]["dataset"]["seed"]]
            if kind == "replay":
                leader = leaders.get(job["record"]["digest"])
                if job["record"]["deduped_from"] != "store" or leader is None:
                    raise checks.CheckFailed(
                        "a resubmission was not answered from the store"
                    )
                checks.check_identical(
                    "resubmission vs its leader", leader["selected"], selected
                )
                continue
            if job["record"]["deduped_from"] is not None:
                raise checks.CheckFailed(f"a fresh {kind} job was deduplicated")
            if kind == "incremental":
                version = self.version(problem.utilities, job["spec"]["dataset"])
                with rdf.DataflowContext(rdf.EngineOptions()) as ctx:
                    cold = rincremental.IncrementalDriver(
                        problem, self.k, context=ctx, data_shards=8
                    ).drive(version)
                checks.check_identical(
                    "incremental job vs a cold drive", cold.selected, selected
                )
                versioned = rcore.SubsetProblem(
                    version.utilities, problem.graph, problem.alpha, problem.beta
                )
                checks.check_objective(
                    "incremental job", job["objective"],
                    _objective_of(versioned, selected),
                )
                continue
            expected = _objective_of(problem, selected)
            checks.check_objective(f"{kind} job", job["objective"], expected)
            sel = job["spec"]["selector"]
            one_shot = rcore.DistributedSelector(problem, rcore.SelectorConfig(
                machines=sel["machines"], rounds=sel["rounds"],
                engine=sel["engine"],
                options=rdf.EngineOptions(executor="sequential"),
            )).select(self.k, seed=sel["seed"])
            checks.check_identical(
                f"{kind} job vs a one-shot select", one_shot.selected, selected
            )
            ratios.append(expected / reference)
        self.ratio = _median(ratios)
        checks.check_quality(self.ratio, QUALITY_FLOOR)

    def layers(self, tracer: Tracer, traced, untraced) -> Dict[str, float]:
        out = _zero_layers()
        _setup_layers(tracer, out)
        ok = [j for j in traced if not j["failed"]]
        executed = [j for j in ok if j["record"]["deduped_from"] is None]
        of_kind = lambda kind: [j for j in executed if j["kind"] == kind]  # noqa: E731
        out["service.queue_wait_s"] = _median(
            j["record"]["started_at"] - j["record"]["created_at"] for j in executed
        )
        out["service.run_s"] = _median(
            j["record"]["finished_at"] - j["record"]["started_at"] for j in executed
        )
        out["service.dedup_job_s"] = _median(
            j["wall_s"] for j in ok if j["kind"] == "replay"
        )
        out["service.memory_job_s"] = _median(j["wall_s"] for j in of_kind("memory"))
        phase = self.phases[-1]
        out["service.executed_jobs"] = len(executed) / phase["rounds"]
        out["service.dedup_hits"] = phase["dedup_hits"] / phase["rounds"]
        out["service.warm_contexts"] = len(self.service.metrics()["warm_contexts"])
        out["runtime.gc_collections"] = phase["gc_collections"] / max(len(executed), 1)
        out["runtime.cpu_s"] = phase["cpu_s"] / max(len(executed), 1)
        out["runtime.steal_share"] = self.steal_share
        for key in ("reused_shards", "invalidated_shards", "executed_stages",
                    "checkpoint_hits"):
            out[f"incremental.{key}"] = _median(
                j["incremental"][key] for j in of_kind("incremental")
            )
        threads = {id(j): "drive-" + j["record"]["job_id"][:8] for j in executed}
        spans_of = lambda jobs, name: [  # noqa: E731
            s for s in tracer.named(name) if s.thread in {threads[id(j)] for j in jobs}
        ]
        out["incremental.job_s"] = _median(
            s.duration for s in spans_of(of_kind("incremental"), "incremental.drive")
        )
        out["core.select_s"] = _median(
            s.duration for s in spans_of(of_kind("memory"), "select")
        )
        greedy = spans_of(of_kind("dataflow"), "dataflow.greedy")
        out["dataflow.greedy_s"] = _median(s.duration for s in greedy)
        for c in BEAM_COUNTS:
            out[f"dataflow.greedy.{c}"] = _median(s.args.get(c, 0) for s in greedy)
        stages, coverage, spans = [], [], 0
        for j in executed:
            mine = [s for s in tracer.spans if s.thread == threads[id(j)]]
            spans += len(mine)
            if j["kind"] == "dataflow":
                stages.append(outermost(mine, "executor.run_stage"))
            top = [s for s in mine if s.parent is None]
            coverage.append(sum(s.duration for s in top) / j["wall_s"])
        out["executor.run_stage_s"] = _median(
            sum(s.duration for s in job) for job in stages
        )
        out["executor.stages_run"] = _median(len(job) for job in stages)
        out["trace.coverage"] = _median(coverage)
        out["trace.spans_per_drive"] = spans / max(len(executed), 1)
        _overhead(out, self.drive_metrics(traced), self.drive_metrics(untraced))
        return out


WORKLOADS = {
    w.name: w for w in (BoundingWorkload, KnnGreedyWorkload, ServiceWorkload)
}
