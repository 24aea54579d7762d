"""The seven workloads of the ledger.

Every workload is built from ``--seed`` alone (the seed feeds
``hcci_proxy``, ``VolumeGridSpec.seed`` and the request-mix RNG; the
program only ever sees the generated inputs), runs *ops* through the
public API in a closed loop with one caller, and verifies each op's
output.  Sizes are fixed here and are part of the metric definitions: a
later change that edits them has changed the ruler.

Imported only in the per-workload child process (it imports ``repro``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import random
import time
from dataclasses import dataclass

import numpy as np

import repro
from repro.analysis.mergetree import MergeTreeWorkload, reference_segmentation
from repro.analysis.registration import RegistrationWorkload
from repro.analysis.registration.volumes import (
    SyntheticVolumeGrid,
    VolumeGridSpec,
)
from repro.analysis.rendering import RenderingWorkload
from repro.core.payload import Payload
from repro.core.taskmap import ModuloMap
from repro.data import hcci_proxy
from repro.faults import FaultPlan
from repro.graphs import Reduction
from repro.obs import JsonlExporter, ListSink
from repro.obs.events import TASK_FINISHED
from repro.runtimes import MPIController
from repro.runtimes.costs import CostModel
from repro.sched.compile import PLAN_CACHE
from repro.service import AdmissionError, RunRequest, RunService

from benchmarks.ledger import probes
from benchmarks.ledger.probes import passthrough, total
from benchmarks.ledger.stats import median, percentile

#: Seconds one request may take before it counts as failed.
RESULT_TIMEOUT = 60.0


@dataclass
class Op:
    """One executed op: its wall seconds, the submit->result latency of
    each request it made, and whatever :meth:`Workload.verify` checks."""

    wall: float
    latencies: list
    value: object


def bench_field(seed: int) -> np.ndarray:
    """The HCCI stand-in field every merge-tree/rendering figure uses."""
    return hcci_proxy((48, 48, 48), n_features=40, feature_sigma=2.0, seed=seed)


class CallbackRecorder:
    """Stands in for a controller in ``workload.register(...)`` to
    collect the workload's callbacks for :func:`repro.run`."""

    def __init__(self) -> None:
        self.callbacks: dict = {}

    def register_callback(self, cid, fn) -> None:
        self.callbacks[cid] = fn


class TimedCost(CostModel):
    """Records a span around every call of a workload's cost model."""

    def __init__(self, tracer, inner: CostModel) -> None:
        self._tracer = tracer
        self._inner = inner
        self.needs_wall_time = inner.needs_wall_time

    def duration(self, task, inputs, wall_time):
        rec = self._tracer.begin("cost_model", "analysis")
        try:
            return self._inner.duration(task, inputs, wall_time)
        finally:
            self._tracer.end(rec)


def digest(result) -> str:
    """Content hash of a run's returned payloads (the paper's
    bit-identical-across-runtimes claim, checked per op on ``local``)."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(f"{obj.dtype.str}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    for tid in sorted(result.outputs):
        for channel in sorted(result.outputs[tid]):
            h.update(f"|{tid}:{channel}|".encode())
            feed(result.outputs[tid][channel].data)
    return h.hexdigest()


class Workload:
    """Life cycle the child process drives: ``synthesize`` (data layer),
    ``build`` (workload, graph, callbacks, service), ``reference``
    (harness-only expected outputs), then ``op`` / ``verify`` repeatedly,
    ``layer_metrics`` in the traced pass, ``close``."""

    name = ""
    warmup = 1  # warm ops each process runs between its cold and timed ops
    traced_ops = 3
    profile_threads = False  # also profile threads the profiled ops start

    def __init__(self, seed: int, tracer, tmpdir: str, quick: bool) -> None:
        self.seed = seed
        self.tracer = tracer
        self.tmpdir = tmpdir
        self.quick = quick

    def reps(self, n: int = 3) -> int:
        """Repetitions of a per-layer measurement (one when ``--quick``)."""
        return 1 if self.quick else n

    def shim(self, callbacks: dict) -> dict:
        return {
            cid: self.tracer.wrap_callback(fn, f"callback:{fn.__name__}")
            for cid, fn in callbacks.items()
        }

    def callback_share(self, traced) -> dict:
        """Summed callback-shim seconds per traced op, and their share
        of the op's wall."""
        seconds = [self.tracer.total("callback:", root[2]) for root, _ in traced]
        walls = [root[6] - root[5] for root, _ in traced]
        return {
            "analysis.callbacks_s": median(seconds),
            "analysis.callbacks_frac": median(
                s / w for s, w in zip(seconds, walls)
            ),
        }

    def synthesize(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Expected outputs.  Harness work, so its time is taken out of
        ``setup_s``."""

    def op(self) -> Op:
        raise NotImplementedError

    def verify(self, op: Op) -> bool:
        raise NotImplementedError

    def layer_metrics(self, run_s: float, traced: list) -> dict:
        """Per-layer metrics reported under this workload.  ``run_s`` is
        the untraced warm median, ``traced`` the ``(root span, op)``
        pairs of the traced ops."""
        raise NotImplementedError

    def profiled_ops(self) -> None:
        """What runs under ``cProfile`` for the ``self_frac`` budget."""
        self.op()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# Batch workloads: one op = one repro.run
# ---------------------------------------------------------------------- #


class Batch(Workload):
    runtime = "mpi"
    n_procs = 256
    has_cost_model = True

    def make(self):
        """The ``*Workload`` object (graph + callbacks + inputs)."""
        raise NotImplementedError

    def build(self) -> None:
        self.wl = self.make()
        self.graph = self.wl.graph
        recorder = CallbackRecorder()
        self.wl.register(recorder)
        self.callbacks = recorder.callbacks
        self.shims = self.shim(self.callbacks)

    def inputs(self) -> dict:
        return self.wl.initial_inputs()

    def cost_model(self) -> CostModel:
        model = self.wl.cost_model()
        return TimedCost(self.tracer, model) if self.tracer.enabled else model

    def options(self) -> dict:
        """``repro.run`` options of one op (built per op, as a caller
        would)."""
        return {"cost_model": self.cost_model()} if self.has_cost_model else {}

    def finish(self, options: dict) -> None:
        """Release what the op's options opened (inside the op's wall)."""
        for sink in options.get("sinks", ()):
            sink.close()

    def op(self, runtime=None, n_procs=None, options=None) -> Op:
        """One op on this workload's backend — or, for the per-layer
        baselines, the same problem on another backend / other options."""
        t = self.tracer
        runtime = runtime or self.runtime
        if runtime == "serial":
            n_procs, options = None, {}
        else:
            n_procs = n_procs or self.n_procs
            if options is None:
                options = self.options()
        # Shims are closures: they cannot cross into a process pool.
        shimmed = t.enabled and runtime != "local"
        callbacks = self.shims if shimmed else self.callbacks
        t0 = time.perf_counter()
        try:
            with t.span("initial_inputs", "analysis"):
                inputs = self.inputs()
            with t.span("repro.run", "runtimes"):
                result = repro.run(
                    self.graph, callbacks, inputs,
                    runtime=runtime, n_procs=n_procs, **options,
                )
        finally:
            self.finish(options)
        wall = time.perf_counter() - t0
        return Op(wall, [wall], result)

    def reference(self) -> None:
        self.serial_digest = None
        if self.runtime == "local":
            self.serial_digest = digest(self.op("serial").value)

    def verify(self, op: Op) -> bool:
        if not self.check(op.value):
            return False
        if self.serial_digest is not None:
            return digest(op.value) == self.serial_digest
        return True

    def check(self, result) -> bool:
        raise NotImplementedError

    def traced_twin(self, n: int, runtime: str) -> list:
        """``n`` traced ops of the same problem on another backend."""
        t = self.tracer
        t.enabled = True
        try:
            twin = []
            for _ in range(n):
                with t.op(runtime) as root:
                    twin.append((root, self.op(runtime)))
            return twin
        finally:
            t.enabled = False

    def layer_metrics(self, run_s, traced) -> dict:
        out = probes.materialize(self.graph, self.tracer)
        out.update(probes.payload_pickle(self.inputs(), self.reps()))
        out["runtimes.serial_run_s"] = median(
            self.op("serial").wall for _ in range(self.reps())
        )
        if self.runtime == "local":
            # Callbacks ran in pool workers: time them on the serial twin.
            out.update(
                self.callback_share(self.traced_twin(len(traced), "serial"))
            )
            return out
        out.update(self.callback_share(traced))
        if self.has_cost_model:
            out["analysis.cost_model_s"] = median(
                self.tracer.total("cost_model", root[2]) for root, _ in traced
            )
        stats = traced[0][1].value.stats
        out["sim.makespan_s"] = stats.makespan
        out["sim.messages"] = stats.messages
        out["sim.bytes_sent"] = stats.bytes_sent
        return out


class MergeTreeProblem(Batch):
    """Segmented merge tree of the bench field, verified against the
    sequential reference segmentation."""

    blocks = 1024
    sim_shape: tuple | None = (1024, 1024, 1024)
    threshold = 0.45

    def synthesize(self) -> None:
        self.field = bench_field(self.seed)

    def make(self):
        return MergeTreeWorkload(
            self.field, self.blocks, threshold=self.threshold, valence=4,
            sim_shape=self.sim_shape,
        )

    def reference(self) -> None:
        self.expected = reference_segmentation(self.field, self.threshold)
        super().reference()

    def check(self, result) -> bool:
        return np.array_equal(self.wl.assemble(result), self.expected)


class MergeTreeMPI(MergeTreeProblem):
    """The ROADMAP's fig-6 anchor: callbacks, graph materialization and
    ``runtimes.simbase`` each hold a visible share, so it is the balanced
    case every change must not slow."""

    name = "mergetree_mpi"

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)
        out.update(probes.plan_placement_costs(self.graph, 256))
        for backend in ("charm", "legion-spmd", "legion-index", "blocking-mpi"):
            ops = [self.op(backend) for _ in range(self.reps(5))]
            out[f"runtimes.{backend}.run_s"] = median(o.wall for o in ops)
            out[f"runtimes.{backend}.makespan_s"] = ops[0].value.makespan
        # The same run without the facade: construct, initialize,
        # register and run the controller directly.
        direct = lambda: probes.timed(
            lambda: self.wl.run(
                MPIController(256, cost_model=self.wl.cost_model())
            )
        )
        out["service.inline_overhead_ratio"] = probes.wall_ratio(
            lambda: self.op().wall, direct, self.reps(5)
        )
        return out


class MergeTreeMPIObserved(MergeTreeProblem):
    """The same run with a JSONL sink and telemetry: ``obs`` does most of
    the *added* work here and none in ``mergetree_mpi``, so an obs change
    must move this one and leave its twin alone."""

    name = "mergetree_mpi_observed"

    def jsonl(self) -> JsonlExporter:
        return JsonlExporter(os.path.join(self.tmpdir, "events.jsonl"))

    def options(self) -> dict:
        return {**super().options(), "sinks": [self.jsonl()], "telemetry": True}

    def finish(self, options: dict) -> None:
        super().finish(options)
        for sink in options.get("sinks", ()):
            if isinstance(sink, JsonlExporter):
                self.jsonl_bytes = os.path.getsize(sink.path)
                os.unlink(sink.path)

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)

        def fig6(observe) -> tuple[float, dict]:
            """Median wall of the fig-6 op under ``observe()``'s options,
            and the options of the last op."""
            walls = []
            for _ in range(self.reps()):
                options = {"cost_model": self.cost_model(), **observe()}
                walls.append(self.op(options=options).wall)
            return median(walls), options

        unobserved, _ = fig6(dict)
        listed, options = fig6(lambda: {"sinks": [ListSink()]})
        out["obs.sink_overhead_ratio"] = listed / unobserved
        out["obs.events"] = len(options["sinks"][0].events)
        exported, _ = fig6(lambda: {"sinks": [self.jsonl()]})
        out["obs.jsonl_overhead_ratio"] = exported / unobserved
        out["obs.jsonl_bytes"] = self.jsonl_bytes
        out["obs.telemetry_overhead_ratio"] = (
            fig6(lambda: {"telemetry": True})[0] / unobserved
        )
        out["obs.live_overhead_ratio"] = (
            fig6(lambda: {"live": self.tmpdir})[0] / unobserved
        )
        return out


class ReductionMPISkeleton(Batch):
    """Callbacks are free, so ``sim.engine`` + ``runtimes.simbase`` +
    graph materialization are nearly the whole run: engine and
    dataflow-kernel work shows here and should not show in
    ``composite_mpi_compiled``."""

    name = "reduction_mpi_skeleton"
    has_cost_model = False
    leaves = 16384

    def synthesize(self) -> None:
        rng = random.Random(self.seed)
        self.values = [rng.randrange(1, 1000) for _ in range(self.leaves)]

    def build(self) -> None:
        self.graph = g = Reduction(self.leaves, 4)
        self.callbacks = {g.LEAF: passthrough, g.REDUCE: total, g.ROOT: total}
        self.shims = self.shim(self.callbacks)

    def inputs(self) -> dict:
        return {
            tid: Payload(v)
            for tid, v in zip(self.graph.leaf_ids(), self.values)
        }

    def check(self, result) -> bool:
        return result.output(self.graph.root_id).data == sum(self.values)

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)
        out.update(probes.engine_rates(self.reps()))
        out["runtimes.sim_tasks_per_s"] = self.graph.size() / run_s
        self.op(options={"compile": True})  # compiles the plan
        out["sched.compile_gain_ratio"] = probes.wall_ratio(
            lambda: self.op().wall,
            lambda: self.op(options={"compile": True}).wall,
            self.reps(),
        )
        return out


class CompositeMPICompiled(Batch):
    """The compute-bound simulated case: ``analysis.rendering`` callbacks
    dominate, so it is the bypass workload for runtime changes and the
    only batch workload on the compiled-replay / plan-cache path."""

    name = "composite_mpi_compiled"
    n_procs = 1024

    def synthesize(self) -> None:
        self.field = bench_field(self.seed)

    def make(self):
        return RenderingWorkload(
            self.field, 1024, image_shape=(24, 24), mode="binswap",
            sim_image_shape=(2048, 2048), sim_shape=(1024, 1024, 1024),
        )

    def options(self) -> dict:
        return {**super().options(), "compile": True}

    def reference(self) -> None:
        self.expected = self.wl.reference_image()
        super().reference()

    def check(self, result) -> bool:
        # Compositing order differs from the single-pass render, so (as
        # in the repo's own tests) images agree within float32 round-off.
        image = self.wl.assemble(result)
        return np.allclose(image.rgba, self.expected.rgba, atol=1e-5)

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)
        out["sched.compile_gain_ratio"] = probes.wall_ratio(
            lambda: self.op(options={**self.options(), "compile": False}).wall,
            lambda: self.op().wall,
            self.reps(),
        )
        PLAN_CACHE.clear()
        out["sched.compile_cold_s"] = self.op().wall - run_s  # recompiles
        before = PLAN_CACHE.stats()
        for _ in range(self.traced_ops):
            self.op()
        after = PLAN_CACHE.stats()
        out["sched.plan_cache_hits"] = after["hits"] - before["hits"]
        out["sched.plan_cache_misses"] = after["misses"] - before["misses"]
        return out


class LocalBatch(Batch):
    """Real cores: the per-run process pool of ``runtime="local"``."""

    runtime = "local"
    n_procs = 2
    has_cost_model = False
    warmup = 0  # the pool is per run: the cold op left nothing to warm

    def options(self) -> dict:
        return {"mode": "process"}

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)
        # Bound methods drag the whole field / grid along.
        out["runtimes.local.callback_pickle_bytes"] = max(
            len(pickle.dumps(fn)) for fn in self.callbacks.values()
        )
        busy = []
        for _ in range(len(traced)):
            sink = ListSink()
            op = self.op(options={"mode": "process", "sinks": [sink]})
            done = sum(e.dur for e in sink.by_type(TASK_FINISHED))
            busy.append(done / (self.n_procs * op.wall))
        out["runtimes.local.worker_busy_frac"] = median(busy)
        out["runtimes.local.speedup_vs_serial"] = (
            out["runtimes.serial_run_s"] / run_s
        )
        return out


class RegistrationLocal(LocalBatch):
    """Real cores, few heavy numpy tasks with large payloads: worker
    compute dominates, so it shows whether the pool buys any speed-up
    over ``serial``."""

    name = "registration_local"

    def synthesize(self) -> None:
        self.grid = SyntheticVolumeGrid(
            VolumeGridSpec(
                gx=4, gy=4, vol_shape=(24, 24, 32), overlap=0.25,
                max_jitter=1, seed=self.seed,
            )
        )

    def make(self):
        return RegistrationWorkload(self.grid, slabs=4)

    def check(self, result) -> bool:
        return self.wl.verify(result)

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)
        out.update(probes.pool_roundtrip(self.reps(5)))
        return out


class MergeTreeLocal(LocalBatch, MergeTreeProblem):
    """The same layer used the opposite way — many tiny tasks — so
    coordinator dispatch, callback/payload pickling and IPC are nearly
    the whole run; a transfer fix that helps here must not cost
    ``registration_local``."""

    name = "mergetree_local"
    # 73 tasks, where the issue asked for 256 blocks (1,849 tasks).  On the
    # 2-core box an op of the pool varies by a quarter from one to the
    # next whatever its size, and a 3-5 s op leaves two per run: nothing
    # repeats within any bound.  At 16 blocks a run holds ~35 ops, and the
    # op is dispatch-bound all the same (every task still ships the
    # 0.9 MB bound-method callback; serial runs it ~7x faster).
    blocks = 16
    sim_shape = None

    def layer_metrics(self, run_s, traced) -> dict:
        out = super().layer_metrics(run_s, traced)
        out.update(probes.local_dispatch(self.reps()))
        # The retry path, on the simulated twin of this problem: none of
        # the seven workloads injects faults, so nothing else guards it.
        clean, faulted = [], []
        for _ in range(self.reps()):
            clean.append(self.op("mpi", 64, {"cost_model": self.cost_model()}))
            plan = FaultPlan.random(
                self.seed, self.graph.task_ids(), 64, task_fault_rate=0.05
            )
            faulted.append(
                self.op(
                    "mpi", 64,
                    {"cost_model": self.cost_model(), "fault_plan": plan},
                )
            )
        out["faults.retry_run_ratio"] = median(o.wall for o in faulted) / median(
            o.wall for o in clean
        )
        out["faults.retries"] = faulted[0].value.metrics.counter("retries")
        return out


# ---------------------------------------------------------------------- #
# The service workload: one op = a burst of submissions
# ---------------------------------------------------------------------- #


class ServiceMix(Workload):
    """The only workload where ``service`` admission, fair-share
    queueing, coalescing and the shared plan/graph caches do the work;
    batch workloads touch ``service`` only through the inline facade."""

    name = "service_mix"
    warmup, traced_ops = 2, 20
    burst = 32
    tenants = ("alice", "bob", "carol", "dave")

    def synthesize(self) -> None:
        self.rng = random.Random(self.seed)
        self.hot = [self.rng.randrange(1, 1000) for _ in range(4)]
        self.unique = itertools.count(1000)  # never collides with a hot scale

    def build(self) -> None:
        self.graph = g = Reduction(256, 4)
        self.leaf_ids = g.leaf_ids()
        self.base = sum(range(1, len(self.leaf_ids) + 1))
        self.callbacks = {g.LEAF: passthrough, g.REDUCE: total, g.ROOT: total}
        self.shims = self.shim(self.callbacks)
        self.run_options = {"task_map": ModuloMap(4, g.size()), "compile": True}
        self.submit_walls: list[float] = []
        self.svc = self.start_service()

    def start_service(self) -> RunService:
        return RunService(workers=2, max_queue=4 * self.burst)

    def request(self, k: int) -> tuple[int, RunRequest]:
        """Half the requests draw one of four hot input scales (two in
        flight coalesce), half carry a scale nobody else has."""
        if self.rng.random() < 0.5:
            scale = self.rng.choice(self.hot)
        else:
            scale = next(self.unique)
        inputs = {
            tid: Payload((i + 1) * scale)
            for i, tid in enumerate(self.leaf_ids)
        }
        callbacks = self.shims if self.tracer.enabled else self.callbacks
        return scale, RunRequest(
            self.graph, callbacks, inputs, runtime="mpi", n_procs=4,
            tenant=self.tenants[k % len(self.tenants)],
            options=self.run_options,
        )

    def op(self) -> Op:
        t = self.tracer
        t0 = time.perf_counter()
        pending, outcomes = [], []
        for k in range(self.burst):
            with t.span("build_request", "bench"):
                scale, request = self.request(k)
            s0 = time.perf_counter()
            try:
                with t.span("submit", "service"):
                    pending.append((scale, self.svc.submit(request)))
            except AdmissionError:
                outcomes.append((scale, None, None))
            self.submit_walls.append(time.perf_counter() - s0)
        for scale, handle in pending:
            try:
                with t.span("result", "service"):
                    result = handle.result(RESULT_TIMEOUT)
            except Exception:  # this op failed; the closed loop goes on
                result = None
            outcomes.append((scale, handle, result))
        wall = time.perf_counter() - t0
        latencies = [
            h.finished_ts - h.submitted_ts
            for _, h, result in outcomes
            if result is not None
        ]
        return Op(wall, latencies, outcomes)

    def verify(self, op: Op) -> bool:
        return all(
            result is not None
            and result.output(self.graph.root_id).data == self.base * scale
            for scale, _, result in op.value
        )

    def layer_metrics(self, run_s, traced) -> dict:
        own = [
            h
            for _, op in traced
            for _, h, result in op.value
            if result is not None and not h.dedup
        ]
        waits = [h.started_ts - h.submitted_ts for h in own]
        m = self.svc.slo_metrics()
        out = probes.materialize(self.graph, self.tracer)
        out.update(self.callback_share(traced))
        out.update({
            "service.submit_us": 1e6 * median(self.submit_walls),
            "service.queue_wait_p50_s": median(waits),
            "service.queue_wait_p95_s": percentile(waits, 0.95),
            "service.exec_p50_s": median(
                h.finished_ts - h.started_ts for h in own
            ),
            "service.coalesced_frac": m["dedup_hits"] / m["submitted"],
            "service.runs_executed": m["runs_executed"],
            "service.rejected": m["rejected"],
            "service.plan_cache_hit_rate": m["plan_cache_hit_rate"],
            "service.graph_cache_hit_rate": m["graph_cache_hit_rate"],
        })
        return out

    profile_threads = True

    def profiled_ops(self) -> None:
        # cProfile is per thread and only new threads pick the hook up,
        # so the budget is taken on a service started under the profiler.
        warm, self.svc = self.svc, self.start_service()
        try:
            for _ in range(self.reps(5)):
                self.op()
        finally:
            self.svc.close()
            self.svc = warm

    def close(self) -> None:
        self.svc.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        MergeTreeMPI, MergeTreeMPIObserved, ReductionMPISkeleton,
        CompositeMPICompiled, RegistrationLocal, MergeTreeLocal, ServiceMix,
    )
}
