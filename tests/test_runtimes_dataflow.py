"""The dataflow kernel on its own, and against the serial oracle.

``run_bare`` drives :class:`~repro.runtimes.dataflow.DataflowKernel` with
a ten-line ready loop and no controller: the kernel answers what is
ready and who receives each output, the loop supplies the only "when"
there is (a stack).  ``SerialController`` keeps its own naive slot store
precisely so that these comparisons mean something.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ControllerError, FaultError, SimulationError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.core.task import Task
from repro.core.taskmap import ModuloMap
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import ListSink
from repro.obs.events import CORE_VOCABULARY, FAULT_VOCABULARY
from repro.runtimes import LocalPoolController, MPIController, SerialController
from repro.runtimes.dataflow import DataflowKernel, RunScaffold

from tests.golden_workloads import run_workload
from tests.test_property_random_dags import (
    RandomLayeredGraph,
    hashing_callback,
    run_on,
)


class TableGraph(TaskGraph):
    """A graph spelled out as ``{tid: (incoming, outgoing)}``."""

    def __init__(self, table):
        self._tasks = {t: Task(t, 0, i, o) for t, (i, o) in table.items()}

    def size(self):
        return len(self._tasks)

    def callbacks(self):
        return [0]

    def task(self, tid):
        return self._tasks[tid]


def make_kernel(graph, error=ControllerError, sinks=(), **kw):
    host = SimpleNamespace(_sinks=list(sinks), telemetry=False)
    run = RunScaffold(host, graph)
    return DataflowKernel(graph, run, error, **kw), run


def run_bare(graph, fn, inputs, **kw):
    """The whole driver: deposit, pop, call, route — until dry."""
    ready = []

    def deliver(origin, producer, consumer, slot, payload):
        if kernel.deposit(consumer, slot, payload, producer):
            ready.append(consumer)

    kernel, run = make_kernel(graph, **kw)
    for tid, slot, payload in kernel.tables.external(inputs):
        if kernel.deposit(tid, slot, payload, EXTERNAL):
            ready.append(tid)
    while ready:
        tid = ready.pop()
        if kernel.take_fault(tid):
            kernel.fail(tid, 0, 0.0, "task")
            kernel.retry(tid, 0, 0.0)
            ready.append(tid)
            continue
        kernel.route(tid, fn(kernel.inputs(tid, release=True), tid), 0, deliver)
    if len(kernel.done) != kernel.total:
        raise kernel.stalled()
    return run.outputs, kernel


def tag(ins, tid):
    return [Payload(f"{tid}.{c}") for c in range(2)]


def edges_of(kernel, tid, outputs):
    """The ``deliver`` calls routing ``tid`` makes, collected."""
    sent = []
    kernel.route(tid, outputs, 0, lambda *edge: sent.append(edge))
    return sent


class TestSlots:
    def test_two_channels_between_one_pair_fill_slots_in_channel_order(self):
        # 0 feeds 1 over two channels with 2 in between; 1's slots are
        # (0, 2, 0): channel 0 of task 0 must land in slot 0, channel 2
        # in slot 2, whatever order the messages were delivered in.
        g = TableGraph({
            0: ([EXTERNAL], [[1], [2], [1]]),
            2: ([0], [[1]]),
            1: ([0, 2, 0], [[TNULL]]),
        })
        seen = {}

        def fn(ins, tid):
            seen[tid] = [p.data for p in ins]
            return [Payload(f"{tid}.{c}") for c in range(len(g.task(tid).outgoing))]

        outputs, _ = run_bare(g, fn, {0: [Payload("x")]})
        assert seen[1] == ["0.0", "2.0", "0.2"]
        assert set(outputs) == {1}

    def test_a_multi_edge_delivered_in_reverse_lands_in_channel_order(self):
        # The ROADMAP 1(a) bug on the bare kernel: a lossy link
        # retransmits the two messages of one producer -> consumer pair
        # a different number of times, so channel 1 arrives first.
        g = TableGraph({
            0: ([EXTERNAL], [[1], [1]]),
            1: ([0, 0], [[TNULL]]),
        })
        kernel, _ = make_kernel(g)
        first, second = edges_of(kernel, 0, [Payload("ch0"), Payload("ch1")])
        for _, producer, consumer, slot, payload in (second, first):
            ready = kernel.deposit(consumer, slot, payload, producer)
        assert ready
        assert [p.data for p in kernel.inputs(1)] == ["ch0", "ch1"]

    def test_slot_map_is_the_one_the_compiler_stores(self):
        # The compiler is the lowering: the tables store, per edge, the
        # slot that ``Task.input_slots_from`` names for it.
        g = RandomLayeredGraph([3, 4, 2], seed=11)
        t = g.tables()
        taken = set()
        for i, task in enumerate(t.tasks):
            assert t.n_inputs[i] == task.n_inputs
            for e in range(t.edge_start[i], t.edge_start[i] + t.n_edges[i]):
                dst, slot = t.edge_dst[e], t.edge_slot[e]
                if dst == TNULL:
                    continue
                # The k-th edge of a pair fills the k-th slot that names
                # the producer (Task.input_slots_from), and no other edge.
                k = sum(
                    t.edge_dst[x] == dst for x in range(t.edge_start[i], e)
                )
                local = g.task(dst).input_slots_from(task.id)[k]
                assert slot == t.slot_start[dst] + local
                assert slot not in taken
                taken.add(slot)
        assert len(taken) + len(t.ext_slot) == t.n_slots
        assert t.sources == [
            tid for tid in g.task_ids() if g.task(tid).external_inputs()
        ]


class TestContractViolations:
    OVER = {
        0: ([EXTERNAL], [[1], [1]]),  # two channels to 1 ...
        1: ([0], [[TNULL]]),  # ... which has one slot
    }

    @pytest.mark.parametrize("error", [ControllerError, SimulationError])
    def test_over_delivery_is_the_drivers_error_class(self, error):
        kernel, _ = make_kernel(TableGraph(self.OVER), error=error)
        fits, over = edges_of(kernel, 0, [Payload(1), Payload(2)])
        assert kernel.deposit(1, fits[3], fits[4], 0) is True
        # The second channel has no slot in the tables ...
        with pytest.raises(error, match="task 1 received more messages "
                           "from 0 than it has slots"):
            kernel.deposit(1, over[3], over[4], 0)
        # ... and a slot cannot be filled twice.
        with pytest.raises(error, match="received more messages from 7"):
            kernel.deposit(1, fits[3], Payload(3), 7)

    def test_delivery_after_completion(self):
        kernel, _ = make_kernel(TableGraph(self.OVER))
        slot = kernel.tables.slot_start[1]
        assert kernel.deposit(1, slot, Payload(1), 0)
        kernel.route(1, [Payload("out")], 0, deliver=None)  # a sink: no edge
        with pytest.raises(ControllerError, match="task 1 received a message "
                           "from 0 after it already completed"):
            kernel.deposit(1, slot, Payload(2), 0)

    def test_double_enqueue(self):
        kernel, _ = make_kernel(TableGraph(self.OVER))
        kernel.enqueued(1, 0, 0.0)
        with pytest.raises(ControllerError, match="task 1 enqueued twice"):
            kernel.enqueued(1, 0, 0.0)

    def test_stall_names_the_waiting_ids_in_ascending_order(self):
        # 0 feeds 11..1 (in that order); each also waits on 12, whose
        # external input never comes.
        g = TableGraph({
            0: ([EXTERNAL], [[t] for t in range(11, 0, -1)]),
            **{t: ([0, 12], [[TNULL]]) for t in range(1, 12)},
            12: ([EXTERNAL], [list(range(1, 12))]),
        })
        fn = lambda ins, tid: [Payload(tid)] * len(g.task(tid).outgoing)
        for error in (ControllerError, SimulationError):
            with pytest.raises(error) as exc:
                run_bare(g, fn, {0: [Payload(1)]}, error=error)
            assert str(exc.value) == (
                "dataflow stalled: executed 1 of 13 tasks; "
                "waiting tasks include [1, 2, 3, 4, 5, 6, 7, 8]"
            )


class TestAttempts:
    CHAIN = {0: ([EXTERNAL], [[1]]), 1: ([0], [[TNULL]])}

    def test_budget_then_fault_error_at_max_attempts(self):
        g = TableGraph(self.CHAIN)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_factor=2.0)
        sink = ListSink()
        outputs, kernel = run_bare(
            g, tag, {0: [Payload(1)]}, sinks=[sink],
            fault_plan=FaultPlan(task_faults={1: 2}), policy=policy,
        )
        assert outputs[1][0].data == "1.0" and kernel.retries == 2
        assert [(e.type, e.task, e.dur, e.label) for e in sink.events] == [
            ("fault.injected", 1, 0.0, "t1 fault"),
            ("task.retry", 1, 0.5, "t1 retry #1"),
            ("fault.injected", 1, 0.0, "t1 fault"),
            ("task.retry", 1, 1.0, "t1 retry #2"),
        ]
        with pytest.raises(FaultError, match=r"task 1 failed 3 attempts "
                           r"\(RetryPolicy.max_attempts=3\)"):
            run_bare(
                g, tag, {0: [Payload(1)]},
                fault_plan=FaultPlan(task_faults={1: 3}), policy=policy,
            )

    def test_a_plan_is_consumed_per_kernel_not_per_plan(self):
        plan = FaultPlan(task_faults={0: 1})
        for _ in range(2):
            kernel, _ = make_kernel(TableGraph(self.CHAIN), fault_plan=plan)
            assert kernel.take_fault(0) and not kernel.take_fault(0)


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.integers(0, 10_000),
)
def test_the_bare_kernel_equals_the_serial_oracle(sizes, seed):
    graph = RandomLayeredGraph(sizes, seed)
    inputs = {
        tid: [Payload(f"seed-{tid}-{s}")
              for s in range(len(graph.task(tid).external_inputs()))]
        for tid in graph.task_ids()
        if graph.task(tid).external_inputs()
    }
    outputs, _ = run_bare(
        graph,
        lambda ins, tid: hashing_callback(ins, tid, graph.task(tid).n_outputs),
        inputs,
    )
    flat = {
        (tid, ch): p.data for tid, by_ch in outputs.items()
        for ch, p in by_ch.items()
    }
    assert flat == run_on(graph, SerialController)


def test_a_retry_is_enqueued_like_a_first_attempt_on_every_driver():
    """One retry sequence: a retried attempt re-enters the run queue
    with ``task_enqueued`` (and a fresh wait stamp) on the pool driver
    as on the virtual-time one, so enqueues and starts balance."""
    from tests.golden_workloads import _legacy_faults_plan, _legacy_faults_policy

    streams = {}
    for name, c in {
        # One rank: no serialization overhead events, like the pool.
        "mpi": MPIController(
            1, fault_plan=_legacy_faults_plan(),
            retry_policy=_legacy_faults_policy(),
        ),
        "local": LocalPoolController(
            1, mode="inline", telemetry=True,
            fault_plan=_legacy_faults_plan(),
            retry_policy=_legacy_faults_policy(),
        ),
    }.items():
        _, sink, result = run_workload(c)
        streams[name] = Counter(
            (e.type, e.task) for e in sink.events
            if e.type in CORE_VOCABULARY | FAULT_VOCABULARY
        )
        by_type = Counter(e.type for e in sink.events)
        assert by_type["task_enqueued"] == by_type["task_started"] == 66
    assert streams["local"] == streams["mpi"]
    # The three retries waited out their backoff: no zero-wait samples.
    wait = result.metrics.sketches["queue_wait_seconds"]
    assert wait["count"] == 66 and wait.get("zeros", 0) == 0


def test_a_sparse_id_space_runs_on_the_kernel_and_both_drivers():
    """Ids need not be ``range(n)``: the tables then index by dict, and
    nothing above them notices."""
    from repro.core.explicit import ExplicitGraph
    from repro.runtimes import CharmController

    g = ExplicitGraph([
        Task(3, 0, [EXTERNAL], [[7, 10], [10]]),
        Task(7, 0, [3], [[10]]),
        Task(10, 0, [3, 7, 3], [[TNULL]]),
    ])
    fn = lambda ins, tid: hashing_callback(ins, tid, g.task(tid).n_outputs)
    inputs = {3: [Payload("x")]}
    outputs, _ = run_bare(g, fn, inputs)
    for controller in (
        SerialController(), CharmController(2),
        LocalPoolController(2, mode="thread"),
    ):
        controller.initialize(g, None)
        controller.register_callback(0, fn)
        assert controller.run(inputs).outputs[10][0].data == outputs[10][0].data
