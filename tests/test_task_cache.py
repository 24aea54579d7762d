"""The per-graph task-materialization memo.

Procedural graphs rebuild a Task object on every ``task(tid)`` call, and
a controller queries each task several times per run (input validation,
deposit, routing, placement).  ``Controller.run`` executes against the
graph's lowered tables (:meth:`~repro.core.graph.TaskGraph.tables`), so
the underlying graph must materialize each task **at most once per run**
— on every backend — and, once warm, **not at all**.

Enforced here with a counting proxy graph; see also
``tests/test_determinism_golden.py`` for the complementary guarantee
that the memo does not change any simulated result.
"""

import pickle
import threading
from collections import Counter

import pytest

from repro.core import graph as graph_module
from repro.core.payload import Payload
from repro.core.tables import GraphTables
from repro.graphs import Reduction
from repro.runtimes import (
    BlockingMPIController,
    LegionIndexController,
    LocalPoolController,
    MPIController,
)
from tests.conftest import all_controllers


class CountingReduction(Reduction):
    """A reduction that counts how often each task id is materialized."""

    def __init__(self, leaves: int, valence: int) -> None:
        super().__init__(leaves, valence)
        self.calls: Counter = Counter()

    def task(self, tid):
        self.calls[tid] += 1
        return super().task(tid)


def run_once(controller, graph):
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    controller.register_callback(graph.LEAF, lambda ins, tid: [ins[0]])
    controller.register_callback(graph.REDUCE, add)
    controller.register_callback(graph.ROOT, add)
    return controller.run(
        {t: Payload(i + 1) for i, t in enumerate(graph.leaf_ids())}
    )


@pytest.mark.parametrize(
    "controller", all_controllers(4), ids=lambda c: type(c).__name__
)
def test_each_task_materializes_at_most_once_per_run(controller):
    g = CountingReduction(16, 4)
    controller.initialize(g, None)
    g.calls.clear()  # drop any initialize-time queries; the memo is per run
    result = run_once(controller, g)
    assert result.stats.tasks_executed == g.size()
    over = {tid: n for tid, n in g.calls.items() if n > 1}
    assert not over, f"tasks materialized more than once: {over}"
    # Input validation walks the whole graph, so every id appears exactly once.
    assert sorted(g.calls) == list(range(g.size()))


@pytest.mark.parametrize(
    "controller", all_controllers(4), ids=lambda c: type(c).__name__
)
def test_memo_is_per_run_not_per_controller(controller):
    """Rewritten for the per-graph contract (the name is the per-run
    contract it replaced, kept so the suite's ids line up): the memo
    belongs to the graph instance, so a second run of the same instance
    materializes nothing — it used to re-materialize every task."""
    g = CountingReduction(16, 4)
    controller.initialize(g, None)
    g.calls.clear()
    first = run_once(controller, g)
    second = run_once(controller, g)
    # (Makespan is wall-clock on the serial backend; compare outputs.)
    assert first.output(0).data == second.output(0).data
    assert set(g.calls.values()) == {1} and len(g.calls) == g.size()


def test_the_memo_is_per_graph_instance_across_runs_and_controllers():
    """The tables are lowered by the first run of an instance and read
    by every later one — whichever controller it is, however many runs."""
    g = CountingReduction(16, 4)
    roots = set()
    controllers = all_controllers(4) + [LocalPoolController(2, mode="thread")]
    for controller in controllers:
        controller.initialize(g, None)
        for _ in range(2):
            roots.add(run_once(controller, g).output(0).data)
    assert len(roots) == 1
    # Fourteen runs on seven backends: every task materialized once.
    assert set(g.calls.values()) == {1} and len(g.calls) == g.size()
    assert g.tables() is g.cached().tables()


@pytest.mark.parametrize(
    "controller",
    [BlockingMPIController(4), LegionIndexController(4)],
    ids=lambda c: type(c).__name__,
)
def test_rounds_are_computed_once_per_graph_instance(controller, monkeypatch):
    """The two round-driven backends read ``rounds()`` every run; the
    instance computes it once, so a warm run crawls nothing."""
    g = CountingReduction(16, 4)
    controller.initialize(g, None)
    first = run_once(controller, g)
    crawls = []
    real = graph_module._rounds_from
    monkeypatch.setattr(
        graph_module, "_rounds_from", lambda tasks: crawls.append(1) or real(tasks)
    )
    second = run_once(controller, g)
    assert second.output(0).data == first.output(0).data
    assert second.makespan == first.makespan
    assert crawls == []
    assert g.rounds() is g.cached().rounds()


def test_a_different_instance_gets_its_own_tables():
    a, b = CountingReduction(16, 4), CountingReduction(16, 4)
    controller = MPIController(4)
    for g in (a, b):
        controller.initialize(g, None)
        g.calls.clear()
        run_once(controller, g)
        assert set(g.calls.values()) == {1} and len(g.calls) == g.size()
    assert a.tables() is not b.tables()
    assert a.tables().edge_slot == b.tables().edge_slot


def test_the_shared_view_reads_the_tables():
    g = CountingReduction(16, 4)
    assert g.cached().task(0) is g.tables().tasks[0]


def test_two_threads_racing_the_first_build_end_with_equal_tables():
    g = CountingReduction(64, 4)
    built = []
    barrier = threading.Barrier(2)

    def build():
        barrier.wait()
        built.append(g.tables())

    threads = [threading.Thread(target=build) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for name in GraphTables.__slots__:
        assert getattr(built[0], name) == getattr(built[1], name), name
    assert g.tables() in built  # one store published, no third build


class Holder:
    """A workload object: its bound-method callbacks drag the graph along
    to every pool worker."""

    def __init__(self, graph):
        self.graph = graph

    def leaf(self, ins, tid):
        return [ins[0]]


def test_tables_do_not_travel():
    g = Reduction(16, 4)
    holder = Holder(g)
    graph_blob, callback_blob = pickle.dumps(g), pickle.dumps(holder.leaf)
    controller = MPIController(4, compile=True)  # fingerprints the graph too
    controller.initialize(g, None)
    run_once(controller, g)
    assert {"tables", "fingerprint"} <= set(g._memo())
    assert pickle.dumps(g) == graph_blob
    assert pickle.dumps(holder.leaf) == callback_blob
    view = pickle.loads(pickle.dumps(g.cached()))  # views travel bare too
    assert "_repro_memo" not in vars(view._base)
    assert view.task(3) == g.task(3)


def test_cached_view_delegates_graph_helpers():
    g = CountingReduction(16, 4)
    view = g.cached()
    assert view.leaf_ids() == g.leaf_ids()
    assert view.size() == g.size()
    view.task(0)
    view.task(0)
    assert g.calls[0] == 1
