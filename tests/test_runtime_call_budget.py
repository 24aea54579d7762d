"""The per-task call budget of a warm, unobserved simulated run.

A wall-clock-free perf guard: the graph is lowered once per instance
(:meth:`~repro.core.graph.TaskGraph.tables`), so a *warm* run must never
ask the graph for a task again, and the interpreter work per task — every
Python and C function call ``sys.setprofile`` sees, the figure cProfile
reports — must stay under a committed ceiling.  The count is exact and
repeats run to run; a hot-path change that adds a call per task or per
message moves it by a whole unit.

Sits beside ``tests/test_obs_overhead.py``: that file proves an
unobserved run allocates nothing for observation, this one bounds what
it does at all.
"""

import sys

import pytest

import repro
from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.sched.compile import PLAN_CACHE

#: Calls per task on ``Reduction(1024, 4)`` / 256 procs, one ceiling per
#: kind of placement table: a flattened task map (``mpi``), the chare
#: round robin (``charm``) and a task map behind per-shard launchers
#: (``legion-spmd``).  ``mpi`` read 85.4 with per-run materialization,
#: slot-map and cursor dicts and one record object per task; 60.9 with
#: the lowered tables.  With placement and wire cost as plain data the
#: three read 56.9 / 55.0 / 69.7 (from 60.9 / 61.0 / 73.7); with each
#: callback resolved once per run and the arity checked without a call
#: per output, 48.2 / 46.2 / 61.0; with the callbacks in a pass of their
#: own ahead of the event loop, 44.7 / 42.8 / 52.7.  ``mpi-lowered`` is
#: the third ``compile=True`` run, which executes the callbacks alone:
#: 17.9 while every task went through ``CallbackRegistry.invoke``, 5.7
#: with the step table, 5.7 with the callback pass.  Landed + 10 %.
CALLS_PER_TASK_CEILING = {
    "mpi": 49.2, "charm": 47.0, "legion-spmd": 58.0, "mpi-lowered": 6.3,
}


@pytest.mark.parametrize("runtime", sorted(CALLS_PER_TASK_CEILING))
def test_a_warm_run_stays_in_its_call_budget_and_never_rematerializes(runtime):
    g = Reduction(1024, 4)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    backend, lowered, _ = runtime.partition("-lowered")
    options = {"compile": True} if lowered else {}

    def run():
        inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
        return repro.run(
            g, callbacks, inputs, runtime=backend, n_procs=256, **options
        )

    expected = run().output(g.root_id).data  # cold: lowers the graph
    if lowered:
        PLAN_CACHE.clear()
        run()  # records the plan's timing
        run()  # the first lowered run
    materialize = Reduction.task.__code__
    calls = materialized = 0

    def count(frame, event, arg):
        nonlocal calls, materialized
        if event == "call":
            calls += 1
            materialized += frame.f_code is materialize
        elif event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    assert result.output(g.root_id).data == expected
    assert materialized == 0
    per_task = calls / g.size()
    ceiling = CALLS_PER_TASK_CEILING[runtime]
    assert per_task <= ceiling, (
        f"{per_task:.1f} calls per task on a warm unobserved {runtime} run "
        f"(ceiling {ceiling})"
    )
