"""What a lowered run does with a callback's return value, and with
whose callbacks.

A warm ``compile=True`` run (see ``docs/performance.md``) resolves each
callback id from its own controller's registry once per run and checks
a callback's return inline only when it is an exact ``list`` of exact
:class:`Payload` items of the task's arity; everything else goes through
:func:`~repro.core.callbacks.validate_outputs`.  These tests pin that
every unusual return gives the result or the :class:`CallbackError` the
interpreted run gives, and that tenants sharing one plan each run their
own callbacks.  Also here: the exact messages of the controller's
initial-input checks, which have a fast path of their own.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import CallbackError, ControllerError
from repro.core.explicit import ExplicitGraph
from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.core.task import Task
from repro.graphs import Reduction
from repro.sched.compile import PLAN_CACHE
from repro.sim.engine import Engine


class Tagged(Payload):
    __slots__ = ()


class Outputs(list):
    pass


def _leaf(ins, tid):
    return [ins[0]]


def _add(ins, tid):
    return [Payload(sum(p.data for p in ins))]


#: Odd returns: (callback, accepted by validate_outputs).
ODD_RETURNS = {
    "tuple": (lambda ins, tid: (_add(ins, tid)[0],), False),
    "wrong length": (lambda ins, tid: _add(ins, tid) * 2, False),
    "non-Payload item": (lambda ins, tid: [_add(ins, tid)[0].data], False),
    "list subclass": (lambda ins, tid: Outputs(_add(ins, tid)), True),
    "Payload subclass": (
        lambda ins, tid: [Tagged(_add(ins, tid)[0].data)],
        True,
    ),
}


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts ``Engine.run`` calls: zero means the run was lowered."""
    calls = {"n": 0}
    real = Engine.run

    def run(self):
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(Engine, "run", run)
    return calls


def _run(graph, callbacks, inputs, compiled):
    return repro.run(
        graph, callbacks, inputs, runtime="mpi", n_procs=4, compile=compiled
    )


def _outcome(graph, callbacks, inputs, compiled):
    """``("ok", outputs, stats)`` or ``("error", type, message)``."""
    try:
        result = _run(graph, callbacks, inputs, compiled)
    except CallbackError as exc:
        return ("error", type(exc), str(exc))
    return (
        "ok",
        [
            (tid, ch, type(p), p.data, p.nbytes)
            for tid, by_ch in result.outputs.items()
            for ch, p in by_ch.items()
        ],
        result.stats,
    )


@pytest.mark.parametrize("variant", sorted(ODD_RETURNS))
@pytest.mark.parametrize("task", ["REDUCE", "ROOT"])
def test_a_warm_plan_treats_every_return_as_the_interpreter(
    task, variant, engine_runs
):
    """A REDUCE output feeds another task; ROOT's is returned, so only
    the return check itself can catch it."""
    g = Reduction(16, 4)
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    good = {g.LEAF: _leaf, g.REDUCE: _add, g.ROOT: _add}
    PLAN_CACHE.clear()
    _run(g, good, inputs, True)  # records
    _run(g, good, inputs, True)  # lowered: the plan is warm
    callback, accepted = ODD_RETURNS[variant]
    odd = {**good, getattr(g, task): callback}
    interpreted = _outcome(g, odd, inputs, False)
    before = engine_runs["n"]
    compiled = _outcome(g, odd, inputs, True)
    assert compiled == interpreted
    assert (interpreted[0] == "ok") is accepted
    # An accepted return stays on the lowered path; a rejected one falls
    # back to the engine, which raises.
    assert engine_runs["n"] == before + (not accepted)


def test_none_from_a_task_without_outputs(engine_runs):
    g = ExplicitGraph(
        [
            Task(0, 0, [EXTERNAL], [[1], [2]]),
            Task(1, 1, [0], [[TNULL]]),
            Task(2, 2, [0], []),  # no output channel
        ]
    )
    split = lambda ins, tid: [ins[0], ins[0]]
    callbacks = {0: split, 1: _leaf, 2: lambda ins, tid: []}
    inputs = {0: Payload(7)}
    PLAN_CACHE.clear()
    _run(g, callbacks, inputs, True)
    _run(g, callbacks, inputs, True)
    returns_none = {**callbacks, 2: lambda ins, tid: None}
    interpreted = _outcome(g, returns_none, inputs, False)
    before = engine_runs["n"]
    assert _outcome(g, returns_none, inputs, True) == interpreted
    assert interpreted[1] == [(1, 0, Payload, 7, 8)]
    assert engine_runs["n"] == before


def test_tenants_sharing_a_plan_each_run_their_own_callbacks(engine_runs):
    g = Reduction(16, 4)
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    base = sum(range(1, 17))

    def scaled(k):
        return {
            g.LEAF: lambda ins, tid: [Payload(k * ins[0].data)],
            g.REDUCE: _add,
            g.ROOT: _add,
        }

    tenants = {k: scaled(k) for k in (1, 2, 3)}
    PLAN_CACHE.clear()
    _run(g, tenants[1], inputs, True)  # records
    assert len(PLAN_CACHE) == 1
    before = engine_runs["n"]
    for _ in range(2):
        for k, callbacks in tenants.items():
            result = _run(g, callbacks, inputs, True)
            assert result.output(g.root_id).data == k * base
    assert engine_runs["n"] == before
    assert len(PLAN_CACHE) == 1


# ---------------------------------------------------------------------- #
# Initial inputs: the checks behind the single-payload fast path
# ---------------------------------------------------------------------- #

_G = Reduction(4, 4)
_LEAF = sorted(_G.leaf_ids())[0]
_ALL = {t: Payload(1) for t in _G.leaf_ids()}

BAD_INPUTS = {
    "missing": (
        {t: p for t, p in _ALL.items() if t != _LEAF},
        f"task {_LEAF} expects 1 external input(s) but none were provided",
    ),
    "not a Payload": (
        {**_ALL, _LEAF: [42]},
        f"initial input for task {_LEAF} contains a int, expected Payload",
    ),
    "wrong count": (
        {**_ALL, _LEAF: [Payload(1), Payload(2)]},
        f"task {_LEAF} expects 1 external input(s), got 2",
    ),
    "no external slot": (
        {**_ALL, _G.root_id: Payload(1)},
        f"initial inputs provided for tasks without external slots: "
        f"[{_G.root_id}]",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_initial_input_errors_keep_their_messages(case):
    inputs, message = BAD_INPUTS[case]
    callbacks = {_G.LEAF: _leaf, _G.REDUCE: _add, _G.ROOT: _add}
    with pytest.raises(ControllerError) as err:
        repro.run(_G, callbacks, inputs, runtime="mpi", n_procs=2)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "value",
    [Tagged(5), [Payload(5)], (Payload(5),)],
    ids=["subclass", "list", "tuple"],
)
def test_initial_inputs_off_the_fast_path_are_accepted(value):
    callbacks = {_G.LEAF: _leaf, _G.REDUCE: _add, _G.ROOT: _add}
    inputs = {**_ALL, _LEAF: value}
    result = repro.run(_G, callbacks, inputs, runtime="mpi", n_procs=2)
    assert result.output(_G.root_id).data == 8


def test_one_payload_for_two_external_slots_keeps_its_message():
    g = ExplicitGraph([Task(0, 0, [EXTERNAL, EXTERNAL], [[TNULL]])])
    with pytest.raises(ControllerError) as err:
        repro.run(g, {0: _add}, {0: Payload(1)}, runtime="mpi", n_procs=2)
    assert str(err.value) == "task 0 expects 2 external input(s), got 1"
