"""The one-pass request key coalesces exactly as the per-payload key did,
and a coalesced result is one read-only value.

``request_key`` builds the inputs' token from three columns (data, type
names, ``nbytes``) hashed once; :func:`_reference_inputs_token` below is
the token it replaced, a tuple per payload built inside ``try:
hash(data)``.  Two requests must coalesce under the new key exactly when
they did under the old one.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.errors import ControllerError
from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.obs import ListSink
from repro.service import RunRequest, RunService, request_key


def _reference_payload_token(p: Payload) -> tuple:
    data = p.data
    try:
        hash(data)
    except TypeError:
        return ("id", id(p))
    return ("val", type(data).__name__, data, p.nbytes)


def _reference_inputs_token(inputs) -> tuple:
    parts = []
    for tid in sorted(inputs):
        value = inputs[tid]
        if isinstance(value, Payload):
            parts.append((tid, _reference_payload_token(value)))
        else:
            parts.append(
                (tid, tuple(_reference_payload_token(p) for p in value))
            )
    return tuple(parts)


_G = Reduction(4, 2)
_CALLBACKS = {_G.LEAF: len, _G.REDUCE: len, _G.ROOT: len}
_ARRAYS = [np.arange(3), np.zeros(2)]
_NAN = math.nan


class Tagged(Payload):
    __slots__ = ()


def _key(inputs):
    return request_key(RunRequest(_G, _CALLBACKS, inputs))


# Few distinct values, so that equal keys are common.  1, 1.0 and True
# hash and compare equal but differ in type name; two NaN objects differ.
_data = st.sampled_from(
    [0, 1, 2, 1.0, 0.0, -0.0, True, False, "a", "b", None, _NAN,
     float("nan"), *_ARRAYS, {"k": 1}]
)


@st.composite
def _payload_pool(draw):
    """Payload objects shared by both sides: an identity token is equal
    only when both requests carry the very same payload."""
    specs = draw(st.lists(
        st.tuples(_data, st.sampled_from([None, 8, 16]), st.booleans()),
        min_size=1, max_size=6,
    ))
    return [
        (Tagged if tagged else Payload)(d, nbytes=n) for d, n, tagged in specs
    ]


@st.composite
def _input_pair(draw):
    pool = draw(_payload_pool())
    pick = st.sampled_from(pool)
    value = st.one_of(
        pick,
        pick.map(lambda p: type(p)(p.data, nbytes=p.nbytes)),  # a fresh twin
        st.lists(pick, min_size=0, max_size=3),  # a multi-slot list
    )
    tids = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)

    def inputs():
        return draw(tids.flatmap(
            lambda ts: st.fixed_dictionaries({t: value for t in ts})
        ))

    a = inputs()
    how = draw(st.sampled_from(["copy", "edit", "fresh"]))
    if how == "fresh":
        return a, inputs()
    b = dict(a)
    if how == "edit":  # one task's input drawn again
        b[draw(st.sampled_from(sorted(b)))] = draw(value)
    return a, b


@settings(max_examples=400, deadline=None)
@given(_input_pair())
def test_the_one_pass_key_coalesces_exactly_as_the_per_payload_key(pair):
    a, b = pair
    old = _reference_inputs_token(a) == _reference_inputs_token(b)
    new = _key(a) == _key(b)
    assert new == old
    if new:
        assert hash(_key(a)) == hash(_key(b))


@pytest.mark.parametrize(
    "a, b",
    [
        (Payload(1), Payload(1.0)),
        (Payload(1), Payload(True)),
        (Payload(1.0), Payload(True)),
        (Payload(7, nbytes=8), Payload(7, nbytes=16)),
        (Payload(_ARRAYS[0]), Payload(_ARRAYS[0])),  # equal data, two ids
        (Payload(2), [Payload(2)]),
    ],
)
def test_values_that_never_coalesce(a, b):
    assert _key({0: a}) != _key({0: b})
    assert _key({0: a, 1: Payload(3)}) != _key({0: b, 1: Payload(3)})


def _root_sum(n):
    return sum(range(1, n + 1))


def _leaf(ins, tid):
    return [ins[0]]


def _add(ins, tid):
    return [Payload(sum(p.data for p in ins))]


def test_a_coalesced_followers_write_raises_and_the_leaders_result_stands():
    """The bob / alice probe: two tenants share one execution, and so one
    result; bob can write to neither its payload map nor its stats."""
    g = Reduction(16, 4)
    callbacks = {g.LEAF: _leaf, g.REDUCE: _add, g.ROOT: _add}

    def inputs():
        return {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}

    gate = threading.Event()
    hold = DataParallel(1)
    blocker = RunRequest(
        hold, {hold.WORK: lambda ins, tid: (gate.wait(10), [ins[0]])[1]},
        {0: Payload(0)}, runtime="serial",
    )
    with RunService(workers=1) as svc:
        held = svc.submit(blocker)
        deadline = time.monotonic() + 10
        while held.status != "running":
            assert time.monotonic() < deadline, "blocker never started"
            time.sleep(0.002)
        alice, bob = (
            svc.submit(RunRequest(g, callbacks, inputs(), n_procs=4,
                                  tenant=tenant, options={"compile": True}))
            for tenant in ("alice", "bob")
        )
        gate.set()
        mine, theirs = alice.result(30), bob.result(30)
    assert bob.dedup and theirs is mine
    root = g.root_id
    makespan = mine.stats.makespan
    with pytest.raises(TypeError):
        theirs.outputs[root][0] = Payload(-1)
    with pytest.raises(TypeError):
        theirs.outputs[root] = {}
    with pytest.raises(FrozenInstanceError):
        theirs.stats.makespan = 0.0
    with pytest.raises(TypeError):
        theirs.stats.category_time["compute"] = 0.0
    with pytest.raises(TypeError):
        theirs.metrics.counters["tasks_executed"] = 0
    with pytest.raises(FrozenInstanceError):
        theirs.outputs = {}
    assert mine.output(root).data == _root_sum(16)
    assert mine.stats.makespan == makespan
    assert mine.metrics.counters["tasks_executed"] == g.size()
    # The migration: copy first, then edit the copy.
    edited = dict(theirs.outputs[root])
    edited[0] = Payload(-1)
    assert mine.output(root).data == _root_sum(16)


def test_inputs_for_the_wrong_tasks_are_refused_before_any_event():
    """Every source has one slot and the input count is right, but one
    input names a task without external slots: the fast path hands it to
    the full check, which raises before ``run_started``."""
    g = Reduction(4, 4)
    callbacks = {g.LEAF: _leaf, g.REDUCE: _add, g.ROOT: _add}
    leaves = sorted(g.leaf_ids())
    inputs = {t: Payload(1) for t in leaves[1:]}
    inputs[g.root_id] = Payload(1)
    sink = ListSink()
    with pytest.raises(ControllerError) as err:
        repro.run(g, callbacks, inputs, runtime="mpi", n_procs=2,
                  sinks=[sink])
    assert str(err.value) == (
        f"task {leaves[0]} expects 1 external input(s) but none were provided"
    )
    assert sink.events == []
