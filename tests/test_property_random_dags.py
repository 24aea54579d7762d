"""Property test: arbitrary dataflows behave identically on every backend.

Generates random layered DAGs — random fan-in/fan-out, multi-consumer
channels, multiple edges between the same task pair, tasks with several
external inputs, sinks at arbitrary layers — runs them with a
deterministic content-hashing callback on every controller, and asserts
the collected outputs match the serial reference exactly.  This is the
paper's regression-testing claim quantified over the *space of graphs*
rather than three hand-picked workloads.  On the static-placement
backends, compiled runs — the one that records a plan's timing and the
lowered one that reuses it — must reproduce the interpreted run exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.core.task import Task
from repro.runtimes import (
    BlockingMPIController,
    CharmController,
    LegionIndexController,
    LegionSPMDController,
    MPIController,
    SerialController,
)
from repro.runtimes.costs import CallableCost


class RandomLayeredGraph(TaskGraph):
    """A random DAG with ``sizes[i]`` tasks in layer ``i``.

    Every non-first-layer task draws 1-3 producers from the previous
    layer (duplicates allowed: multi-edge).  Producers' channels fan out
    to every consumer that picked them.  Tasks nobody consumes return
    their output to the caller.
    """

    def __init__(self, sizes: list[int], seed: int) -> None:
        if not sizes or any(s <= 0 for s in sizes):
            raise GraphError(f"invalid layer sizes {sizes}")
        rng = np.random.default_rng(seed)
        self._tasks: dict[int, Task] = {}
        bases = np.concatenate([[0], np.cumsum(sizes)])
        incoming: dict[int, list[int]] = {}
        outgoing: dict[int, list[list[int]]] = {}
        for layer, size in enumerate(sizes):
            for i in range(size):
                tid = int(bases[layer] + i)
                if layer == 0:
                    incoming[tid] = [EXTERNAL] * int(rng.integers(1, 3))
                else:
                    k = int(rng.integers(1, 4))
                    prev = rng.integers(bases[layer - 1], bases[layer], size=k)
                    incoming[tid] = sorted(int(p) for p in prev)
                outgoing[tid] = []
        # Build producer channels from consumer picks: producer p gets one
        # channel per (consumer, slot) pair targeting it, in consumer
        # order — this matches the slot-filling order contract.
        for tid in sorted(incoming):
            for src in incoming[tid]:
                if src == EXTERNAL:
                    continue
                outgoing[src].append([tid])
        for tid in sorted(incoming):
            if not outgoing[tid]:
                outgoing[tid] = [[TNULL]]
            self._tasks[tid] = Task(tid, 0, incoming[tid], outgoing[tid])
        self._size = int(bases[-1])

    def size(self) -> int:
        return self._size

    def callbacks(self):
        return [0]

    def task(self, tid: int) -> Task:
        try:
            return self._tasks[tid]
        except KeyError:
            raise GraphError(f"no task {tid}") from None


def hashing_callback(
    inputs: list[Payload], tid: int, n_outputs: int
) -> list[Payload]:
    """Deterministic content mixer: output depends on every input and on
    the task id, one distinct value per output channel."""
    h = hashlib.sha256()
    h.update(str(tid).encode())
    for p in inputs:
        h.update(str(p.data).encode())
    digest = h.hexdigest()
    return [Payload(f"{digest}:{c}") for c in range(n_outputs)]


def run_on(graph: RandomLayeredGraph, ctor):
    c = ctor()
    c.initialize(graph)

    def cb(inputs, tid):
        return hashing_callback(inputs, tid, graph.task(tid).n_outputs)

    c.register_callback(0, cb)
    inputs = {}
    for tid in graph.task_ids():
        ext = graph.task(tid).external_inputs()
        if ext:
            inputs[tid] = [Payload(f"seed-{tid}-{s}") for s in range(len(ext))]
    result = c.run(inputs)
    return {
        (tid, ch): p.data
        for tid, by_ch in result.outputs.items()
        for ch, p in by_ch.items()
    }


CONTROLLERS = [
    lambda: MPIController(3),
    lambda: BlockingMPIController(3),
    lambda: CharmController(3),
    lambda: LegionSPMDController(3),
    lambda: LegionIndexController(3),
]


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.integers(0, 10_000),
)
def test_random_dags_identical_everywhere(sizes, seed):
    graph = RandomLayeredGraph(sizes, seed)
    graph.validate()
    reference = run_on(graph, SerialController)
    assert reference, "every graph must return something"
    for ctor in CONTROLLERS:
        assert run_on(graph, ctor) == reference


@settings(deadline=None, max_examples=15)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=4),
    st.integers(0, 10_000),
    st.integers(1, 7),
)
def test_random_dags_independent_of_cluster_size(sizes, seed, n_procs):
    graph = RandomLayeredGraph(sizes, seed)
    reference = run_on(graph, SerialController)
    assert run_on(graph, lambda: MPIController(n_procs)) == reference
    assert run_on(graph, lambda: CharmController(n_procs)) == reference


def hashed_cost(task, inputs) -> float:
    """Virtual seconds read off the input payloads' content."""
    digest = hashlib.sha256(repr([p.data for p in inputs]).encode()).digest()
    return (1 + digest[0]) * 1e-5


def run_full(graph: RandomLayeredGraph, ctor, pad: int) -> tuple:
    """Outputs in result order, stats and metrics of one run whose
    external payloads grow with ``pad``."""
    c = ctor()
    c.initialize(graph)
    c.register_callback(
        0, lambda ins, tid: hashing_callback(ins, tid, graph.task(tid).n_outputs)
    )
    inputs = {}
    for tid in graph.task_ids():
        ext = graph.task(tid).external_inputs()
        if ext:
            inputs[tid] = [
                Payload("x" * pad + f"seed-{tid}-{s}") for s in range(len(ext))
            ]
    result = c.run(inputs)
    return (
        [
            (tid, ch, p.data)
            for tid, by_ch in result.outputs.items()
            for ch, p in by_ch.items()
        ],
        result.stats,
        result.metrics.counters,
        result.metrics.gauges,
        result.metrics.histograms,
    )


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.integers(0, 10_000),
    st.lists(st.integers(0, 40), min_size=2, max_size=2),
)
def test_random_dags_compiled_runs_match_interpreted(sizes, seed, pads):
    graph = RandomLayeredGraph(sizes, seed)
    for cls in (MPIController, BlockingMPIController, LegionSPMDController):
        def make(compiled: bool):
            return lambda: cls(
                3, cost_model=CallableCost(hashed_cost), compile=compiled
            )

        # The second payload size finds the first one's record on the
        # plan: its guards miss (unless the pads are equal) and it records
        # anew.
        for pad in pads:
            interpreted = run_full(graph, make(False), pad)
            for _ in range(2):  # the recording run, then the lowered one
                assert run_full(graph, make(True), pad) == interpreted
