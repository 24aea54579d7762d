"""Small-surface tests closing coverage gaps across the library."""

import numpy as np
import pytest

from repro.core import Payload
from repro.core.errors import ControllerError
from repro.graphs import Broadcast, DataParallel, Reduction
from repro.runtimes import MPIController, SerialController
from repro.runtimes.result import RunResult


class TestRunResult:
    def test_single_output(self):
        r = RunResult(outputs={3: {0: Payload("x")}})
        assert r.single_output().data == "x"

    def test_single_output_rejects_many(self):
        r = RunResult(outputs={3: {0: Payload(1), 1: Payload(2)}})
        with pytest.raises(ValueError):
            r.single_output()

    def test_single_output_rejects_none(self):
        with pytest.raises(ValueError):
            RunResult().single_output()

    def test_output_keyerror(self):
        with pytest.raises(KeyError):
            RunResult().output(0)


class TestInputNormalization:
    def test_single_payload_for_single_slot(self):
        g = DataParallel(1)
        c = SerialController()
        c.initialize(g)
        c.register_callback(0, lambda ins, tid: [ins[0]])
        # Both forms accepted: a bare payload or a one-element list.
        assert c.run({0: Payload(7)}).output(0).data == 7
        assert c.run({0: [Payload(8)]}).output(0).data == 8

    def test_wrong_arity_rejected(self):
        g = DataParallel(1)
        c = SerialController()
        c.initialize(g)
        c.register_callback(0, lambda ins, tid: [ins[0]])
        with pytest.raises(ControllerError, match="expects 1"):
            c.run({0: [Payload(1), Payload(2)]})

    def test_non_payload_rejected(self):
        g = DataParallel(1)
        c = SerialController()
        c.initialize(g)
        c.register_callback(0, lambda ins, tid: [ins[0]])
        with pytest.raises(ControllerError, match="expected Payload"):
            c.run({0: [42]})


class TestGraphHelpers:
    def test_broadcast_depth_and_valence(self):
        g = Broadcast(27, 3)
        assert g.depth == 3
        assert g.valence == 3
        assert g.root_id == 0

    def test_reduction_leaf_index_errors(self):
        g = Reduction(4, 2)
        with pytest.raises(Exception):
            g.leaf_id(4)
        with pytest.raises(Exception):
            g.leaf_index(0)  # root is not a leaf

    def test_stats_summary_format(self):
        g = Reduction(4, 2)
        c = MPIController(2)
        c.initialize(g)
        for cb in g.callbacks():
            c.register_callback(cb, lambda ins, tid: [Payload(0)])
        r = c.run({t: Payload(0) for t in g.leaf_ids()})
        text = r.stats.summary()
        assert "makespan=" in text and "tasks=7" in text


class TestEstimateNbytesFallbacks:
    def test_unpicklable_object_gets_nominal_size(self):
        from repro.core.payload import estimate_nbytes

        class Odd:
            def __reduce__(self):
                raise TypeError("nope")

        assert estimate_nbytes(Odd()) == 64

    def test_object_with_nbytes_attr(self):
        from repro.core.payload import estimate_nbytes

        class HasNbytes:
            nbytes = 12345

        assert estimate_nbytes(HasNbytes()) == 12345
