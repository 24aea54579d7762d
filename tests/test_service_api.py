"""The typed request surface: RunOptions, RunRequest, and the
did-you-mean option/kwarg validation across every entry point.

The api_redesign contract: unknown option names fail with a suggestion
and the full roster (never a bare TypeError from a constructor's guts),
the removed legacy fault kwargs are unknown options like any other, and
the request fingerprinting that drives dedup keys structurally-identical
submissions equal.
"""

import weakref

import numpy as np
import pytest

import repro
from repro.core.errors import ControllerError
from repro.core.payload import Payload
from repro.core.taskmap import ModuloMap
from repro.faults.plan import FaultPlan
from repro.faults.policy import legacy_policy
from repro.graphs import Reduction
from repro.obs.events import ListSink
from repro.runtimes import REGISTRY, make_controller
from repro.runtimes.simbase import SimController
from repro.service import (
    RunOptions,
    RunRequest,
    RunService,
    request_key,
)


def reduction_spec():
    g = Reduction(16, 4)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    return g, callbacks, inputs, g.root_id, 136


class TestRunOptionsCoerce:
    def test_none_gives_all_defaults(self):
        opts = RunOptions.coerce(None)
        assert opts == RunOptions()
        assert opts.to_kwargs() == {}

    def test_instance_passes_through(self):
        opts = RunOptions(compile=True)
        assert RunOptions.coerce(opts) is opts

    def test_dict_becomes_kwargs(self):
        opts = RunOptions.coerce({"compile": True, "cores_per_proc": 2})
        assert opts.compile is True
        assert opts.cores_per_proc == 2

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="RunOptions"):
            RunOptions.coerce(42)

    def test_none_valued_kwargs_dropped(self):
        opts = RunOptions.from_kwargs(cost_model=None, balancer=None)
        assert opts == RunOptions()

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(ControllerError) as err:
            RunOptions.from_kwargs(cost_modl=object())
        msg = str(err.value)
        assert "cost_modl" in msg
        assert "did you mean 'cost_model'?" in msg
        # the full roster rides along
        for name in RunOptions.names():
            assert name in msg

    def test_unknown_name_without_close_match_still_lists_roster(self):
        with pytest.raises(ControllerError) as err:
            RunOptions.from_kwargs(zzz_frobnicate=1)
        assert "supported options" in str(err.value)


class TestLegacyFaultOptionsRemoved:
    def test_faults_is_an_unknown_option(self):
        with pytest.raises(ControllerError) as err:
            RunOptions.from_kwargs(faults={3: 1})
        assert "unknown run option(s) 'faults'" in str(err.value)
        assert "did you mean 'fault_plan'?" in str(err.value)

    def test_fault_retry_delay_is_an_unknown_option(self):
        with pytest.raises(ControllerError, match="'fault_retry_delay'"):
            RunOptions.from_kwargs(fault_retry_delay=0.5)

    def test_facade_rejects_the_legacy_spelling(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        with pytest.raises(ControllerError, match="did you mean 'fault_plan'"):
            repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                      faults={0: 1}, fault_retry_delay=0.25)

    def test_modern_spelling_runs(self):
        g, callbacks, inputs, probe, expected = reduction_spec()
        r = repro.run(
            g, callbacks, inputs, runtime="mpi", n_procs=4,
            fault_plan=FaultPlan(task_faults={0: 1}),
            retry_policy=legacy_policy(0.25),
        )
        assert r.output(probe).data == expected
        assert r.metrics.counters["retries"] == 1


class TestRegistryKwargErrors:
    def test_simulated_backend_suggests_closest_kwarg(self):
        with pytest.raises(ControllerError) as err:
            make_controller("mpi", n_procs=4, cost_modell=object())
        msg = str(err.value)
        assert "did you mean 'cost_model'?" in msg
        assert "supported kwargs" in msg
        assert "machine" in msg

    def test_local_backend_lists_its_own_roster(self):
        with pytest.raises(ControllerError) as err:
            make_controller("local", moed="thread")
        msg = str(err.value)
        assert "did you mean 'mode'?" in msg
        assert "n_workers" in msg

    def test_serial_error_names_supported_kwargs(self):
        with pytest.raises(ControllerError) as err:
            make_controller("serial", fault_plan=FaultPlan(task_faults={0: 1}))
        msg = str(err.value)
        assert "sinks" in msg and "telemetry" in msg

    def test_forwarding_constructors_inherit_base_roster(self):
        # Charm++'s __init__ is (*args, **kwargs): the roster resolves
        # through the MRO to SimController's explicit signature.
        assert REGISTRY["charm"].supported_kwargs() == (
            SimController.supported_kwargs()
        )
        assert "balancer" in REGISTRY["charm"].supported_kwargs()

    def test_facade_rejects_typoed_option(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        with pytest.raises(ControllerError, match="did you mean 'compile'"):
            repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                      comple=True)


class TestRunRequest:
    def test_options_dict_coerced_and_sinks_frozen(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        req = RunRequest(g, callbacks, inputs, options={"compile": True},
                         sinks=[ListSink()])
        assert isinstance(req.options, RunOptions)
        assert req.options.compile is True
        assert isinstance(req.sinks, tuple)

    def test_structurally_identical_requests_share_a_key(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        a = RunRequest(g, callbacks, inputs, runtime="mpi", n_procs=4,
                       tenant="alice")
        b = RunRequest(g, callbacks, inputs, runtime="mpi", n_procs=4,
                       tenant="bob")
        # tenants intentionally do NOT partition the key: cross-tenant
        # dedup is the point of a shared service.
        assert request_key(a) == request_key(b) is not None

    def test_equal_value_payloads_built_separately_share_a_key(self):
        g, callbacks, _, _, _ = reduction_spec()
        mk = lambda: {t: Payload(i + 1)
                      for i, t in enumerate(g.leaf_ids())}
        a = RunRequest(g, callbacks, mk(), runtime="mpi", n_procs=4)
        b = RunRequest(g, callbacks, mk(), runtime="mpi", n_procs=4)
        assert request_key(a) == request_key(b)

    def test_different_inputs_or_shape_split_keys(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        base = RunRequest(g, callbacks, inputs, runtime="mpi", n_procs=4)
        other_inputs = dict(inputs)
        first = next(iter(other_inputs))
        other_inputs[first] = Payload(999)
        assert request_key(base) != request_key(
            RunRequest(g, callbacks, other_inputs, runtime="mpi", n_procs=4)
        )
        assert request_key(base) != request_key(
            RunRequest(g, callbacks, inputs, runtime="mpi", n_procs=8)
        )
        assert request_key(base) != request_key(
            RunRequest(g, callbacks, inputs, runtime="charm", n_procs=4)
        )

    def test_task_map_keys_by_value_fingerprint(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        mk = lambda: RunOptions(task_map=ModuloMap(4, g.size()))
        a = RunRequest(g, callbacks, inputs, runtime="mpi", n_procs=4,
                       options=mk())
        b = RunRequest(g, callbacks, inputs, runtime="mpi", n_procs=4,
                       options=mk())
        assert request_key(a) == request_key(b)

    def test_side_effect_bearing_requests_never_coalesce(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        # A kept trace is a ListSink like any other per-run sink.
        with_sink = RunRequest(g, callbacks, inputs, sinks=[ListSink()])
        with_live = RunRequest(g, callbacks, inputs,
                               options={"live": "status-dir"})
        assert not with_sink.coalescible
        assert not with_live.coalescible
        assert request_key(with_sink) is None
        assert request_key(with_live) is None


class TestTopLevelSubmit:
    def test_submit_resolves_like_run(self):
        g, callbacks, inputs, probe, expected = reduction_spec()
        with RunService(workers=1) as svc:
            handle = repro.submit(
                g, callbacks, inputs, runtime="mpi", n_procs=4,
                tenant="t0", service=svc,
            )
            result = handle.result(timeout=10)
        assert result.output(probe).data == expected
        baseline = repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4)
        assert result.makespan == baseline.makespan

    def test_a_resolved_handle_pins_no_coalescing_key(self):
        """The key holds a token per input payload; a caller that keeps
        its handles must not keep every key of every finished request."""
        g, callbacks, inputs, probe, expected = reduction_spec()
        with RunService(workers=1) as svc:
            handle = repro.submit(g, callbacks, inputs, n_procs=4, service=svc)
            assert handle.result(timeout=10).output(probe).data == expected
            assert handle._entry.key is None and not svc._inflight

    def test_a_resolved_handle_pins_no_input(self):
        """A caller that keeps its handles must not keep every input of
        every finished request alive."""
        g = Reduction(16, 4)
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        leaf = lambda ins, tid: [Payload(float(ins[0].data.sum()))]
        arrays = [np.full(4, float(i)) for i in range(16)]
        # Payload has no weakref slot: watch the array only it holds.
        watched = weakref.ref(arrays[0])
        request = RunRequest(
            g, {g.LEAF: leaf, g.REDUCE: add, g.ROOT: add},
            {t: Payload(a) for t, a in zip(g.leaf_ids(), arrays)},
            n_procs=4,
        )
        del arrays
        with RunService(workers=1) as svc:
            handle = svc.submit(request)
            del request
            assert handle.result(timeout=10).output(g.root_id).data == 480.0
            assert watched() is None

    def test_default_service_is_shared_and_lazy(self):
        svc = repro.default_service()
        assert svc is repro.default_service()
        assert svc.workers > 0
