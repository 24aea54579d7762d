"""The one-call facade (`repro.run`) and the runtime registry.

Every registry name must execute real workloads end-to-end and match a
hand-built controller bit-for-bit; unknown names fail with the full
roster; deprecated kwargs warn on the way through.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.errors import ControllerError
from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.runtimes import (
    REGISTRY,
    RunResult,
    coerce_controller,
    make_controller,
    resolve_runtime,
)
from repro.runtimes.costs import CallableCost

NAMES = sorted(REGISTRY)


def reduction_spec():
    g = Reduction(16, 4)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    return g, callbacks, inputs, g.root_id, 136  # sum(1..16)


def dataparallel_spec():
    g = DataParallel(12)
    callbacks = {g.WORK: lambda ins, tid: [Payload(ins[0].data * 2)]}
    inputs = {t: Payload(t + 1) for t in range(12)}
    return g, callbacks, inputs, 0, 2


def hand_built(name, g, callbacks, inputs):
    cls = REGISTRY[name]
    if name == "serial":
        c = cls()
    elif name == "local":
        # Thread mode: these specs use closures, which cannot cross a
        # process boundary (tests/test_runtime_conformance.py covers the
        # process pool with picklable callbacks).
        c = cls(4, mode="thread")
    else:
        c = cls(4)
    c.initialize(g, None)
    for cid, fn in callbacks.items():
        c.register_callback(cid, fn)
    return c.run(inputs)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "spec", [reduction_spec, dataparallel_spec], ids=["reduction", "flat"]
)
class TestEveryRuntimeByName:
    def test_matches_hand_built_controller(self, name, spec):
        g, callbacks, inputs, probe, expected = spec()
        kwargs = {"mode": "thread"} if name == "local" else {}
        r = repro.run(g, callbacks, inputs, runtime=name, n_procs=4, **kwargs)
        assert isinstance(r, RunResult)
        assert r.output(probe).data == expected
        ref = hand_built(name, g, callbacks, inputs)
        flat = lambda res: {
            (t, ch): p.data
            for t, by_ch in res.outputs.items()
            for ch, p in by_ch.items()
        }
        assert flat(r) == flat(ref)
        assert r.stats.tasks_executed == ref.stats.tasks_executed == g.size()
        if name not in ("serial", "local"):  # their timing is wall clock
            assert r.makespan == ref.makespan
            assert dict(r.stats.category_time) == dict(
                ref.stats.category_time
            )


class TestRegistry:
    def test_registry_has_the_documented_roster(self):
        assert NAMES == sorted(
            ["serial", "mpi", "blocking-mpi", "charm",
             "legion-spmd", "legion-index", "local"]
        )

    def test_resolve_passes_classes_through(self):
        from repro.runtimes import MPIController

        assert resolve_runtime(MPIController) is MPIController
        assert resolve_runtime("mpi") is MPIController

    def test_unknown_name_lists_the_valid_ones(self):
        with pytest.raises(ControllerError) as exc:
            resolve_runtime("spark")
        msg = str(exc.value)
        assert "spark" in msg
        assert len(NAMES) == 7
        for name in NAMES:
            assert name in msg

    def test_unknown_name_suggests_the_closest_match(self):
        with pytest.raises(ControllerError, match="did you mean 'local'"):
            resolve_runtime("locale")
        with pytest.raises(ControllerError, match="did you mean 'mpi'"):
            resolve_runtime("mpl")

    def test_local_accepts_n_procs_as_pool_size_and_drops_sim_knobs(self):
        from repro.runtimes import LocalPoolController

        c = make_controller(
            "local", n_procs=3,
            cost_model=CallableCost(lambda t, i: 1.0),
            machine=None, mode="inline",
        )
        assert isinstance(c, LocalPoolController)
        assert c.n_workers == 3 and c.mode == "inline"
        # n_procs is optional for the pool: the default size kicks in.
        assert make_controller("local").n_workers >= 1

    def test_simulated_runtime_requires_n_procs(self):
        with pytest.raises(ControllerError, match="n_procs"):
            make_controller("mpi")

    def test_serial_ignores_timing_knobs_but_rejects_semantics(self):
        c = make_controller(
            "serial", n_procs=8, cost_model=CallableCost(lambda t, i: 1.0)
        )
        assert type(c).__name__ == "SerialController"
        from repro.faults import FaultPlan

        with pytest.raises(ControllerError, match="serial"):
            make_controller("serial", fault_plan=FaultPlan())

    def test_serial_takes_every_kwarg_its_constructor_takes(self):
        # The allow-list is SerialController.supported_kwargs(), the
        # roster the refusal prints: telemetry= used to be refused while
        # being named as supported.
        g, callbacks, inputs, probe, expected = reduction_spec()
        r = repro.run(g, callbacks, inputs, runtime="serial", telemetry=True)
        assert r.output(probe).data == expected
        assert "task_seconds" in r.metrics.sketches
        from repro.faults import RetryPolicy
        from repro.runtimes import SerialController

        assert SerialController.supported_kwargs() == {
            "sinks", "telemetry",
        }
        for bad in ({"retry_policy": RetryPolicy()}, {"balancer": object()}):
            with pytest.raises(ControllerError) as exc:
                make_controller("serial", **bad)
            assert f"does not support {sorted(bad)}" in str(exc.value)
            assert "sinks, telemetry" in str(exc.value)

    def test_none_valued_kwargs_are_not_given(self):
        # The facade forwards every knob as None when unset; that must
        # not trip the serial controller's unsupported-kwarg check.
        g, callbacks, inputs, probe, expected = reduction_spec()
        r = repro.run(
            g, callbacks, inputs, runtime="serial",
            task_map=None, cost_model=None, balancer=None,
        )
        assert r.output(probe).data == expected

    def test_coerce_controller_accepts_both_forms(self):
        from repro.runtimes import MPIController

        c = MPIController(4)
        assert coerce_controller(c) is c
        built = coerce_controller("mpi", n_procs=4)
        assert isinstance(built, MPIController)
        with pytest.raises(ControllerError, match="already constructed"):
            coerce_controller(c, n_procs=8)


class TestFacadeKnobs:
    def test_task_map_and_planner_thread_through(self):
        from repro.sched import plan_placement

        g, callbacks, inputs, probe, expected = reduction_spec()
        pm = plan_placement(g, 4)
        r = repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                      task_map=pm)
        assert r.output(probe).data == expected
        assert "placement_plan_seconds" in r.metrics.gauges

    def test_balancer_threads_through(self):
        from repro.sched import WorkStealingBalancer

        g, callbacks, inputs, probe, expected = reduction_spec()
        r = repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                      balancer=WorkStealingBalancer())
        assert r.output(probe).data == expected
        assert "lb_rounds" in r.metrics.counters

    def test_fault_plan_threads_through(self):
        from repro.faults import FaultPlan

        g, callbacks, inputs, probe, expected = reduction_spec()
        r = repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                      fault_plan=FaultPlan(task_faults={0: 1}))
        assert r.output(probe).data == expected
        assert r.metrics.counters["faults_injected"] == 1

    def test_sinks_thread_through(self):
        from repro.obs import ListSink

        sink = ListSink()
        g, callbacks, inputs, _, _ = reduction_spec()
        repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                  sinks=[sink])
        assert sink.events and sink.events[0].type == "run_started"

    def test_legacy_fault_kwargs_are_rejected(self):
        g, callbacks, inputs, _, _ = reduction_spec()
        with pytest.raises(ControllerError, match="did you mean 'fault_plan'"):
            repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
                      faults={0: 1})
        with pytest.raises(TypeError, match="faults"):
            REGISTRY["mpi"](4, faults={0: 1})


class TestQuickstartExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_names_are_the_real_objects(self):
        from repro.core.payload import Payload as CorePayload
        from repro.core.taskmap import ModuloMap as CoreModuloMap
        from repro.graphs import Reduction as GraphsReduction

        assert repro.Payload is CorePayload
        assert repro.ModuloMap is CoreModuloMap
        assert repro.Reduction is GraphsReduction
        assert repro.REGISTRY is REGISTRY

    def test_module_docstring_quickstart_runs(self):
        # The docstring's example, verbatim in spirit.
        graph = repro.Reduction(leaves=16, valence=4)
        add = lambda ins, tid: [repro.Payload(sum(p.data for p in ins))]
        result = repro.run(
            graph,
            callbacks={graph.LEAF: lambda ins, tid: [ins[0]],
                       graph.REDUCE: add, graph.ROOT: add},
            inputs={t: repro.Payload(1) for t in graph.leaf_ids()},
            runtime="mpi",
            n_procs=4,
        )
        assert result.output(graph.root_id).data == 16


class TestWorkloadsAcceptNames:
    def test_mergetree_run_accepts_registry_name(self, small_field):
        import numpy as np

        from repro.analysis.mergetree import (
            MergeTreeWorkload,
            reference_segmentation,
        )

        wl = MergeTreeWorkload(small_field, 8, 0.5, valence=2)
        by_name = wl.run("mpi", n_procs=4)
        hand = wl.run(repro.MPIController(4))
        assert by_name.makespan == hand.makespan
        seg = wl.assemble(by_name)
        assert np.array_equal(seg, reference_segmentation(small_field, 0.5))

    def test_statistics_run_accepts_registry_name(self, small_field):
        from repro.analysis.statistics import StatisticsWorkload

        wl = StatisticsWorkload(small_field, 16)
        by_name = wl.run("charm", n_procs=4)
        hand = wl.run(repro.CharmController(4))
        assert by_name.makespan == hand.makespan


def test_importing_the_package_skips_the_heavy_optional_modules():
    """``scipy`` (only ``SyntheticVolumeGrid`` filters with it) and
    ``http.server`` (only ``LiveMetricsServer`` serves with it) load on
    first use, not on import."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    prior = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": f"{src}{os.pathsep}{prior}" if prior else src,
    }
    code = (
        "import sys, repro, repro.analysis.registration\n"
        "print([m for m in ('scipy', 'http.server') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
