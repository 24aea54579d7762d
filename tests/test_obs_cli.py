"""``python -m repro.obs`` over saved traces: summarize, timeline, diff
and trends — plus the exit-code contract (2 on a missing/corrupt trace,
1 on a regression)."""

import pytest

from tests.golden_workloads import CONTROLLERS, run_workload
from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs import ChromeTraceExporter, JsonlExporter
from repro.obs.cli import main
from repro.runtimes import MPIController
from repro.runtimes.costs import CallableCost


def write_trace(path, exporter_cls, runs=1):
    exporter = exporter_cls(str(path))
    c = MPIController(4, cost_model=CallableCost(lambda t, i: 0.01))
    c.add_sink(exporter)
    g = Reduction(16, 4)
    c.initialize(g, None)
    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    c.register_callback(g.REDUCE, add)
    c.register_callback(g.ROOT, add)
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    for _ in range(runs):
        c.run(inputs)
    exporter.close()
    return path


class TestSummarize:
    def test_chrome_trace_summary(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.json", ChromeTraceExporter)
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MPIController (4 procs)" in out
        assert "makespan" in out and "tasks 21" in out
        assert "where the time went" in out
        assert "compute" in out and "dispatch" in out
        assert "top 5 tasks by compute time:" in out
        assert "load imbalance" in out
        assert "critical path" in out
        assert "wait" in out  # the breakdown line

    def test_jsonl_trace_summary(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", JsonlExporter)
        assert main(["summarize", str(path)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_multi_run_trace_gets_one_block_per_run(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.json", ChromeTraceExporter, runs=3)
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("== MPIController") == 3

    def test_top_k_flag(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.json", ChromeTraceExporter)
        assert main(["summarize", str(path), "--top", "3"]) == 0
        assert "top 3 tasks" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("hello\n")
        assert main(["summarize", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert main(["summarize", str(p)]) == 2
        assert "no events" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        import os
        import pathlib

        path = write_trace(tmp_path / "t.json", ChromeTraceExporter)
        repo = pathlib.Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "critical path" in proc.stdout


def write_chaos_trace(path):
    """The golden mpi_chaos workload exported as JSONL."""
    exporter = JsonlExporter(str(path))
    c = CONTROLLERS["mpi_chaos"]()
    c.add_sink(exporter)
    run_workload(c)
    exporter.close()
    return path


@pytest.fixture(scope="module")
def chaos_trace(tmp_path_factory):
    return write_chaos_trace(tmp_path_factory.mktemp("chaos") / "chaos.jsonl")


@pytest.fixture(scope="module")
def diff_traces(tmp_path_factory):
    """A clean capture and one with task 3 slowed 50x (perf harness)."""
    from benchmarks.perf.suite import capture_trace

    d = tmp_path_factory.mktemp("diff")
    base, slow = d / "base.jsonl", d / "slow.jsonl"
    capture_trace("controller_tasks", str(base), leaves=64)
    capture_trace("controller_tasks", str(slow), slow_task=3, leaves=64)
    return base, slow


class TestSummarizeRecovery:
    def test_chaos_trace_shows_recovery_block(self, chaos_trace, capsys):
        assert main(["summarize", str(chaos_trace)]) == 0
        out = capsys.readouterr().out
        assert "fault/recovery accounting:" in out
        assert "faults injected" in out and "rank deaths" in out
        assert "wasted compute" in out and "replayed compute" in out
        assert "recovery tail" in out and "first fault at" in out

    def test_clean_trace_has_no_recovery_block(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", JsonlExporter)
        assert main(["summarize", str(path)]) == 0
        assert "fault/recovery" not in capsys.readouterr().out


class TestTimeline:
    def test_ascii_output(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", JsonlExporter)
        assert main(["timeline", str(path), "--width", "32"]) == 0
        out = capsys.readouterr().out
        assert "== MPIController" in out
        assert "rank" in out and "util" in out and "q^" in out
        assert "mean utilization" in out

    def test_svg_output(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", JsonlExporter)
        svg = tmp_path / "tl.svg"
        assert main(["timeline", str(path), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>")
        assert f"wrote {svg}" in capsys.readouterr().err

    def test_multi_run_svg_gets_one_file_per_run(self, tmp_path):
        path = write_trace(tmp_path / "t.json", ChromeTraceExporter, runs=2)
        svg = tmp_path / "tl.svg"
        assert main(["timeline", str(path), "--svg", str(svg)]) == 0
        assert (tmp_path / "tl_run0.svg").exists()
        assert (tmp_path / "tl_run1.svg").exists()

    def test_run_selector_out_of_range_exits_2(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", JsonlExporter)
        assert main(["timeline", str(path), "--run", "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["timeline", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiff:
    def test_names_the_slowed_task(self, diff_traces, capsys):
        base, slow = diff_traces
        assert main(["diff", str(base), str(slow)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "dominant: compute" in out
        assert "t3" in out

    def test_missing_baseline_exits_2(self, diff_traces, tmp_path, capsys):
        _, slow = diff_traces
        assert main(["diff", str(tmp_path / "no.jsonl"), str(slow)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_current_exits_2(self, diff_traces, tmp_path, capsys):
        base, _ = diff_traces
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["diff", str(base), str(empty)]) == 2
        assert "no events" in capsys.readouterr().err


class TestTrends:
    def seed_ledger(self, tmp_path, values, metric="seconds"):
        from repro.obs.telemetry import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        for i, v in enumerate(values):
            ledger.append("w", "mpi", {metric: v}, machine="m", ts=float(i))
        return path

    def test_clean_ledger_exits_0(self, tmp_path, capsys):
        path = self.seed_ledger(tmp_path, [1.0, 1.01, 0.99, 1.0])
        assert main(["trends", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ledger: 4 runs" in out
        assert "no regressions beyond 30%" in out

    def test_seeded_regression_exits_1(self, tmp_path, capsys):
        path = self.seed_ledger(tmp_path, [1.0, 1.0, 1.0, 1.0, 1.45])
        assert main(["trends", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION w/mpi/m seconds: rose 45.0%" in out

    def test_threshold_flag(self, tmp_path):
        path = self.seed_ledger(tmp_path, [1.0, 1.0, 1.2])
        assert main(["trends", str(path)]) == 0  # 20% < default 30%
        assert main(["trends", str(path), "--threshold", "0.1"]) == 1

    def test_metric_filter_flag(self, tmp_path):
        from repro.obs.telemetry import Ledger

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(str(path))
        for i, (a, b) in enumerate([(1.0, 1.0), (1.0, 1.0), (1.0, 9.0)]):
            ledger.append("w", "mpi", {"x": a, "y": b}, machine="m", ts=float(i))
        assert main(["trends", str(path), "--metric", "x"]) == 0
        assert main(["trends", str(path), "--metric", "y"]) == 1

    def test_min_history_flag(self, tmp_path):
        path = self.seed_ledger(tmp_path, [1.0, 2.0])
        assert main(["trends", str(path), "--min-history", "3"]) == 0
        assert main(["trends", str(path), "--min-history", "1"]) == 1

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["trends", str(tmp_path / "nope.jsonl")]) == 2
        assert "empty or missing" in capsys.readouterr().err

    def test_corrupt_ledger_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text("{not json\n")
        assert main(["trends", str(p)]) == 2
        assert "corrupt" in capsys.readouterr().err


class TestTrendsDegenerateLedgers:
    def test_zero_byte_ledger_exits_2(self, tmp_path, capsys):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert main(["trends", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_line_mid_ledger_exits_2(self, tmp_path, capsys):
        from repro.obs.telemetry import Ledger

        p = tmp_path / "mixed.jsonl"
        ledger = Ledger(str(p))
        ledger.append("w", "mpi", {"x": 1.0}, machine="m", ts=0.0)
        with open(p, "a") as fp:
            fp.write("{truncated\n")
        assert main(["trends", str(p)]) == 2
        assert "corrupt" in capsys.readouterr().err


def write_live_status(tmp_path, telemetry=False):
    """Run a tiny live-armed workload; returns the status directory."""
    d = tmp_path / "live"
    c = MPIController(4, live=str(d), telemetry=telemetry)
    g = Reduction(16, 4)
    c.initialize(g, None)
    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    c.register_callback(g.REDUCE, add)
    c.register_callback(g.ROOT, add)
    c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
    return d


class TestWatch:
    def test_watch_once_renders_the_snapshot(self, tmp_path, capsys):
        d = write_live_status(tmp_path)
        assert main(["watch", str(d), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out
        assert "21/21 tasks" in out
        assert "ranks:" in out

    def test_watch_follow_exits_when_no_run_is_live(self, tmp_path, capsys):
        # All snapshots terminal -> one render, exit 0 (the CI pattern).
        d = write_live_status(tmp_path)
        assert main(["watch", str(d), "--no-clear"]) == 0
        assert "100.0%" in capsys.readouterr().out

    def test_watch_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope"), "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_watch_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path), "--once"]) == 2
        assert "no live status" in capsys.readouterr().err

    def test_watch_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        p = tmp_path / "live-1.json"
        p.write_text("{torn write")
        assert main(["watch", str(p), "--once"]) == 2
        assert "corrupt" in capsys.readouterr().err


class TestServe:
    def test_serve_once_prints_prometheus_text(self, tmp_path, capsys):
        d = write_live_status(tmp_path, telemetry=True)
        assert main(["serve", str(d), "--once"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_run_progress_ratio gauge" in out
        assert 'repro_run_progress_ratio{run=' in out
        assert 'quantile="0.95"' in out  # telemetry sketches exported
        assert "repro_run_tasks_done" in out

    def test_serve_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope"), "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path), "--once"]) == 2
        assert "no live status" in capsys.readouterr().err

    def test_http_endpoint_serves_metrics_and_health(self, tmp_path):
        from urllib.request import urlopen

        from repro.obs.live import CONTENT_TYPE, LiveMetricsServer

        d = write_live_status(tmp_path)
        server = LiveMetricsServer(str(d), port=0)
        server.start()
        base = f"http://{server.addr}:{server.port}"
        try:
            with urlopen(server.url, timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode()
            assert "repro_live_runs 1" in body
            assert "repro_run_progress_ratio" in body
            with urlopen(f"{base}/healthz", timeout=5) as resp:
                assert resp.status == 200
        finally:
            server.stop()

    def test_http_endpoint_tolerates_a_corrupt_snapshot(self, tmp_path):
        # A torn file must not 500 the scrape; it is simply skipped.
        from urllib.request import urlopen

        from repro.obs.live import LiveMetricsServer

        d = write_live_status(tmp_path)
        (d / "live-99999.json").write_text("{torn")
        server = LiveMetricsServer(str(d), port=0)
        server.start()
        try:
            with urlopen(server.url, timeout=5) as resp:
                body = resp.read().decode()
            assert "repro_live_runs 1" in body
        finally:
            server.stop()
