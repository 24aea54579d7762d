"""``python -m benchmarks.perf --check BASELINE`` must not write over the
baseline it checks.

``--output`` used to default to ``BENCH_simcore.json`` — the very file CI
and the ROADMAP say to check — so the gate replaced its reference with
the numbers it had just measured (and CI copied the file aside first to
work around it).
"""

import json

from benchmarks.perf import __main__ as perf_main


def test_check_leaves_the_baseline_bytes_alone(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "BENCH_simcore.json"
    baseline.write_text(perf_main.DEFAULT_OUTPUT.read_text())
    before = baseline.read_bytes()
    fresh = json.loads(before)
    fresh["reps"] = 99  # a report that differs from what is on disk
    monkeypatch.setattr(perf_main, "DEFAULT_OUTPUT", baseline)
    monkeypatch.setattr(perf_main, "run_suite", lambda reps, only: fresh)

    assert perf_main.main(["--check", str(baseline)]) == 0
    assert baseline.read_bytes() == before
    assert "report not written" in capsys.readouterr().out

    # An explicit --output still gets the report; the baseline stays put.
    report = tmp_path / "perf-report.json"
    assert perf_main.main(["--check", str(baseline), "--output", str(report)]) == 0
    assert json.loads(report.read_text())["reps"] == 99
    assert baseline.read_bytes() == before

    # Without --check the default destination is written, as before.
    assert perf_main.main([]) == 0
    assert json.loads(baseline.read_text())["reps"] == 99
