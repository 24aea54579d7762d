"""Tier-1 runs the ``perf-smoke`` CI job's obs script at its quick size."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_ci_smoke_script_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "smoke" / "obs_trace.py"),
         "--quick"],
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok: ")
    assert "events byte-identical to the reference encoding" in done.stdout
    assert "trends flagged the seeded regression" in done.stdout
