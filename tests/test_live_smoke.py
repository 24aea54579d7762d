"""Tier-1 runs the ``live-smoke`` CI job's script at its quick size."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_ci_smoke_script_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "smoke" / "live_watch.py"),
         "--quick"],
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok: watched and scraped mid-run; task ")
    assert "(4x expected 0.125s)" in done.stdout
