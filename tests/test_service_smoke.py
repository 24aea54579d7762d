"""Tier-1 runs the ``service-smoke`` CI job's script at its quick size."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_ci_smoke_script_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "smoke" / "service_mix.py"),
         "--quick"],
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok: coalesced")
    assert "6 rejected; SLO gate tripped" in done.stdout
