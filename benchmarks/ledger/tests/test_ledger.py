"""Self-tests of the ledger: ``pytest benchmarks/ledger/tests`` from the
repo root (outside tier-1's ``testpaths``; about half a minute)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ledger import child, cli, compare, workloads  # noqa: E402

SPEC = cli.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_cli(*args) -> dict:
    """One contract-mode pass; returns the JSON object of the last line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/ledger/__main__.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(compare.EXACT) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace,section,seed", [
    ("0", "end_to_end", "2018"), ("1", "per_layer", "7"),
])
def test_reduced_run_emits_every_name(trace, section, seed):
    """The set of names does not depend on the seed."""
    record = run_cli("--workload", "reduction_mpi_skeleton", "--trace", trace,
                     "--seed", seed, "--quick")
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 < record["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in record["metrics"].items()} == want
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in record["metrics"].values())
    else:
        budget = [m["value"] for n, m in record["metrics"].items()
                  if n.endswith(".self_frac")]
        assert sum(budget) == pytest.approx(1.0)
        with open(cli.OUT / "reduction_mpi_skeleton-traced.json") as fp:
            ops = json.load(fp)["ops"]
        assert ops and all(
            op["self_sum_s"] == pytest.approx(op["wall_s"], rel=0.05) for op in ops
        )


def test_corrupted_result_counts_as_failed(tmp_path, monkeypatch):
    real = workloads.repro.run

    def corrupt(graph, *args, **kwargs):
        result = real(graph, *args, **kwargs)
        result.outputs[graph.root_id][0].data += 1
        return result

    monkeypatch.setattr(workloads.repro, "run", corrupt)
    session = child.Session({"workload": "reduction_mpi_skeleton", "seed": 2018,
                             "mode": "timed", "quick": True, "out": str(tmp_path),
                             "tmp": str(tmp_path)})
    session.close()
    assert (session.attempted, session.failed) == (1, 1)


def test_seed_changes_inputs_and_exact_counts(tmp_path):
    def cold_run(seed):
        session = child.Session({"workload": "mergetree_mpi", "seed": seed,
                                 "mode": "timed", "quick": True,
                                 "out": str(tmp_path), "tmp": str(tmp_path)})
        session.close()
        assert session.failed == 0  # verification passes at any seed
        return session.wl.field, session.cold.value.stats

    field_a, a = cold_run(2018)
    field_b, b = cold_run(7)
    assert (field_a != field_b).any()
    assert a.makespan == 1.054804998936795  # the ROADMAP's fig-6 point
    assert a.makespan != b.makespan and a.bytes_sent != b.bytes_sent
    assert a.tasks_executed == b.tasks_executed  # shape, not data


def test_compare_verdicts():
    metric = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}

    def record(samples):
        return {"metrics": {"run_s": {"value": compare.median(samples)}},
                "samples": {"run_s": samples}}

    steady = record([1.00, 1.01, 0.99, 1.00])
    assert compare.judge(steady, record([1.02, 1.03, 1.01, 1.02]), metric)[-1] == "ok"
    assert compare.judge(steady, record([1.2, 1.21, 1.19, 1.2]), metric)[-1] == "regressed"
    wide = record([0.8, 1.0, 1.2, 1.4])
    assert compare.judge(wide, record([0.9, 1.1, 1.3, 1.5]), metric)[-1] == "unresolved"
    # Wide, but every op of one side beats every op of the other.
    assert compare.judge(wide, record([2.0, 2.4, 2.8, 3.2]), metric)[-1] == "regressed"
