"""``--compare A.json B.json``: judge ledger B against ledger A.

For every workload and end-to-end metric: both values, how much worse B
is (as a share of A, signed so that positive is worse), the bound from
``BENCHMARK.json`` and a verdict.  ``regressed`` means worse by more than
the bound.  ``unresolved`` means the spread of either side's median is
wider than the bound, so one run cannot tell — unless every op of one
side beats every op of the other.  Counts that must repeat bit for bit at
one seed are compared exactly.
"""

from __future__ import annotations

import json
import math

from benchmarks.ledger.stats import median, quartiles

#: Per-layer counts that are a function of the seed alone.
EXACT = (
    "graphs.tasks",
    "core.payload_pickle_bytes",
    "sched.plan_cache_hits",
    "sched.plan_cache_misses",
    "sim.makespan_s",
    "sim.messages",
    "sim.bytes_sent",
    "runtimes.charm.makespan_s",
    "runtimes.legion-spmd.makespan_s",
    "runtimes.legion-index.makespan_s",
    "runtimes.blocking-mpi.makespan_s",
    "runtimes.local.callback_pickle_bytes",
    "obs.events",
    "obs.jsonl_bytes",
    "faults.retries",
)


def relative_spread(samples) -> float:
    """The spread a median of ``len(samples)`` such ops would show from
    run to run, as a share of it: the IQR of the ops shrunk by the root
    of their number (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, q3 = quartiles(samples)
    return (q3 - q1) / median(samples) / math.sqrt(len(samples))


def judge(a: dict, b: dict, metric: dict) -> tuple[float, float, float, float, str]:
    """``(value A, value B, worse-by share, spread share, verdict)`` of
    one end-to-end metric between two timed-pass records."""
    name, bound = metric["name"], metric["bound"]
    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
    worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
    sa, sb = a["samples"][name], b["samples"][name]
    spread = max(relative_spread(sa), relative_spread(sb))
    apart = max(sa) < min(sb) or max(sb) < min(sa)
    if spread > bound and not apart:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return va, vb, worse, spread, verdict


def compare(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): nothing to compare")
        return 2
    print(f"A: {path_a}  commit {a['commit']}\nB: {path_b}  commit {b['commit']}")
    bad = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        rows = [
            (m, *judge(wa["end_to_end"], wb["end_to_end"], m))
            for m in spec["end_to_end"]
        ]
        verdicts = {row[-1] for row in rows}
        overall = next(
            v for v in ("regressed", "unresolved", "ok") if v in verdicts
        )
        noisy = any(
            w[s]["host"]["noisy"] for w in (wa, wb) for s in ("end_to_end", "per_layer")
        )
        print(f"{workload}: {overall}" + "  (noisy host)" * noisy)
        for m, va, vb, worse, spread, verdict in rows:
            print(
                f"  {m['name']:<22}{va:>12.5g}{vb:>12.5g} {m['unit']:<4}"
                f"  worse by {100 * worse:+6.1f} %  bound {100 * m['bound']:.0f} %"
                f"  spread {100 * spread:5.1f} %  {verdict}"
            )
        bad += "regressed" in verdicts
        for section in ("end_to_end", "per_layer"):
            failed = wa[section]["failed"], wb[section]["failed"]
            if failed[1] > failed[0]:
                print(f"  failed ops ({section}): {failed[0]} -> {failed[1]}")
                bad += 1
        la, lb = wa["per_layer"]["metrics"], wb["per_layer"]["metrics"]
        for name in EXACT:
            if la[name]["value"] != lb[name]["value"]:
                print(
                    f"  exact count {name} differs: "
                    f"{la[name]['value']!r} vs {lb[name]['value']!r}"
                )
                bad += 1
    return 1 if bad else 0
