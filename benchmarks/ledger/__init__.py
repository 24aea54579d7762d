"""The perf ledger: the repo's benchmark (see ``README.md`` beside this file).

Seven named workloads time the paper's three use cases end to end through
the public API (``repro.run`` / ``RunService.submit``) and attribute the
time layer by layer.  The metric and workload names live in
``BENCHMARK.json`` at the repo root; this package measures them.  It adds
nothing to ``src/``: every number is taken from outside the program.
"""
