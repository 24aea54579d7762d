"""The harness's own tracer and the cProfile layer budget.

Spans are recorded around the calls the harness makes *into* the program
(import, data synthesis, workload build, ``repro.run`` / ``submit`` /
``result``, each wrapped callback and cost-model call, verify) and kept in
memory until :meth:`Tracer.dump`.  A span's self time is its duration
minus the part of it its child spans cover, so the self times of one op
sum to the op's wall time.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import pstats
import threading
import time
from contextlib import contextmanager, nullcontext

#: Span record layout (a list, so the hot path is one append).
COLUMNS = ("id", "parent", "op", "name", "layer", "start", "end", "aside")

#: Buckets of the ``<layer>.self_frac`` budget: the ``repro`` sub-packages
#: the ledger names, then everything the program spends elsewhere.
BUDGET_LAYERS = (
    "core", "graphs", "sched", "sim", "runtimes", "analysis", "obs",
    "service", "numpy_scipy", "stdlib_ipc", "other",
)

_IPC_FILES = (
    "/multiprocessing/", "/concurrent/futures/", "/threading.py",
    "/pickle.py", "/queue.py", "/selectors.py", "/socket.py",
)
_IPC_BUILTINS = (
    "pickle", "_thread", "select", "posix", "_multiprocessing", "_queue",
)

_NULL = nullcontext()


class Tracer:
    """In-memory span recorder; :attr:`enabled` switches it per op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._op_ids = itertools.count()
        self._tls = threading.local()
        self._op = -1  # -1: set-up, before the first op
        self._root: int | None = None

    def begin(self, name: str, layer: str) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        # A span opened on another thread (a service worker running a
        # callback) was caused by the current op, so it hangs off its root
        # -- as an aside: it runs beside the op's own thread, so it takes
        # nothing from its parent's self time.
        aside = not stack and self._root is not None
        parent = self._root if aside else (stack[-1] if stack else None)
        rec = [next(self._ids), parent, self._op, name, layer,
               time.perf_counter(), None, aside]
        stack.append(rec[0])
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[6] = time.perf_counter()
        self._tls.stack.pop()

    def span(self, name: str, layer: str):
        """Context manager recording one span (a no-op when disabled)."""
        return self._span(name, layer) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str, layer: str):
        rec = self.begin(name, layer)
        try:
            yield rec
        finally:
            self.end(rec)

    @contextmanager
    def op(self, label: str):
        """Root span of one op; spans opened inside share its op id."""
        if not self.enabled:
            yield None
            return
        self._op = next(self._op_ids)
        rec = self.begin(f"op:{label}", "bench")
        self._root = rec[0]
        try:
            yield rec
        finally:
            self.end(rec)
            self._op, self._root = -1, None

    def wrap_callback(self, fn, name: str):
        """A timing shim around one task callback."""
        begin, end = self.begin, self.end

        def shim(inputs, tid):
            rec = begin(name, "analysis")
            try:
                return fn(inputs, tid)
            finally:
                end(rec)

        return shim

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, _, _, start, end, aside in self.spans:
            if parent is not None and not aside:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, _, _, _, start, end, _ in self.spans:
            covered, edge = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, edge), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            out[sid] = (end - start) - covered
        return out

    def ops(self) -> list[dict]:
        """Per op: wall seconds, self seconds by layer on the op's own
        thread (they sum to the wall) and, apart, the seconds of spans
        that ran beside it on other threads."""
        selfs = self.self_times()
        by_op: dict[int, dict] = {}
        for sid, parent, op, name, layer, start, end, aside in self.spans:
            if op < 0:
                continue
            row = by_op.setdefault(op, {"op": op, "self_s": {}, "aside_s": {}})
            if name.startswith("op:") and parent is None:
                row["label"] = name[3:]
                row["wall_s"] = end - start
            bucket = row["aside_s" if aside else "self_s"]
            bucket[layer] = bucket.get(layer, 0.0) + selfs[sid]
        for row in by_op.values():
            row["self_sum_s"] = sum(row["self_s"].values())
        return [by_op[k] for k in sorted(by_op)]

    def total(self, name_prefix: str, op: int | None = None) -> float:
        """Summed duration of the spans whose name starts with a prefix."""
        return sum(
            s[6] - s[5]
            for s in self.spans
            if s[3].startswith(name_prefix) and (op is None or s[2] == op)
        )

    def dump(self, path, workload: str) -> list[dict]:
        """Write every span and the per-op summary; returns the summary."""
        ops = self.ops()
        doc = {
            "workload": workload,
            "columns": list(COLUMNS),
            "ops": ops,
            "spans": self.spans,
        }
        with open(path, "w") as fp:
            json.dump(doc, fp)
        return ops


# ---------------------------------------------------------------------- #
# cProfile layer budget
# ---------------------------------------------------------------------- #


def layer_of(filename: str, funcname: str) -> str:
    """The budget bucket one profiled function belongs to."""
    if "/src/repro/" in filename:
        part = filename.rsplit("/src/repro/", 1)[1].split("/", 1)[0]
        if part == "api.py":
            return "service"  # the facade is the inline service's front
        return part if part in BUDGET_LAYERS else "other"
    if "/numpy/" in filename or "/scipy/" in filename:
        return "numpy_scipy"
    if any(tag in filename for tag in _IPC_FILES):
        return "stdlib_ipc"
    if filename == "~":  # builtins carry their module in the name
        if "numpy" in funcname or "scipy" in funcname:
            return "numpy_scipy"
        if any(tag in funcname for tag in _IPC_BUILTINS):
            return "stdlib_ipc"
    return "other"


def layer_budget(profiles) -> dict[str, float]:
    """``tottime`` of one or more profiles bucketed by layer, as shares
    that sum to 1.0."""
    seconds = dict.fromkeys(BUDGET_LAYERS, 0.0)
    for prof in profiles:
        for (filename, _, func), row in pstats.Stats(prof).stats.items():
            seconds[layer_of(filename, func)] += row[2]
    total = sum(seconds.values()) or 1.0
    return {layer: s / total for layer, s in seconds.items()}


@contextmanager
def profiled(threads: bool = False):
    """Profile the block; yields the list of profiles collected.

    With ``threads`` every thread *started inside the block* gets its own
    profile too (``cProfile`` is per thread): the hook installed through
    :func:`threading.setprofile` swaps itself for a fresh profiler on the
    thread's first event.
    """
    profiles = [cProfile.Profile()]

    def hook(frame, event, arg):
        prof = cProfile.Profile()
        profiles.append(prof)
        prof.enable()

    if threads:
        threading.setprofile(hook)
    profiles[0].enable()
    try:
        yield profiles
    finally:
        profiles[0].disable()
        if threads:
            threading.setprofile(None)
