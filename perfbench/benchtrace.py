"""Spans around the calls into each ``repro`` layer, recorded from outside.

The traced run wraps public functions *at the names their callers look
up*: ``repro.studies.simulate`` imported ``run_transient`` by name, so
the wrapper replaces ``repro.studies.simulate.run_transient``, while
``repro.circuit.fd`` imports it lazily from ``repro.circuit.transient``
at call time, so that module's attribute is wrapped too.  Nothing inside
``src/`` changes: every span is opened and closed here.

A span is a dict ``{id, parent, name, via, pid, attrs, t0, t1}``; ``via``
names the wrapped binding.  Times are on the system-wide monotonic clock
(``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux), so spans from the
benchmark, the study server, its forked shard workers and CLI children
share one time axis.  The benchmark process keeps its spans in memory.
Child processes start through ``launch.py``, which installs the same
wrappers with a file sink: each span is appended to a JSONL file as it
ends, because forked shard workers exit without running ``atexit``.

:func:`layer_metrics` and :func:`self_time_table` turn spans into the
per-layer metrics and the self-time table.  Self time is a span's
duration minus the union of its child spans' intervals.  Children in
other processes count: a forked worker inherits its parent's open-span
stack, and a CLI child gets its parent span id through the environment.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: environment variables a child process reads (see launch.py)
ENV_TRACE = "PERFBENCH_TRACE"
ENV_PARENT = "PERFBENCH_PARENT"
ENV_MODEL = "PERFBENCH_MODEL"


def _put_bytes(args, kwargs, result):
    """Size of the cache entry ``SweepDiskCache.put`` just wrote
    (``<root>/<digest>.npz``, the layout the cache module documents)."""
    path = Path(args[0].root) / f"{result}.npz"
    return {"bytes": path.stat().st_size}


#: (module, attribute, span name, attrs hook) -- one row per call-site
#: binding.  The attrs hook sees ``(args, kwargs, result)`` and returns
#: extra span attributes.
WRAPS = (
    ("repro.experiments.cache", "estimate_driver_model",
     "models.estimate", None),
    ("repro.circuit.transient", "solve_dcop", "circuit.dcop", None),
    ("repro.studies.simulate", "run_transient_batch", "circuit.batch",
     lambda a, k, r: {"members": len(r)}),
    ("repro.studies.simulate", "run_transient", "circuit.transient", None),
    ("repro.circuit.transient", "run_transient", "circuit.transient", None),
    ("repro.circuit.fd", "extract_thevenin", "circuit.fd_thevenin", None),
    ("repro.circuit.fd", "solve_driver_port", "circuit.fd_solve", None),
    ("repro.studies.simulate", "amplitude_spectrum", "emc.spectrum", None),
    ("repro.studies.simulate", "apply_detector", "emc.detector", None),
    ("repro.emc.limits", "LimitMask.check", "emc.mask", None),
    ("repro.emc.spectrum", "quantile_hold", "emc.quantile", None),
    ("repro.experiments.cache", "SweepDiskCache.get", "cache.get",
     lambda a, k, r: {"hit": r is not None}),
    ("repro.experiments.cache", "SweepDiskCache.put", "cache.put",
     _put_bytes),
    ("repro.studies.runner", "ScenarioRunner.run", "runner.run", None),
    ("repro.studies.runner", "ScenarioRunner._group_pending",
     "runner.plan", lambda a, k, r: {"groups": len(r),
                                     "sizes": [len(g) for g in r]}),
    ("repro.studies.stochastic", "StochasticStudy.scenarios",
     "stochastic.sample", None),
    ("repro.studies.stochastic", "StochasticStudy.make_result",
     "stochastic.aggregate", None),
    ("repro.studies.stochastic", "StochasticResult.quantile_bands",
     "stochastic.aggregate", None),
    ("repro.studies.stochastic", "StochasticResult.pass_probability",
     "stochastic.aggregate", None),
    ("repro.studies.service.serve", "StudyService.submit",
     "service.submit", lambda a, k, r: {"job": r[0], "created": r[1]}),
    ("repro.studies.service.serve", "StudyService._run_job", "service.job",
     lambda a, k, r: {"job": a[1]}),
    ("repro.studies.service.jobs", "shard_plan", "service.plan", None),
    ("repro.studies.service.jobs", "JobManager.run_shards",
     "service.shards", None),
    ("repro.studies.service.serve", "_Handler.do_GET", "service.http", None),
    ("repro.studies.service.serve", "_Handler.do_POST", "service.http",
     None),
    ("repro.studies.service.serve", "job_status", "service.poll", None),
)

#: the merge replay is a ScenarioRunner.run called straight from the
#: job; it is named after the service layer, not the runner
_RENAME_UNDER = {("runner.run", "service.job"): "service.merge"}


def binding(row) -> str:
    """``module:attribute`` label of a WRAPS row."""
    return f"{row[0]}:{row[1]}"


class Tracer:
    """Span store plus the wrappers that feed it.

    ``path=None`` keeps spans in memory (:attr:`spans`); a path appends
    each finished span to that JSONL file instead.  ``parent`` is the id
    every root span of this process hangs under (a CLI child's op span).
    """

    def __init__(self, path: str | None = None, parent: str | None = None):
        self.path = path
        self.spans: list[dict] = []
        self._root_parent = parent
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved: list = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, via: str | None = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and (name, parent["name"]) in _RENAME_UNDER:
            name = _RENAME_UNDER[(name, parent["name"])]
        span = {"id": f"{os.getpid()}-{next(self._ids)}",
                "parent": parent["id"] if parent else self._root_parent,
                "name": name, "via": via, "pid": os.getpid(), "attrs": {},
                "t0": time.perf_counter(), "t1": None}
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self._emit(span)

    def _emit(self, span: dict) -> None:
        if self.path is None:
            self.spans.append(span)
            return
        line = json.dumps(span, default=str) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one benchmark-side span (an op, the set-up)."""
        span = self._open(name)
        span["attrs"].update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def record(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Store an already-timed span (the ``repro.studies`` import)."""
        stack = self._stack()
        self._emit({"id": f"{os.getpid()}-{next(self._ids)}",
                    "parent": stack[-1]["id"] if stack
                    else self._root_parent,
                    "name": name, "via": None, "pid": os.getpid(),
                    "attrs": dict(attrs), "t0": t0, "t1": t1})

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str, label: str, hook):
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                span = tracer._open(name, label)
                try:
                    result = await fn(*args, **kwargs)
                    if hook is not None:
                        span["attrs"].update(hook(args, kwargs, result))
                    return result
                finally:
                    tracer._close(span)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, label)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span["attrs"].update(hook(args, kwargs, result))
                return result
            finally:
                tracer._close(span)
        return wrapper

    def install(self) -> "Tracer":
        """Replace every WRAPS binding with a recording wrapper.

        A binding that no longer exists (a renamed function) is listed
        in :attr:`missing` instead of raising, so the report can flag it.
        """
        if self._saved:
            return self
        for row in WRAPS:
            module_name, attr, name, hook = row
            label = binding(row)
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            setattr(owner, leaf, self._wrap(original, name, label, hook))
            self._saved.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()


def trace_env(path: str, parent: str | None = None) -> dict:
    """Environment that makes a launch.py child trace into ``path``."""
    env = {ENV_TRACE: path}
    if parent is not None:
        env[ENV_PARENT] = parent
    return env


def read_spans(path: str | os.PathLike) -> list[dict]:
    """Spans a file-sink tracer appended (missing file: none)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def unfired(spans: list[dict], expected) -> list[str]:
    """Expected WRAPS bindings (``module:attribute``) no span came from."""
    seen = {s.get("via") for s in spans}
    return [label for label in expected if label not in seen]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    """Total length of the union of ``(a, b)`` intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[dict]) -> dict:
    """``span id -> self seconds``: duration minus the union of its
    children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                for c in children.get(s["id"], ())]
        covered = _union((a, b) for a, b in kids if b > a)
        out[s["id"]] = max(s["t1"] - s["t0"] - covered, 0.0)
    return out


#: per-layer metric -> (unit, better); the moves/flat columns document
#: which end-to-end metric each should move on which workload
LAYER_METRICS = {
    "import.studies_s": ("s", "lower"),
    "models.estimate_s": ("s", "lower"),
    "models.estimate_calls": ("count", "lower"),
    "circuit.dcop_s": ("s", "lower"),
    "circuit.dcop_calls": ("count", "lower"),
    "circuit.batch_self_s": ("s", "lower"),
    "circuit.batch_members": ("count", "higher"),
    "circuit.transient_self_s": ("s", "lower"),
    "circuit.transient_calls": ("count", "lower"),
    "circuit.fd_thevenin_s": ("s", "lower"),
    "circuit.fd_thevenin_calls": ("count", "lower"),
    "circuit.fd_thevenin_reuse": ("ratio", "higher"),
    "circuit.fd_solve_s": ("s", "lower"),
    "emc.spectrum_s": ("s", "lower"),
    "emc.detector_s": ("s", "lower"),
    "emc.mask_s": ("s", "lower"),
    "emc.quantile_s": ("s", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.put_bytes": ("bytes", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "runner.self_s": ("s", "lower"),
    "runner.groups": ("count", "lower"),
    "stochastic.sample_s": ("s", "lower"),
    "stochastic.aggregate_s": ("s", "lower"),
    "service.queue_s": ("s", "lower"),
    "service.plan_s": ("s", "lower"),
    "service.shards_s": ("s", "lower"),
    "service.merge_s": ("s", "lower"),
    "service.http_s": ("s", "lower"),
    "service.polls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def layer_metrics(spans: list[dict], op_windows: list,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics over one traced run's spans.

    Durations are inclusive (the layer's wall time including what it
    called) except the ``*self_s`` metrics; counts are calls.  Everything
    totals the traced set-up plus the traced ops.  ``op_windows`` are the
    traced ops' ``(t0, t1)``; the unattributed remainder is op wall time
    that no span of any process covers.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    selfs = self_times(spans)
    ids = {s["id"]: s for s in spans}

    def total(name):
        return sum(s["t1"] - s["t0"] for s in by_name[name])

    def self_total(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def parent_name(s):
        p = ids.get(s["parent"])
        return p["name"] if p else None

    # the solver's own re-lookup of the memoized extraction is not a
    # request; a request with no transient child reused the memo
    kids = defaultdict(set)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].add(s["name"])
    thevenin = [s for s in by_name["circuit.fd_thevenin"]
                if parent_name(s) != "circuit.fd_solve"]
    reused = sum(1 for s in thevenin
                 if "circuit.transient" not in kids[s["id"]])
    gets = by_name["cache.get"]
    jobs_started = {s["attrs"].get("job"): s["t0"]
                    for s in by_name["service.job"]}
    queue_s = 0.0
    for s in by_name["service.submit"]:
        start = jobs_started.get(s["attrs"].get("job"))
        if s["attrs"].get("created") and start is not None:
            queue_s += max(start - s["t1"], 0.0)
    covered = 0.0
    wall = 0.0
    work = [(s["t0"], s["t1"]) for s in spans if s["name"] != "bench.op"]
    for a, b in op_windows:
        wall += b - a
        covered += _union((max(x, a), min(y, b)) for x, y in work
                          if min(y, b) > max(x, a))
    m = {
        "import.studies_s": total("import.studies"),
        "models.estimate_s": total("models.estimate"),
        "models.estimate_calls": len(by_name["models.estimate"]),
        "circuit.dcop_s": total("circuit.dcop"),
        "circuit.dcop_calls": len(by_name["circuit.dcop"]),
        "circuit.batch_self_s": self_total("circuit.batch"),
        "circuit.batch_members": sum(s["attrs"].get("members", 0)
                                     for s in by_name["circuit.batch"]),
        "circuit.transient_self_s": self_total("circuit.transient"),
        "circuit.transient_calls": len(by_name["circuit.transient"]),
        "circuit.fd_thevenin_s": total("circuit.fd_thevenin"),
        "circuit.fd_thevenin_calls": len(thevenin),
        "circuit.fd_thevenin_reuse": reused / len(thevenin)
        if thevenin else 0.0,
        "circuit.fd_solve_s": total("circuit.fd_solve"),
        "emc.spectrum_s": total("emc.spectrum"),
        "emc.detector_s": total("emc.detector"),
        "emc.mask_s": total("emc.mask"),
        "emc.quantile_s": total("emc.quantile"),
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "cache.put_bytes": sum(s["attrs"].get("bytes", 0)
                               for s in by_name["cache.put"]),
        "cache.hit_ratio": sum(1 for s in gets if s["attrs"].get("hit"))
        / len(gets) if gets else 0.0,
        "runner.self_s": self_total("runner.run"),
        "runner.groups": sum(s["attrs"].get("groups", 0)
                             for s in by_name["runner.plan"]
                             if parent_name(s) == "runner.run"),
        "stochastic.sample_s": total("stochastic.sample"),
        "stochastic.aggregate_s": self_total("stochastic.aggregate"),
        "service.queue_s": queue_s,
        "service.plan_s": total("service.plan"),
        "service.shards_s": total("service.shards"),
        "service.merge_s": total("service.merge"),
        "service.http_s": total("service.http"),
        "service.polls": len(by_name["service.poll"]),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_s": max(wall - covered, 0.0),
    }
    return {k: round(float(v), 6) if isinstance(v, float) else v
            for k, v in m.items()}


def self_time_table(spans: list[dict], unattributed_s: float) -> str:
    """Self-time table by layer span name, largest first, closed by the
    op time no span covers.  The benchmark's own ``bench.*`` spans are
    left out: server-side spans are not their children, so their self
    time would count server work as unattributed."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        if s["name"].startswith("bench."):
            continue
        r = rows[s["name"]]
        r[0] += 1
        r[1] += s["t1"] - s["t0"]
        r[2] += selfs[s["id"]]
    lines = [f"{'span':<24} {'calls':>7} {'incl s':>10} {'self s':>10}"]
    for name, (n, incl, own) in sorted(rows.items(),
                                       key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<24} {n:>7d} {incl:>10.3f} {own:>10.3f}")
    lines.append(f"{'(unattributed in ops)':<24} {'':>7} {'':>10} "
                 f"{unattributed_s:>10.3f}")
    return "\n".join(lines)
