#!/usr/bin/env python3
"""Benchmark of the repository's user paths, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_transient --seed 1 \\
        --seconds 15 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``sweep_transient``,
``montecarlo_fd``, ``service_jobs``, ``cli_study``.

``--trace 0`` imports the package, sets the system up three times
(``setup_s``: the import time plus the median set-up), runs ops in a
closed loop for ``--seconds``, checks sampled outputs, and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of ops untraced
and the same number traced (benchtrace.py wraps the ``repro`` functions
each layer exposes), and prints the per-layer metrics, a self-time
table and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails if it
raises, returns a failed scenario, exits non-zero or fails its output
check.  Without the package sources under ``src/`` the script exits 2
and prints no result.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread per process, inherited by every child: the workloads
# bound their own parallelism (at most 2 worker processes on 2 CPUs),
# and threaded BLAS on top of it made identical sweep ops vary by +-28%
# instead of +-10%.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402  (set-up time counts from process start)
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per end-to-end run; ``setup_s`` reports their median
N_SETUPS = 3
#: sanity ceiling of the paper's accuracy figure (the paper reports a
#: few percent)
MAX_NRMSE_PCT = 5.0


def loop(wl, phase: int, seconds=None, count=None, tracer=None):
    """Closed loop of ops; returns the op records.

    Runs until ``seconds`` have passed (checked before each op) or
    ``count`` ops are done.  With a tracer, each op is a ``bench.op``
    span that the layer spans (and a CLI child's spans) hang under.
    """
    ops = []
    t_end = None if seconds is None else time.perf_counter() + seconds
    k = 0
    while (count is None or k < count) and \
            (t_end is None or time.perf_counter() < t_end):
        inputs = wl.prepare(phase, k)
        rec = {"key": (phase, k), "error": None}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = wl.run(inputs)
            else:
                with tracer.span("bench.op", k=k) as span:
                    output = wl.run(inputs, parent=span["id"])
            t1 = time.perf_counter()
            res = wl.inspect(rec["key"], inputs, output)
            rec.update(n_ok=res.n_ok, error=res.error)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            t1 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            rec.update(n_ok=0, error=f"{type(exc).__name__}: {exc}")
        rec.update(t0=t0, t1=t1)
        ops.append(rec)
        k += 1
    return ops


def settle(wl, ops) -> int:
    """Apply the output checks to the op records; returns the number of
    failed ops."""
    by_key = {rec["key"]: rec for rec in ops}
    for key, why in wl.verify().items():
        if by_key[key]["error"] is None:
            by_key[key]["error"] = f"check: {why}"
    for rec in ops:
        if rec["error"]:
            print(f"FAILED op {rec['key']}: {rec['error']}")
    return sum(1 for rec in ops if rec["error"])


def _inputs_line(props: dict) -> str:
    """The run's input properties; per-op lists shrink to min/mean/max."""
    out = {}
    for key, value in props.items():
        if key.endswith("_per_op") and value:
            value = {"min": min(value), "mean": round(statistics.fmean(
                value), 4), "max": max(value), "ops": len(value)}
        out[key] = value
    return f"inputs {json.dumps(out, sort_keys=True)}"


def end_to_end(wl, seconds: float) -> dict:
    """Untraced run: set-up, timed loop, checks, accuracy guards."""
    import checks
    import numpy as np
    import repro.studies  # noqa: F401  (import counts toward set-up)
    import workloads
    import_s = time.perf_counter() - T_START
    starts = []
    for i in range(N_SETUPS):
        if i:
            wl.restart()
        t0 = time.perf_counter()
        wl.start()
        starts.append(time.perf_counter() - t0)
    # imports happen once per process; the rest is set up N_SETUPS times
    setup_s = import_s + statistics.median(starts)
    ops = loop(wl, phase=0, seconds=seconds)
    wall = ops[-1]["t1"] - ops[0]["t0"]
    rss = wl.peak_rss_mb()
    wl.stop()
    failed = settle(wl, ops)
    model = wl.model()
    nrmse = checks.port_nrmse_pct(ROOT, model)
    fd_db = checks.fd_error_db(model, workloads.mc_study)
    times = [rec["t1"] - rec["t0"] for rec in ops]
    # median of the per-op rates: a burst of host load on a few ops
    # moves it less than the run's total count over total time would
    rates = [0.0 if rec["error"] else rec["n_ok"] / (rec["t1"] - rec["t0"])
             for rec in ops]
    metrics = {
        "setup_s": (setup_s, "s"),
        "scenarios_per_s": (float(np.median(rates)), "1/s"),
        "op_p50_s": (float(np.median(times)), "s"),
        "op_p90_s": (float(np.percentile(times, 90)), "s"),
        "peak_rss_mb": (rss, "MB"),
        "port_nrmse_pct": (nrmse, "%"),
        "fd_error_db": (fd_db, "dB"),
    }
    print(_inputs_line(wl.props))
    print(f"ops {len(ops)} in {wall:.3f} s; op_p90_s over "
          f"{len(times)} samples")
    print(f"imports {import_s:.3f} s; starts "
          + " ".join(f"{t:.3f}" for t in starts))
    print("op times " + " ".join(f"{t:.3f}" for t in times))
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:12.6g} {unit}")
    correct = failed == 0 and nrmse <= MAX_NRMSE_PCT
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(wl) -> dict:
    """Traced run: the same ops untraced, then traced, for the layer
    breakdown and the tracing overhead."""
    import benchtrace
    import workloads
    tracer = benchtrace.Tracer()
    trace_file = str(wl.ws / "child-spans.jsonl")
    t0 = time.perf_counter()
    import repro.studies  # noqa: F401
    tracer.record("import.studies", t0, time.perf_counter())
    n = wl.trace_ops
    if wl.in_process:
        tracer.install()
        with tracer.span("bench.setup"):
            wl.start()
        tracer.uninstall()
        plain = loop(wl, phase=1, count=n)
        tracer.install()
        ops = loop(wl, phase=2, count=n, tracer=tracer)
        tracer.uninstall()
        wl.stop()
    else:
        wl.start()
        plain = loop(wl, phase=1, count=n)
        wl.stop()
        tracer.install()  # client-side calls (status polls)
        try:
            with tracer.span("bench.setup"):
                wl.start(trace_path=trace_file)
            ops = loop(wl, phase=2, count=n, tracer=tracer)
        finally:
            wl.stop()
            tracer.uninstall()
    failed = settle(wl, plain + ops)
    spans = tracer.spans + benchtrace.read_spans(trace_file)
    windows = [(rec["t0"], rec["t1"]) for rec in ops]
    overhead = statistics.median(b - a for a, b in windows) / \
        statistics.median(rec["t1"] - rec["t0"] for rec in plain)
    metrics = benchtrace.layer_metrics(spans, windows, overhead)
    # a binding no workload expects could go unfired unnoticed
    expected_anywhere = {b for w in workloads.WORKLOADS.values()
                         for b in w.expected}
    unfired = list(dict.fromkeys(
        benchtrace.unfired(spans, wl.expected) + tracer.missing
        + [b for b in map(benchtrace.binding, benchtrace.WRAPS)
           if b not in expected_anywhere]))
    wl.props.update({k: metrics[k] for k in ("circuit.fd_thevenin_reuse",
                                             "cache.hit_ratio")})
    wl.props["batch_groups"] = sorted({
        n for s in spans if s["name"] == "runner.plan"
        for n in s["attrs"].get("sizes", ())})
    print(_inputs_line(wl.props))
    print(f"traced ops {len(ops)} (+{len(plain)} untraced); "
          f"tracing overhead x{overhead:.3f}")
    print(benchtrace.self_time_table(spans,
                                     metrics["trace.unattributed_s"]))
    for label in unfired:
        msg = f"UNFIRED WRAPPER: {label} -- renamed or no longer called?"
        print(msg)
        print(msg, file=sys.stderr)
    units = benchtrace.LAYER_METRICS
    return {"correct": failed == 0 and not unfired,
            "attempted": len(plain) + len(ops), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k][0]}
                        for k in units}}


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its server and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    ws = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tempfile.tempdir = str(ws)
    wl = workloads.WORKLOADS[args.workload](args.seed, ws)
    try:
        result = traced(wl) if args.trace else end_to_end(wl, args.seconds)
    finally:
        wl.stop()
        shutil.rmtree(ws, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
