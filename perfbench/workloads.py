"""The four workloads: each follows a path a user of ``repro`` takes.

A workload is driven in three steps per op, so that only the program's
work is timed: :meth:`Workload.prepare` draws the op's inputs from the
seeded generator (untimed), :meth:`Workload.run` is the op (timed), and
:meth:`Workload.inspect` counts the op's good scenarios and keeps what
:meth:`Workload.verify` re-checks after the timed loop.  ``start`` and
``stop`` bring the system up and down (a server, a cache directory);
child processes always start through ``launch.py``.

Inputs depend only on ``(seed, phase, op index)``; every run works in its
own directory under the checkout, which the caller removes.
"""

from __future__ import annotations

import os
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import benchtrace
import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
#: every workload uses at most this many worker processes
N_WORKERS = 2
#: an op that takes longer than this fails (a normal op takes seconds)
OP_TIMEOUT_S = 60.0


@dataclass
class OpOutcome:
    """What one op produced: its good scenarios, or why it failed."""

    n_ok: int
    error: str | None = None


def random_pattern(rng: np.random.Generator, n_bits: int) -> str:
    """A random bit pattern with at least one edge."""
    while True:
        bits = "".join("1" if b else "0" for b in rng.integers(0, 2, n_bits))
        if "01" in bits or "10" in bits:
            return bits


def random_line(rng: np.random.Generator):
    """An ideal-line load with z0, td and far-end R drawn from ``rng``."""
    from repro.studies import LoadSpec
    return LoadSpec(kind="line", z0=round(float(rng.uniform(30, 120)), 3),
                    td=round(float(rng.uniform(0.2e-9, 1.0e-9)), 14),
                    r=round(float(rng.uniform(30, 500)), 3))


def model():
    """The MD2 driver macromodel (estimated once per process)."""
    from repro.experiments import cache
    return cache.driver_model("MD2")


def child_env(ws: Path, extra: dict | None = None) -> dict:
    """Environment of a launch.py child: sources on the path, temp files
    inside the run directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(ws)
    env.pop(benchtrace.ENV_TRACE, None)
    env.pop(benchtrace.ENV_PARENT, None)
    env.update(extra or {})
    return env


class Workload:
    """Base class; see the module docstring for the op protocol."""

    name = ""
    #: True when the ops run in the benchmark process itself
    in_process = True
    #: traced ops per traced phase (a fixed amount of work, so the
    #: per-layer counts repeat for a given seed)
    trace_ops = 2
    #: WRAPS bindings a traced run of this workload must fire
    expected: tuple = ()

    def __init__(self, seed: int, ws: Path):
        self.seed = int(seed)
        self.ws = ws
        self.props: dict = {"seed": self.seed}

    def rng(self, phase: int, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, phase, k])

    def start(self, trace_path: str | None = None) -> None:
        """Bring the system up (estimation, server, warm-up)."""

    def prepare(self, phase: int, k: int):
        raise NotImplementedError

    def run(self, inputs, parent: str | None = None):
        raise NotImplementedError

    def inspect(self, key: tuple, inputs, output) -> OpOutcome:
        """Count the op's good scenarios; keep what :meth:`verify`
        needs under the op's ``key`` (``(phase, op index)``)."""
        raise NotImplementedError

    def model(self):
        """The MD2 model the checks and the accuracy guards use."""
        return model()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process doing the work (this one by default)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        """Tear down whatever :meth:`start` brought up."""

    def restart(self) -> None:
        """Tear down and forget the estimated model, so that the next
        :meth:`start` sets up from scratch."""
        from repro.experiments import cache
        self.stop()
        cache.clear()

    def verify(self) -> dict:
        """Re-check kept outputs; returns ``{op key: reason}``."""
        return {}


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

class SweepTransient(Workload):
    """96-scenario line grid through the grid-batched transient path."""

    name = "sweep_transient"
    trace_ops = 4
    expected = ("repro.experiments.cache:estimate_driver_model",
                "repro.circuit.transient:solve_dcop",
                "repro.studies.simulate:run_transient_batch",
                "repro.studies.simulate:amplitude_spectrum",
                "repro.studies.simulate:apply_detector",
                "repro.emc.limits:LimitMask.check",
                "repro.studies.runner:ScenarioRunner.run",
                "repro.studies.runner:ScenarioRunner._group_pending")
    PATTERN_BITS = (4, 6, 8)
    N_LOADS = 32

    def __init__(self, seed, ws):
        super().__init__(seed, ws)
        self.kept: list = []

    def study(self, rng, n_loads=N_LOADS):
        from repro.emc.detectors import DETECTORS
        from repro.studies import SpectralSpec, Study
        return Study(
            name="sweep",
            patterns=tuple(random_pattern(rng, n)
                           for n in self.PATTERN_BITS),
            loads=tuple(random_line(rng) for _ in range(n_loads)),
            spectral=SpectralSpec(mask="board-b", detectors=DETECTORS))

    def start(self, trace_path=None):
        model()
        self.run((self.study(self.rng(9, 0), n_loads=2), None))  # warm-up

    def prepare(self, phase, k):
        rng = self.rng(phase, k)
        return self.study(rng), rng

    def run(self, inputs, parent=None):
        return inputs[0].run(n_workers=1, use_result_cache=False)

    def inspect(self, key, inputs, result):
        study, rng = inputs
        self.props.update(grid=len(study), batch_groups=[
            len(study.loads)] * len(study.patterns),
            distinct_patterns=len(set(study.patterns)))
        for i in rng.choice(len(result), 2, replace=False):
            self.kept.append((key, result[int(i)]))
        n_ok = sum(1 for o in result if o.ok)
        return OpOutcome(n_ok,
                         None if n_ok == len(study) else "failed scenarios")

    def verify(self):
        from repro.studies import simulate_scenario
        bad = {}
        for key, out in self.kept:
            why = checks.same_outcome(
                out, simulate_scenario(out.scenario, model()))
            if why:
                bad[key] = why
        return bad


#: draws per ``montecarlo_fd`` op: small ops, so that a run holds
#: enough of them for a steady median
MC_DRAWS = 8


def mc_study(seed: int, n_draws: int = MC_DRAWS):
    """The ``montecarlo_fd`` Monte Carlo study: random 10-bit traffic at
    1 ns per bit into a 50 ohm line with a spread far-end resistor."""
    from repro.studies import (Distribution, LoadSpec, RunnerOptions,
                               SpectralSpec, StochasticSpec,
                               StochasticStudy, TrafficModel)
    return StochasticStudy(
        name="mc", bit_time=1e-9,
        loads=LoadSpec(kind="line", z0=50.0, td=0.5e-9, r=50.0),
        spectral=SpectralSpec(mask="board-b"),
        options=RunnerOptions(n_workers=1, use_result_cache=False,
                              backend="fd"),
        stochastic=StochasticSpec(
            seed=seed, n_draws=n_draws,
            traffic=TrafficModel(model="bernoulli", n_bits=10),
            params={"r": Distribution(dist="uniform", low=40.0,
                                      high=60.0)}))


class MonteCarloFD(Workload):
    """Fresh-seed 8-draw stochastic study on the FD backend."""

    name = "montecarlo_fd"
    trace_ops = 8
    expected = ("repro.experiments.cache:estimate_driver_model",
                "repro.circuit.transient:solve_dcop",
                "repro.circuit.transient:run_transient",
                "repro.circuit.fd:extract_thevenin",
                "repro.circuit.fd:solve_driver_port",
                "repro.studies.simulate:amplitude_spectrum",
                "repro.emc.limits:LimitMask.check",
                "repro.emc.spectrum:quantile_hold",
                "repro.studies.runner:ScenarioRunner.run",
                "repro.studies.runner:ScenarioRunner._group_pending",
                "repro.studies.stochastic:StochasticStudy.scenarios",
                "repro.studies.stochastic:StochasticStudy.make_result",
                "repro.studies.stochastic:StochasticResult.quantile_bands",
                "repro.studies.stochastic:"
                "StochasticResult.pass_probability")

    def __init__(self, seed, ws):
        super().__init__(seed, ws)
        self.kept: list = []

    def start(self, trace_path=None):
        model()
        self.run((mc_study(int(self.rng(9, 0).integers(2 ** 31)), 2), None))

    def prepare(self, phase, k):
        rng = self.rng(phase, k)
        return mc_study(int(rng.integers(2 ** 31))), rng

    def run(self, inputs, parent=None):
        result = inputs[0].run()
        return result, result.quantile_bands(), result.pass_probability()

    def inspect(self, key, inputs, output):
        study, rng = inputs
        result, bands, pp = output
        n_ok = sum(1 for o in result if o.ok)
        distinct = len({o.scenario.pattern for o in result})
        self.props["grid"] = len(study)
        self.props.setdefault("distinct_patterns_per_op", []).append(
            distinct)
        self.kept.append((key, result[int(rng.integers(len(result)))]))
        if set(bands) != {"p50", "p95", "p99"} or pp.n != n_ok:
            return OpOutcome(0, "aggregation incomplete")
        return OpOutcome(n_ok,
                         None if n_ok == len(study) else "failed draws")

    def verify(self):
        bad = {}
        for key, out in self.kept:
            why = checks.fd_matches_transient(out, model())
            if why:
                bad[key] = why
        return bad


# ---------------------------------------------------------------------------
# child-process workloads
# ---------------------------------------------------------------------------

def _stop_process(proc: subprocess.Popen) -> None:
    """Interrupt a child and its process group (SIGKILL after 10 s);
    always reaps it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=10)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)


class ChildWorkload(Workload):
    """A workload whose ops run in launch.py children.

    The first child saves the MD2 model it estimated; the checks load it
    instead of estimating the same (deterministic) model again.
    """

    in_process = False

    def __init__(self, seed, ws):
        super().__init__(seed, ws)
        self.model_path = ws / "md2-model.json"
        self._model = None

    def model_env(self) -> dict:
        """Environment asking a child to save its model, until one has."""
        if self.model_path.exists():
            return {}
        return {benchtrace.ENV_MODEL: str(self.model_path)}

    def model(self):
        if self._model is None:
            if self.model_path.exists():
                from repro.models import load_model
                self._model = load_model(self.model_path)
            else:
                self._model = model()
        return self._model

    def in_process_csv(self, study) -> str:
        """The CSV of an in-process ``Study.run(n_workers=1)``."""
        return study.run(models={("MD2", "typ"): self.model()},
                         n_workers=1).csv_text()


class ServiceJobs(ChildWorkload):
    """Closed-loop client of ``python -m repro.studies serve``."""

    name = "service_jobs"
    trace_ops = 16
    expected = ("repro.experiments.cache:estimate_driver_model",
                "repro.circuit.transient:solve_dcop",
                "repro.studies.simulate:run_transient_batch",
                "repro.studies.simulate:amplitude_spectrum",
                "repro.studies.simulate:apply_detector",
                "repro.emc.limits:LimitMask.check",
                "repro.experiments.cache:SweepDiskCache.get",
                "repro.experiments.cache:SweepDiskCache.put",
                "repro.studies.runner:ScenarioRunner.run",
                "repro.studies.service.serve:StudyService.submit",
                "repro.studies.service.serve:StudyService._run_job",
                "repro.studies.service.jobs:shard_plan",
                "repro.studies.service.jobs:JobManager.run_shards",
                "repro.studies.service.serve:_Handler.do_GET",
                "repro.studies.service.serve:_Handler.do_POST",
                "repro.studies.service.serve:job_status")
    POLL_S = 0.02
    N_LOADS = 16

    def __init__(self, seed, ws):
        super().__init__(seed, ws)
        self.proc = None
        self.url = None
        self.kept: list = []
        self._loads: tuple = ()
        self._servers = 0
        rng = self.rng(8, 0)
        self.patterns = (random_pattern(rng, 4), random_pattern(rng, 6))

    def _study(self, loads):
        from repro.emc.detectors import DETECTORS
        from repro.studies import SpectralSpec, Study
        return Study(name="job", patterns=self.patterns, loads=loads,
                     spectral=SpectralSpec(mask="board-b",
                                           detectors=DETECTORS))

    def start(self, trace_path=None):
        self._servers += 1
        tag = f"server{self._servers}"
        cache_dir = self.ws / f"{tag}-cache"
        log = self.ws / f"{tag}.log"
        env = child_env(self.ws, {
            **self.model_env(),
            **(benchtrace.trace_env(trace_path) if trace_path else {})})
        with open(log, "w") as fh:
            self.proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), "serve", "--cache",
                 str(cache_dir), "--port", "0", "--workers",
                 str(N_WORKERS)],
                stdout=fh, stderr=subprocess.STDOUT, cwd=self.ws, env=env,
                start_new_session=True)
        deadline = time.monotonic() + OP_TIMEOUT_S
        while self.url is None:
            m = re.search(r"serving on (http://\S+)", log.read_text())
            if m:
                self.url = m.group(1)
            elif self.proc.poll() is not None \
                    or time.monotonic() > deadline:
                raise RuntimeError("study server did not start:\n"
                                   + log.read_text()[-2000:])
            else:
                time.sleep(0.02)
        rng = self.rng(8, self._servers)
        self._loads = tuple(random_line(rng) for _ in range(self.N_LOADS))
        status, _ = self.run(self._study(self._loads))  # warm-up job
        if status["state"] != "done":
            raise RuntimeError(f"warm-up job failed: {status}")

    def prepare(self, phase, k):
        rng = self.rng(phase, k)
        half = self.N_LOADS // 2
        self._loads = self._loads[half:] + tuple(
            random_line(rng) for _ in range(half))
        return self._study(self._loads)

    def run(self, study, parent=None):
        from repro.studies.service import serve
        deadline = time.monotonic() + OP_TIMEOUT_S
        status = serve.submit_study(self.url, study)
        job = status["job"]
        while status["state"] in ("queued", "running"):
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job} still {status['state']}")
            time.sleep(self.POLL_S)
            status = serve.job_status(self.url, job)
        csv = serve.fetch_result(self.url, job, csv=True) \
            if status["state"] == "done" else None
        return status, csv

    def inspect(self, key, study, output):
        status, csv = output
        n = len(study)
        self.kept.append((key, study, csv))
        hits = status.get("progress", {}).get("cache_hits", 0)
        self.props.update(grid=n, batch_groups=[len(study.loads)]
                          * len(study.patterns))
        self.props.setdefault("cache_hit_share_per_op", []).append(
            hits / n)
        if status["state"] != "done":
            return OpOutcome(0, status.get("error") or status["state"])
        n_ok = n - int(status.get("n_failures", 0))
        return OpOutcome(n_ok, None if n_ok == n else "failed scenarios")

    def peak_rss_mb(self):
        """The server's peak RSS (VmHWM), read before it stops."""
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", text).group(1)) / 1024.0

    def stop(self):
        if self.proc is not None:
            _stop_process(self.proc)
            self.proc = None
            self.url = None

    def verify(self):
        bad = {}
        kept = [kv for kv in self.kept if kv[2] is not None]
        rng = self.rng(7, 0)
        picks = {0, len(kept) - 1, int(rng.integers(len(kept)))} \
            if kept else set()
        for i in sorted(picks):
            key, study, csv = kept[i]
            if self.in_process_csv(study) != csv:
                bad[key] = "served CSV differs from in-process Study.run"
        return bad


class CliStudy(ChildWorkload):
    """One ``python -m repro.studies run`` process per op."""

    name = "cli_study"
    trace_ops = 2
    expected = ("repro.experiments.cache:estimate_driver_model",
                "repro.circuit.transient:solve_dcop",
                "repro.studies.simulate:run_transient",
                "repro.studies.simulate:amplitude_spectrum",
                "repro.emc.limits:LimitMask.check",
                "repro.experiments.cache:SweepDiskCache.get",
                "repro.experiments.cache:SweepDiskCache.put",
                "repro.studies.runner:ScenarioRunner.run",
                "repro.studies.runner:ScenarioRunner._group_pending")
    _SUMMARY = re.compile(r"(\d+) scenarios, (\d+) cache hits, "
                          r"(\d+) failures")

    def __init__(self, seed, ws):
        super().__init__(seed, ws)
        self.cache_dir = None
        self.trace_path = None
        self.fresh: dict = {}
        self.csvs: dict = {}
        self._last_fresh = None

    def start(self, trace_path=None):
        # a fresh cache per phase: a traced phase must not reuse the
        # untraced phase's entries
        self.trace_path = trace_path
        self.cache_dir = self.ws / f"cli-cache-{int(bool(trace_path))}"
        self._last_fresh = None

    def prepare(self, phase, k):
        from repro.studies import LoadSpec, RunnerOptions, SpectralSpec, Study
        if k % 2 == 1 and self._last_fresh is not None:
            path = self._last_fresh
        else:
            rng = self.rng(phase, k)
            study = Study(
                name=f"cli{phase}-{k}",
                patterns=(random_pattern(rng, 4), random_pattern(rng, 6)),
                loads=(LoadSpec(kind="r", r=round(float(
                    rng.uniform(30, 200)), 3)), random_line(rng)),
                spectral=SpectralSpec(mask="board-b"),
                options=RunnerOptions(n_workers=1))
            path = study.save(self.ws / f"study-{phase}-{k}.toml")
            self.fresh[path] = study
            self._last_fresh = path
        return path, self.ws / f"out-{phase}-{k}.csv"

    def run(self, inputs, parent=None):
        toml, csv = inputs
        extra = self.model_env()
        if self.trace_path:
            extra.update(benchtrace.trace_env(self.trace_path, parent))
        return subprocess.run(
            [sys.executable, str(LAUNCH), "run", str(toml), "--cache",
             str(self.cache_dir), "--quiet", "--csv", str(csv)],
            capture_output=True, text=True, cwd=self.ws,
            timeout=OP_TIMEOUT_S,
            env=child_env(self.ws, extra))

    def inspect(self, key, inputs, proc):
        toml, csv = inputs
        n = len(self.fresh[toml])
        m = self._SUMMARY.search(proc.stdout)
        if proc.returncode != 0 or m is None or not csv.exists():
            return OpOutcome(0, f"exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
        n_sc, hits, fails = (int(g) for g in m.groups())
        if n_sc != n:
            return OpOutcome(0, f"ran {n_sc} of {n} scenarios")
        rerun = toml in self.csvs
        self.props.update(grid=n)
        self.props.setdefault("cache_hit_share_per_op", []).append(
            hits / n_sc)
        text = csv.read_bytes().decode("utf-8")
        if rerun and (hits != n_sc or text != self.csvs[toml][1]):
            return OpOutcome(0, "rerun not fully cached or CSV changed")
        self.csvs.setdefault(toml, (key, text))
        return OpOutcome(n_sc - fails,
                         None if fails == 0 else "failed scenarios")

    def peak_rss_mb(self):
        """Largest peak RSS of the CLI processes reaped so far."""
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def verify(self):
        bad = {}
        for toml, (key, text) in self.csvs.items():
            if self.in_process_csv(self.fresh[toml]) != text:
                bad[key] = "CLI CSV differs from in-process Study.run"
        return bad


WORKLOADS = {w.name: w for w in (SweepTransient, MonteCarloFD,
                                 ServiceJobs, CliStudy)}
