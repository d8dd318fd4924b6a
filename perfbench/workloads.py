"""The three workloads.  Each ``run_*`` returns a :class:`Result`.

* ``engine-cold`` — the sequential enumerator on heavy litmus families,
  no cache and no static facts, in whole passes whose order the seed
  sets;
* ``fuzz-campaign`` — short coverage-guided campaigns seeded from the
  seed, every oracle, one process, WAL fsync on, no cache;
* ``service-cached`` — ``repro serve`` with one worker and a pre-warmed
  cache, driven by two closed-loop clients; one job in four repeats a
  pre-warmed program.

Set-up is timed several times per run and reported as the median.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    MIN_BEYOND,
    Calibration,
    OpLog,
    Patches,
    Tracer,
    median,
    peak_rss_mb,
    percentile,
)
import layers

ROOT = Path(__file__).resolve().parent.parent
#: Every end-to-end percentile needs this many operations (p90 with
#: ``MIN_BEYOND`` samples beyond it).
MIN_OPS = 10 * MIN_BEYOND
#: A traced phase reports only medians (the service's hit/miss p50 needs
#: 20 hits, one job in four).
TRACE_MIN_OPS = 80
SETUP_REPEATS = 3
#: A calibration round runs before every this many engine operations or
#: fuzz programs, and once after the last (outside their timings and the
#: elapsed time).
CALIBRATE_EVERY = 2
MODELS = ("sc", "tso", "pso", "weak")


@dataclass
class Result:
    log: OpLog
    elapsed: float
    setup_s: float
    peak_rss_mb: float
    calibration: Calibration | None  #: ``None``: times are reported as measured
    window: tuple[float, float] | None = None  #: the timed phase's start and end
    checks: dict = field(default_factory=dict)  #: run-level checks, name → passed
    layer: dict = field(default_factory=dict)  #: per-layer metrics (traced runs)
    details: dict = field(default_factory=dict)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_setup(call: str, scratch: Path | None = None) -> float:
    """Median wall time of a fresh interpreter running ``call`` from this
    module: imports plus building the workload's inputs.  ``scratch`` is
    removed after each repetition."""
    code = f"import sys; sys.path[:0] = ['src', 'perfbench']; import workloads; workloads.{call}"
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), check=True)
        durations.append(time.perf_counter() - start)
        if scratch is not None:
            shutil.rmtree(scratch)
    return median(durations)


def _overhead(calibration: Calibration, traced: OpLog, traced_window: tuple,
              untraced: OpLog, untraced_window: tuple) -> dict:
    """Operations per second with and without the wrappers, both at the
    reference speed."""
    traced_ops = len(traced.latencies) / calibration.scaled_span(*traced_window)
    untraced_ops = len(untraced.latencies) / calibration.scaled_span(*untraced_window)
    return {
        "trace.ops_per_s_traced": (traced_ops, "1/s"),
        "trace.ops_per_s_untraced": (untraced_ops, "1/s"),
        "trace.overhead_pct": (100.0 * (1.0 - traced_ops / untraced_ops), "%"),
    }


# ---------------------------------------------------------------------------
# engine-cold


def engine_ops() -> list[tuple]:
    """``(litmus test | fanout program, model)`` pairs of one pass."""
    from repro.experiments.scaling import chain_program
    from repro.litmus.families import independent_writers, mp_chain, sb_ring

    tests = [sb_ring(n) for n in (3, 4, 5)]
    tests += [sb_ring(n, fenced=True) for n in (3, 4)]
    tests += [mp_chain(n) for n in (3, 4, 5)]
    # iriw-4r is left out: at 12 s for its four models it alone would
    # take more than a run's measuring time.
    tests += [independent_writers(n) for n in (2, 3)]
    ops = [(test, model) for test in tests for model in MODELS]
    ops.append((chain_program(4), "weak"))
    return ops


def _engine_op(op) -> str | None:
    """Run one operation; a string describes a wrong answer."""
    from repro.core.enumerate import enumerate_behaviors
    from repro.litmus.runner import run_litmus
    from repro.litmus.test import LitmusTest
    from repro.models.registry import get_model

    subject, model = op
    if isinstance(subject, LitmusTest):
        verdict = run_litmus(subject, model)
        expected = subject.expectation(model)
        if not verdict.complete or verdict.holds != expected:
            return f"{subject.name}/{model}: holds={verdict.holds}, expected {expected}"
        return None
    writers = len(subject.threads) - 1
    result = enumerate_behaviors(subject, get_model(model))
    want = (writers + 1) ** writers
    if not result.complete or len(result.executions) != want:
        return f"{subject.name}/{model}: {len(result.executions)} executions, expected {want}"
    return None


def _engine_phase(seed: int, seconds: float, calibration: Calibration,
                  tracer: Tracer | None = None, min_ops: int = MIN_OPS):
    """Whole passes until ``seconds`` have passed and ``MIN_OPS`` ran, so
    every run measures the same mix.  With a tracer, also the smallest
    share of an operation's wall time that spans account for."""
    rng = random.Random(seed)
    ops = engine_ops()
    log = OpLog()
    coverage = 1.0
    spent = calibration.spent
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        for position, op in enumerate(order):
            if position % CALIBRATE_EVERY == 0:
                calibration.sample()
            covered = tracer.covered if tracer else 0.0
            began = time.perf_counter()
            try:
                wrong = _engine_op(op)
            except Exception as exc:  # counted, not fatal: the run goes on
                wrong = f"{op[0].name}/{op[1]}: {type(exc).__name__}: {exc}"
            took = time.perf_counter() - began
            if wrong:
                log.fail(wrong)
            else:
                log.ok(took, began)
            if tracer:
                coverage = min(coverage, (tracer.covered - covered) / took)
        elapsed = time.perf_counter() - start - (calibration.spent - spent)
        if elapsed >= seconds and log.attempted >= min_ops:
            window = (start, time.perf_counter())
            calibration.sample()
            return log, elapsed, coverage, window


def setup_engine() -> None:
    import repro.core.enumerate  # noqa: F401
    import repro.litmus.runner  # noqa: F401

    engine_ops()


def run_engine(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    calibration = Calibration()
    setup_s = _timed_setup("setup_engine()")
    setup_engine()
    if not trace:
        log, elapsed, _, window = _engine_phase(seed, seconds, calibration)
        return Result(log, elapsed, setup_s, peak_rss_mb(), calibration, window)
    tracer = Tracer()
    patches, counters = layers.install(tracer, "engine")
    installed = patches.snapshot()
    try:
        traced_log, _, coverage, traced_window = _engine_phase(
            seed, seconds / 2.0, calibration, tracer, TRACE_MIN_OPS
        )
    finally:
        patches.restore()
    restored = Patches.all_restored(installed)
    log, elapsed, _, window = _engine_phase(seed, seconds / 2.0, calibration,
                                            min_ops=TRACE_MIN_OPS)
    layer = layers.layer_metrics(tracer, counters)
    layer.update(_overhead(calibration, traced_log, traced_window, log, window))
    layer["trace.coverage_min"] = (coverage, "ratio")
    log.attempted += traced_log.attempted
    log.failed += traced_log.failed
    log.failures += traced_log.failures
    return Result(
        log, elapsed, setup_s, peak_rss_mb(), calibration, window,
        checks={"trace_coverage_90pct": coverage >= 0.9, "wrappers_restored": restored},
        layer=layer,
    )


# ---------------------------------------------------------------------------
# fuzz-campaign

#: Programs per ``run_guided_campaign`` call: four batches, one
#: checkpoint cycle of an uninterrupted campaign.
CAMPAIGN_CHUNK = 48
CAMPAIGN_CHUNKS = 1  #: chunks per campaign
#: Small programs: every profile of the generator has a heavy tail of
#: programs that take seconds (the mixed profile reaches 12-60 s on one
#: program), which no time-bounded run can average away.  Two threads of
#: two to four operations keep the cost per program within a narrow band
#: while still touching every oracle and engine.
BENCH_PROFILE = "bench-small"


@contextmanager
def bench_profile():
    """Register :data:`BENCH_PROFILE` with the generator for the run."""
    from repro.testing.fuzzgen import PROFILES

    PROFILES[BENCH_PROFILE] = dataclasses.replace(
        PROFILES["default"],
        name=BENCH_PROFILE,
        description="two-thread programs of 2-4 operations, default weights",
        threads=(2, 2),
        ops_per_thread=(2, 4),
    )
    try:
        yield
    finally:
        del PROFILES[BENCH_PROFILE]


def _campaign(directory: Path, seed: int, budget: int, resume: bool):
    from repro.testing.coverage import run_guided_campaign

    return run_guided_campaign(
        directory, seed, budget, profile=BENCH_PROFILE, jobs=1,
        cache_dir=None, do_shrink=False, resume=resume, fsync=True,
    )


def _fuzz_phase(seed: int, seconds: float, directory: Path, calibration: Calibration,
                min_ops: int = MIN_OPS):
    """Short campaigns until time is up; every program through every
    oracle is one operation, timed by wrapping ``guided_one``.  Campaign
    ``i`` has seed ``seed * 10_000 + i`` and ``CAMPAIGN_CHUNKS`` chunks:
    one long campaign drifts towards whatever its early corpus favoured,
    and p90 then moved by a third from seed to seed."""
    from repro.testing import coverage

    log = OpLog()
    inner = coverage.guided_one

    def timed(item):
        if item[0] % CALIBRATE_EVERY == 0:
            calibration.sample()
        began = time.perf_counter()
        try:
            verdict = inner(item)
        except Exception as exc:  # counted, and the campaign goes on
            log.fail(f"program {item[0]}: {type(exc).__name__}: {exc}")
            return _crashed_verdict(item)
        took = time.perf_counter() - began
        if verdict["discrepancies"]:
            log.fail("; ".join(str(d) for d in verdict["discrepancies"]))
        else:
            log.ok(took, began)
        return verdict

    patches = Patches()
    patches.replace(coverage, "guided_one", timed)
    first_grid = None
    cells = 0
    spent = calibration.spent
    start = time.perf_counter()
    try:
        for index in itertools.count():
            report = None
            for _ in range(CAMPAIGN_CHUNKS):
                report = _campaign(directory / str(index), _campaign_seed(seed, index),
                                   CAMPAIGN_CHUNK, resume=report is not None)
                if first_grid is None:
                    first_grid = report.state.grid.to_json()
            cells += len(report.state.grid)
            elapsed = time.perf_counter() - start - (calibration.spent - spent)
            if elapsed >= seconds and log.attempted >= min_ops:
                break
    finally:
        patches.restore()
    window = (start, time.perf_counter())
    calibration.sample()
    return log, elapsed, first_grid, cells, window


def _campaign_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def _crashed_verdict(item) -> dict:
    """The verdict of a program whose oracles raised: one failure, no
    grid cells, so the campaign can go on deterministically."""
    from repro.isa.disassembler import disassemble
    from repro.testing.fuzzgen import generate_program, get_profile

    index, seed, profile, source, text, digest = item[:6]
    if text is None:
        text = disassemble(generate_program(seed, get_profile(profile)))
    return {"index": index, "seed": seed, "profile": profile, "source": source,
            "digest": digest, "text": text, "cells": [], "fails": 1,
            "discrepancies": (), "skipped": ()}


def setup_fuzz(directory: str, seed: int) -> None:
    with bench_profile():
        _campaign(Path(directory), seed, 0, resume=False)


def run_fuzz(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    calibration = Calibration()
    scratch = workdir / "setup"
    setup_s = _timed_setup(f"setup_fuzz({str(scratch)!r}, {seed})", scratch)
    with bench_profile():
        layer = {}
        if trace:
            tracer = Tracer()
            patches, counters = layers.install(tracer, "fuzz")
            try:
                traced_log, _, _, _, traced_window = _fuzz_phase(
                    seed, seconds / 2.0, workdir / "traced", calibration, TRACE_MIN_OPS
                )
            finally:
                patches.restore()
            log, elapsed, first_grid, cells, window = _fuzz_phase(
                seed, seconds / 2.0, workdir / "campaign", calibration, TRACE_MIN_OPS
            )
            layer = layers.layer_metrics(tracer, counters)
            layer.update(_overhead(calibration, traced_log, traced_window, log, window))
            layer["testing.coverage.cells"] = (cells, "count")
            log.attempted += traced_log.attempted
            log.failed += traced_log.failed
            log.failures += traced_log.failures
        else:
            log, elapsed, first_grid, cells, window = _fuzz_phase(
                seed, seconds, workdir / "campaign", calibration
            )
        # The same seed must give the same grid: replay the first chunk.
        again = _campaign(workdir / "replay", _campaign_seed(seed, 0), CAMPAIGN_CHUNK,
                          resume=False)
        same_grid = again.state.grid.to_json() == first_grid
    return Result(
        log, elapsed, setup_s, peak_rss_mb(), calibration, window,
        checks={"same_seed_same_grid": same_grid},
        layer=layer,
        details={"grid_cells_summed": cells},
    )


# ---------------------------------------------------------------------------
# service-cached

HIT_EVERY = 4  #: every fourth job repeats a pre-warmed program
HIT_POOL = 8  #: distinct pre-warmed programs
POLL_S = 0.003  #: status poll interval; 0.1 s polling alone sets p50
#: Before every this many jobs the clients pause until no job is in
#: flight, and a calibration round runs on the idle machine.
CALIBRATE_JOBS = 8
CLIENTS = 2
SERVICE_MODEL = "weak"


def _service_limits() -> dict:
    from repro.testing.oracles import FUZZ_LIMITS

    return {"max_behaviors": FUZZ_LIMITS.max_behaviors,
            "max_executions": FUZZ_LIMITS.max_executions}


def _service_program(seed: int, index: int):
    """Program ``index`` of the run: ``0 .. HIT_POOL-1`` are pre-warmed,
    the rest are novel (distinct seeds give distinct names, hence
    distinct job and cache keys)."""
    from repro.testing.fuzzgen import generate_program, get_profile

    return generate_program(seed * 1_000_000 + index, get_profile(BENCH_PROFILE))


def _direct_result(program, cache=None) -> dict:
    """``canonical_result`` of a direct enumeration, as the JSON the
    service returns it."""
    from repro.core.enumerate import enumerate_behaviors
    from repro.models.registry import get_model
    from repro.service.jobs import canonical_result
    from repro.testing.oracles import FUZZ_LIMITS

    result = enumerate_behaviors(program, get_model(SERVICE_MODEL), FUZZ_LIMITS, cache=cache)
    return json.loads(json.dumps(canonical_result(result)))


class _Server:
    """``repro serve`` (or the traced entry point) as a subprocess."""

    def __init__(self, workdir: Path, seed: int, traced: bool) -> None:
        from repro.cache import BehaviorCache

        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.trace_out = workdir / "trace.json" if traced else None
        # Pre-warm the cache the server will read at submit time.
        cache = BehaviorCache(self.cache_dir)
        self.hits = []
        for index in range(HIT_POOL):
            program = _service_program(seed, index)
            self.hits.append((program, _direct_result(program, cache)))
        cache.close()
        args = [
            "--port", "0", "--wal-dir", str(workdir / "wal"), "--workers", "1",
            "--cache-dir", str(self.cache_dir), "--queue-limit", "100000",
            "--rate-capacity", "1e9", "--rate-refill", "1e9",
        ]
        if traced:
            command = [sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
                       *args, "--trace-out", str(self.trace_out)]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        self.log_path = workdir / "server.log"
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.url = self._wait_ready()

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if "serving on " in text:
                return text.split("serving on ", 1)[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.log_path.read_text()}")

    def _children(self) -> list[int]:
        children = []
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == self.proc.pid:
                    children.append(int(entry.name))
        return children

    def stop(self) -> None:
        """SIGINT (a clean shutdown that flushes the trace), then wait for
        the server and its pool workers; SIGKILL what is left after 20 s."""
        if self.proc.poll() is None:
            children = self._children()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            for pid in children:
                _wait_gone(pid)


def _wait_gone(pid: int) -> None:
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.01)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _start_service(workdir: Path, seed: int, traced: bool) -> _Server:
    """Pre-warm, start, and push one job through so the worker pool is
    up before timing starts."""
    from repro.isa.disassembler import disassemble
    from repro.service.client import ServiceClient

    server = _Server(workdir, seed, traced)
    try:
        client = ServiceClient(server.url)
        program = _service_program(seed, 999_999)
        client.wait(client.submit(disassemble(program), SERVICE_MODEL, _service_limits())["id"],
                    poll_interval=POLL_S)
    except BaseException:
        server.stop()
        raise
    return server


def _service_phase(server: _Server, seed: int, seconds: float, calibration: Calibration,
                   tracer: Tracer | None = None, min_ops: int = MIN_OPS):
    """Two closed-loop clients until time is up.  Job ``k`` repeats a
    pre-warmed program when ``k % HIT_EVERY == HIT_EVERY - 1`` and is a
    novel program otherwise.  Every ``CALIBRATE_JOBS`` jobs, and once
    after the last, a calibration round runs while no job is in flight,
    outside the job timings and the elapsed time."""
    from repro.isa.disassembler import disassemble
    from repro.service.client import ServiceClient

    limits = _service_limits()
    done: list[dict] = []
    log = OpLog()
    gate = threading.Condition()
    counter = [0]
    in_flight = [0]
    draining = [False]
    spent = calibration.spent
    start = time.perf_counter()

    def next_job() -> int | None:
        with gate:
            gate.wait_for(lambda: not draining[0])
            if (time.perf_counter() - start - (calibration.spent - spent) >= seconds
                    and counter[0] >= min_ops):
                return None
            k = counter[0]
            counter[0] += 1
            if k % CALIBRATE_JOBS == 0:
                draining[0] = True
                gate.wait_for(lambda: in_flight[0] == 0)
                calibration.sample()
                draining[0] = False
                gate.notify_all()
            in_flight[0] += 1
            return k

    def finished() -> None:
        with gate:
            in_flight[0] -= 1
            gate.notify_all()

    def client_loop(index: int) -> None:
        client = ServiceClient(server.url)
        # A random phase for the first poll: with a fixed one, latencies
        # bunch at whole poll periods and a percentile jumps a period
        # when a little mass moves between two bunches.
        phase = random.Random(seed * CLIENTS + index)
        while (k := next_job()) is not None:
            hit = k % HIT_EVERY == HIT_EVERY - 1
            if hit:
                program, expected = server.hits[k % HIT_POOL]
                source = disassemble(program) + f"# repeat {k}\n"
            else:
                program, expected = _service_program(seed, HIT_POOL + k), None
                source = disassemble(program)
            polls = 0
            began = time.perf_counter()
            try:
                view = client.submit(source, SERVICE_MODEL, limits)
                pause = phase.uniform(0.0, POLL_S)
                while view["state"] in ("queued", "running"):
                    time.sleep(pause)
                    pause = POLL_S
                    view = client.status(view["id"])
                    polls += 1
                took = time.perf_counter() - began
            except Exception as exc:  # refused or broken: counted, not fatal
                log.fail(f"job {k}: {type(exc).__name__}: {exc}")
                continue
            finally:
                finished()
            if view["state"] != "completed":
                log.fail(f"job {k}: {view['state']} {view.get('error', '')}")
                continue
            with gate:
                done.append({"k": k, "hit": hit, "program": program, "expected": expected,
                             "result": view["result"], "latency": took, "began": began,
                             "polls": polls})

    patches = Patches()
    if tracer is not None:
        for name in ("submit", "status"):
            patches.replace(ServiceClient, name,
                            tracer.wrap(f"service.client.{name}", ServiceClient.__dict__[name]))
    try:
        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        patches.restore()
    window = (start, time.perf_counter())
    elapsed = window[1] - start - (calibration.spent - spent)
    calibration.sample()
    # Outside the timed region: every result against a direct enumeration.
    for job in sorted(done, key=lambda job: job["k"]):
        expected = job["expected"] or _direct_result(job["program"])
        if job["result"] == expected:
            log.ok(job["latency"], job["began"])
        else:
            log.fail(f"job {job['k']}: result differs from a direct enumeration")
    return log, elapsed, done, window


def run_service(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    calibration = Calibration()
    with bench_profile():
        durations = []
        for attempt in range(SETUP_REPEATS):
            began = time.perf_counter()
            server = _start_service(workdir / f"setup-{attempt}", seed, traced=False)
            durations.append(time.perf_counter() - began)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        try:
            log, elapsed, _, window = _service_phase(
                server, seed, seconds / 2.0 if trace else seconds, calibration,
                min_ops=TRACE_MIN_OPS if trace else MIN_OPS,
            )
            rss = peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        layer = {}
        if trace:
            # The wrappers live in the server process; this process only
            # times its client calls.
            traced = _start_service(workdir / "traced", seed, traced=True)
            tracer = Tracer()
            try:
                traced_log, _, done, traced_window = _service_phase(
                    traced, seed, seconds / 2.0, calibration, tracer, TRACE_MIN_OPS
                )
            finally:
                traced.stop()
            layer = _service_layers(tracer, traced, done)
            layer.update(_overhead(calibration, traced_log, traced_window, log, window))
            log.attempted += traced_log.attempted
            log.failed += traced_log.failed
            log.failures += traced_log.failures
    return Result(log, elapsed, median(durations), rss, calibration, window, layer=layer)


def _service_layers(tracer: Tracer, server: _Server, done: list[dict]) -> dict:
    """Client-side spans and latencies merged with what the traced
    server recorded (its spans, queue waits and cache counters)."""
    recorded = json.loads(server.trace_out.read_text())
    merged = Tracer()
    merged.stats = {name: list(entry) for name, entry in recorded["spans"].items()}
    for name, (calls, self_s) in tracer.stats.items():
        merged.stats[name] = [calls, self_s]
    counters = layers.Counters()
    layer = layers.layer_metrics(merged, counters)
    hits = [job["latency"] for job in done if job["hit"]]
    misses = [job["latency"] for job in done if not job["hit"]]
    cache = recorded["cache"]
    lookups = cache["hits"] + cache["misses"]
    layer.update({
        "service.queue_wait_ms": (median(recorded["queue_waits"]) * 1000.0
                                  if recorded["queue_waits"] else 0.0, "ms"),
        "service.polls_per_job": (sum(job["polls"] for job in done) / len(done), "count"),
        "service.hit_latency_p50_ms": (percentile(hits, 50)[0] * 1000.0, "ms"),
        "service.miss_latency_p50_ms": (percentile(misses, 50)[0] * 1000.0, "ms"),
        "cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.bloom_negatives": (cache["bloom_negatives"], "count"),
    })
    return layer


WORKLOADS = {
    "engine-cold": run_engine,
    "fuzz-campaign": run_fuzz,
    "service-cached": run_service,
}
