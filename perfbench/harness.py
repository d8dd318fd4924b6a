"""The benchmark's own arithmetic and plumbing, independent of ``repro``.

* :func:`percentile` — nearest-rank percentile that refuses to answer
  when fewer than ``min_beyond`` samples lie above it;
* :class:`OpLog` — per-operation latencies and failure counting;
* :class:`Tracer` — nestable spans with self time, recorded by wrappers
  that :class:`Patches` installs on a module or class attribute and puts
  back afterwards;
* :class:`Calibration` — how fast the machine ran around each
  operation, from a fixed kernel that uses no ``repro`` code;
* :func:`machine_block` — the named machine a number was measured on.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import statistics
import threading
import time
from pathlib import Path

#: A percentile counts only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, percent: int, min_beyond: int = MIN_BEYOND) -> tuple[float, int]:
    """Nearest-rank ``percent``-th percentile and the number of samples
    lying beyond it.  Integer arithmetic on the rank, so ``p90`` of 100
    samples is the 90th value with exactly 10 beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-percent * n // 100)  # ceil(percent * n / 100), 1-based
    beyond = n - rank
    if n == 0 or rank < 1 or beyond < min_beyond:
        raise TooFewSamples(
            f"p{percent} of {n} samples has {max(beyond, 0)} beyond it "
            f"(need {min_beyond})"
        )
    return ordered[rank - 1], beyond


class OpLog:
    """What the timed operations did: a latency per successful operation,
    and failures counted against attempts instead of aborting the run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.starts: list[float] = []  #: when each successful operation began
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def ok(self, seconds: float, started: float = 0.0) -> None:
        with self._lock:
            self.attempted += 1
            self.latencies.append(seconds)
            self.starts.append(started)

    def fail(self, why: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)

    def summary(self, elapsed: float) -> dict:
        """End-to-end numbers plus the sample counts behind them."""
        done = len(self.latencies)
        p50, beyond50 = percentile(self.latencies, 50)
        p90, beyond90 = percentile(self.latencies, 90)
        return {
            "ops_per_s": done / elapsed,
            "latency_p50_ms": p50 * 1000.0,
            "latency_p90_ms": p90 * 1000.0,
            "samples": done,
            "beyond_p50": beyond50,
            "beyond_p90": beyond90,
            "elapsed_s": elapsed,
        }


class Tracer:
    """Spans with self time: a span's duration minus the durations of the
    spans it directly encloses on the same thread.  ``stats`` maps a span
    name to ``[calls, self_seconds]``; ``covered`` sums the durations of
    outermost spans, i.e. all time some span accounts for."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.covered = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> None:
        self._stack().append([self.clock(), 0.0])

    def leave(self, name: str) -> None:
        stack = self._stack()
        start, children = stack.pop()
        duration = self.clock() - start
        with self._lock:
            entry = self.stats.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration - children
            if stack:
                stack[-1][1] += duration
            else:
                self.covered += duration

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(args, kwargs,
        result)`` sees each return value (to harvest counters)."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(name)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1] * 1000.0


class Patches:
    """Attribute replacements that can all be put back.  Works on
    modules, classes (the raw ``__dict__`` entry is saved) and frozen
    dataclass instances."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> object:
        if isinstance(owner, type):
            old = owner.__dict__[attr]
            setattr(owner, attr, new)
        else:
            old = getattr(owner, attr)
            object.__setattr__(owner, attr, new)  # also frozen dataclasses
        self._saved.append((owner, attr, old))
        return old

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if isinstance(owner, type):
                setattr(owner, attr, old)
            else:
                object.__setattr__(owner, attr, old)

    def snapshot(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    @staticmethod
    def all_restored(snapshot) -> bool:
        """Whether every attribute in ``snapshot`` holds its original."""
        for owner, attr, old in snapshot:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not old:
                return False
        return True


def median(values) -> float:
    return statistics.median(values)


#: What one calibration round takes at the reference speed.  Reported
#: times are scaled to that speed (see :class:`Calibration`).
CALIBRATION_REF_S = 0.010


class _Node:
    __slots__ = ("key", "mask")

    def __init__(self, key: int, mask: int) -> None:
        self.key = key
        self.mask = mask


def _kernel_step(i: int, table: dict, seen: set, nodes: list) -> int:
    node = _Node(i % 251, (i * 7) & 1023)
    pair = (node.key, node.mask >> 3)
    table[pair] = table.get(pair, 0) + 1
    seen.add(pair)
    nodes.append(node)
    if len(nodes) > 64:
        del nodes[:32]
    return (node.mask | (1 << (i & 31))) ^ hash(pair)


def calibration_round() -> float:
    """Seconds for one round of a fixed interpreter-bound kernel: calls,
    attribute access, small objects, tuples, dict and set updates and
    integer bit operations, like the code under test but none of it."""
    start = time.perf_counter()
    table: dict = {}
    seen: set = set()
    nodes: list = []
    acc = 0
    for i in range(4500):
        acc ^= _kernel_step(i, table, seen, nodes)
    sorted(table.items())
    return time.perf_counter() - start


class Calibration:
    """Calibration rounds taken through a run, one before every few
    operations.  The machine's speed drifts by up to 1.7x over minutes on
    a shared VM, and changes within a second too, far more than any bound
    could absorb.  :meth:`at` is the slowdown around one moment: the mean
    of the rounds just before and just after it, over
    :data:`CALIBRATION_REF_S`.  A time divided by it is that time at the
    reference speed.  One slowdown for the whole run (the median round)
    tracked the work worse: three runs of one fuzz-campaign seed gave
    p90s 0.20 of their median apart, against 0.03 scaled around each
    operation."""

    def __init__(self) -> None:
        self.starts: list[float] = []  #: when each round began
        self.samples: list[float] = []  #: seconds each round took
        self.spent = 0.0  #: seconds spent calibrating

    def sample(self) -> None:
        start = time.perf_counter()
        took = calibration_round()
        self.starts.append(start)
        self.samples.append(took)
        self.spent += took

    @property
    def slowdown(self) -> float:
        """The median round over the reference: the run's typical speed."""
        return statistics.median(self.samples) / CALIBRATION_REF_S

    def at(self, when: float) -> float:
        """The slowdown around ``when``: the mean of the last round begun
        by then and the round after it."""
        index = bisect.bisect_right(self.starts, when)
        near = self.samples[max(index - 1, 0):index + 1]
        return statistics.fmean(near) / CALIBRATION_REF_S

    def scale(self, log: OpLog) -> OpLog:
        """``log`` with each latency at the reference speed."""
        scaled = OpLog()
        scaled.attempted, scaled.failed, scaled.failures = log.attempted, log.failed, log.failures
        scaled.starts = list(log.starts)
        scaled.latencies = [seconds / self.at(start)
                            for start, seconds in zip(log.starts, log.latencies)]
        return scaled

    def scaled_span(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed, the
        rounds left out: each stretch between two rounds is divided by the
        slowdown around it."""
        total, cursor = 0.0, start
        for began, took in zip(self.starts, self.samples):
            if start <= began < end:
                total += (began - cursor) / self.at(cursor)
                cursor = began + took
        return total + (end - cursor) / self.at(cursor)


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git (the
    benchmark may run in an export that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _src_digest(root: Path) -> str:
    """Digest of every source file, naming the code when there is no sha."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "src_digest": _src_digest(root),
    }


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid``, default this process."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
