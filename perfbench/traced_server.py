"""``repro serve`` with the layer wrappers installed in the server process.

Run as ``python perfbench/traced_server.py <repro serve options>
--trace-out FILE``.  On SIGINT the server shuts down as ``repro serve``
does, then FILE receives the spans, the queue wait of every job that went
through the queue (its RUNNING transition minus its submission) and the
server's behavior-cache counters.  Enumeration inside the pool's worker
process is not traced: it shows as ``service.pool.run_job``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import Patches, Tracer  # noqa: E402
import layers  # noqa: E402


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--rate-capacity", type=float, default=10)
    parser.add_argument("--rate-refill", type=float, default=1.0)
    parser.add_argument("--trace-out", required=True)
    return parser.parse_args(argv)


def _watch_queue(patches: Patches, submitted: dict, queued: set, waits: list) -> None:
    """Record each job's submit time and, for jobs that were queued, the
    wait until their RUNNING transition."""
    from repro.service.jobs import JobState, JobStore
    from repro.service.server import JobServer

    submit = JobStore.__dict__["submit"]
    transition = JobStore.__dict__["transition"]
    enqueue = JobServer.__dict__["_enqueue"]

    def on_submit(self, *args, **kwargs):
        job = submit(self, *args, **kwargs)
        submitted[job.id] = time.perf_counter()
        return job

    def on_transition(self, job_id, state, **kwargs):
        if state is JobState.RUNNING and job_id in queued:
            waits.append(time.perf_counter() - submitted[job_id])
            queued.discard(job_id)
        return transition(self, job_id, state, **kwargs)

    def on_enqueue(self, job_id):
        queued.add(job_id)
        return enqueue(self, job_id)

    patches.replace(JobStore, "submit", on_submit)
    patches.replace(JobStore, "transition", on_transition)
    patches.replace(JobServer, "_enqueue", on_enqueue)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    from repro.cache import BehaviorCache
    from repro.service.server import ServiceConfig, run_server

    tracer = Tracer()
    patches, _ = layers.install(tracer, "server")
    submitted: dict = {}
    queued: set = set()
    waits: list = []
    _watch_queue(patches, submitted, queued, waits)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        wal_dir=args.wal_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        rate_capacity=args.rate_capacity,
        rate_refill=args.rate_refill,
        cache_dir=args.cache_dir,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    finally:
        patches.restore()
    counters = BehaviorCache.shared(args.cache_dir).stats()["counters"]
    Path(args.trace_out).write_text(
        json.dumps({"spans": tracer.stats, "queue_waits": waits, "cache": counters})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
