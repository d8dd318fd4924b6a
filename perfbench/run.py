"""The repository benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload engine-cold --seed 0 --seconds 20 --trace 0

Run it from the repository root.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run (see ``perfbench/README.md``).
The line before it holds the details: the machine, the seed, the sample
counts behind each percentile and any failures.  Both also go to
``.perfbench-out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import CALIBRATION_REF_S, machine_block
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log = result.log
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(ROOT),
        "checks": result.checks,
        "failures": log.failures,
        **result.details,
    }
    calibration = result.calibration
    if calibration is not None:
        details["calibration"] = {
            "rounds": len(calibration.samples),
            "median_ms": calibration.slowdown * CALIBRATION_REF_S * 1000.0,
            "slowdown": calibration.slowdown,
        }
    if args.trace:
        metrics = result.layer
    else:
        summary = log.summary(result.elapsed)
        details["samples"] = {
            key: summary[key] for key in ("samples", "beyond_p50", "beyond_p90", "elapsed_s")
        }
        details["measured"] = {
            "ops_per_s": summary["ops_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p90_ms": summary["latency_p90_ms"],
            "setup_s": result.setup_s,
        }
        setup_s = result.setup_s
        if calibration is not None:
            # Times at the reference speed: each operation, and each
            # stretch of the run, divided by the slowdown around it.
            summary = calibration.scale(log).summary(calibration.scaled_span(*result.window))
            setup_s /= calibration.slowdown
        metrics = {
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
            "latency_p90_ms": (summary["latency_p90_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (result.peak_rss_mb, "MB"),
        }
    line = {
        "correct": log.failed == 0 and all(result.checks.values()),
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": line}, indent=2) + "\n"
    )
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
