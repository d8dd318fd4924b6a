"""Which ``repro`` functions the traced run times, and under what names.

Every layer is observed from outside: :func:`install` wraps public
functions where they are imported (every ``repro`` module attribute that
*is* the function, so calls through any import site are timed) and
returns the :class:`~harness.Patches` that put them all back.  Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field

from harness import Patches, Tracer

#: Modules imported before patching, so that every import site exists.
_LAYER_MODULES = (
    "repro.isa",
    "repro.core",
    "repro.core.enumerate",
    "repro.core.execution",
    "repro.litmus",
    "repro.litmus.runner",
    "repro.analysis.static",
    "repro.analysis.solver",
    "repro.analysis.solver.behaviors",
    "repro.operational",
    "repro.operational.storebuffer",
    "repro.cache",
    "repro.service",
    "repro.service.server",
    "repro.testing",
    "repro.testing.coverage",
    "repro.testing.oracles",
)


def oracle_span(name: str) -> str:
    """The span name of one registered oracle's ``check``."""
    return f"testing.oracle.{name}"


#: Timed spans every traced run reports (``.calls`` and ``.self_ms``).
SPANS = (
    "core.atomicity.close",
    "core.execution.state_key",
    "core.execution.copy",
    "core.execution.resolve_load",
    "core.candidates",
    "core.enumerate",
    "litmus.finalstate",
    "static.facts",
    "static.analyze",
    "solver.encode",
    "solver.sat.solve",
    "operational.sc",
    "operational.tso",
    "operational.pso",
    "operational.dataflow",
    "testing.generate",
    "testing.campaign.wal.append",
    "testing.campaign.save_state",
    "isa.assemble",
    "isa.disassemble",
    "cache.lookup",
    "cache.store",
    "service.wal.append",
    "service.pool.run_job",
    "service.client.submit",
    "service.client.status",
)


#: Per-layer metrics that are not span timings, with their units.  A
#: workload that does not reach a layer reports it as 0.
OTHER_METRICS = {
    "core.explored": "count",
    "core.resolutions": "count",
    "core.duplicates": "count",
    "core.rolled_back": "count",
    "core.dup_ratio": "ratio",
    "solver.proposals": "count",
    "solver.conflicts": "count",
    "solver.propagations": "count",
    "solver.feasible_ratio": "ratio",
    "testing.coverage.cells": "count",
    "cache.hit_ratio": "ratio",
    "cache.bloom_negatives": "count",
    "service.queue_wait_ms": "ms",
    "service.polls_per_job": "count",
    "service.hit_latency_p50_ms": "ms",
    "service.miss_latency_p50_ms": "ms",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.overhead_pct": "%",
    "trace.coverage_min": "ratio",
}


@dataclass
class Counters:
    """Engine and solver counts harvested from returned stats."""

    enumeration: dict = field(
        default_factory=lambda: dict.fromkeys(
            ("explored", "resolutions", "duplicates", "rolled_back"), 0
        )
    )
    solver: dict = field(
        default_factory=lambda: dict.fromkeys(
            ("proposals", "feasible", "conflicts", "propagations"), 0
        )
    )

    def add_enumeration(self, stats) -> None:
        for name in self.enumeration:
            self.enumeration[name] += getattr(stats, name)

    def add_solver(self, stats) -> None:
        for name in self.solver:
            self.solver[name] += getattr(stats, name)


def _import_layers() -> None:
    for name in _LAYER_MODULES:
        importlib.import_module(name)


def _everywhere(patches: Patches, fn, new) -> int:
    """Point every ``repro`` module attribute bound to ``fn`` at ``new``."""
    sites = 0
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.replace(module, attr, new)
                sites += 1
    if sites == 0:
        raise RuntimeError(f"no import site found for {fn!r}")
    return sites


def install(tracer: Tracer, role: str) -> tuple[Patches, Counters]:
    """Wrap every layer for ``role`` (``"engine"``, ``"fuzz"`` or
    ``"server"``; it only picks the name the shared WAL append is
    reported under).  Undo with ``patches.restore()``."""
    _import_layers()
    from repro.analysis.solver import behaviors as solver_behaviors
    from repro.analysis.solver.encode import encode_program
    from repro.analysis.solver.sat import SatSolver
    from repro.analysis.static import analyze_program, compute_static_facts
    from repro.cache.store import BehaviorCache
    from repro.core import enumerate as core_enumerate
    from repro.core import execution as core_execution
    from repro.core.execution import Execution
    from repro.isa.assembler import assemble
    from repro.isa.disassembler import disassemble
    from repro.litmus.finalstate import realizable_final_memory
    from repro.operational.dataflow import run_dataflow
    from repro.operational.sc import run_sc
    from repro.operational.storebuffer import run_pso, run_tso
    from repro.service.pool import WorkerPool
    from repro.service.wal import WriteAheadLog
    from repro.testing.coverage import save_state
    from repro.testing.fuzzgen import generate_program
    from repro.testing.oracles import ORACLES

    patches = Patches()
    counters = Counters()

    def everywhere(name, fn, on_result=None):
        _everywhere(patches, fn, tracer.wrap(name, fn, on_result))

    def method(name, cls, attr):
        patches.replace(cls, attr, tracer.wrap(name, cls.__dict__[attr]))

    # core: the closure only where the engine calls it; the rest at
    # every import site.
    patches.replace(
        core_execution,
        "close_store_atomicity",
        tracer.wrap("core.atomicity.close", core_execution.close_store_atomicity),
    )
    method("core.execution.state_key", Execution, "state_key")
    method("core.execution.copy", Execution, "copy")
    method("core.execution.resolve_load", Execution, "resolve_load")
    patches.replace(
        core_enumerate,
        "candidate_stores",
        tracer.wrap("core.candidates", core_enumerate.candidate_stores),
    )
    everywhere(
        "core.enumerate",
        core_enumerate.enumerate_behaviors,
        lambda args, kwargs, result: counters.add_enumeration(result.stats),
    )
    everywhere("litmus.finalstate", realizable_final_memory)
    everywhere("static.facts", compute_static_facts)
    everywhere("static.analyze", analyze_program)
    everywhere("solver.encode", encode_program)
    method("solver.sat.solve", SatSolver, "solve")
    # Counts only: the solver's own time is already in encode + solve.
    with_stats = solver_behaviors.solve_behaviors_with_stats

    def harvest_solver(*args, **kwargs):
        result = with_stats(*args, **kwargs)
        counters.add_solver(result[1])
        return result

    _everywhere(patches, with_stats, harvest_solver)
    everywhere("operational.sc", run_sc)
    everywhere("operational.tso", run_tso)
    everywhere("operational.pso", run_pso)
    everywhere("operational.dataflow", run_dataflow)
    everywhere("testing.generate", generate_program)
    for oracle in ORACLES:
        patches.replace(oracle, "check", tracer.wrap(oracle_span(oracle.name), oracle.check))
    everywhere("testing.campaign.save_state", save_state)
    wal_span = "service.wal.append" if role == "server" else "testing.campaign.wal.append"
    method(wal_span, WriteAheadLog, "append")
    everywhere("isa.assemble", assemble)
    everywhere("isa.disassemble", disassemble)
    method("cache.lookup", BehaviorCache, "lookup")
    method("cache.store", BehaviorCache, "store")
    method("service.pool.run_job", WorkerPool, "run_job")
    return patches, counters


def oracle_names() -> tuple[str, ...]:
    from repro.testing.oracles import ORACLES

    return tuple(oracle.name for oracle in ORACLES)


def layer_metrics(tracer: Tracer, counters: Counters) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: each span's calls and self time, the
    engine/solver counts, and zeros for what the workload fills in."""
    metrics = {name: (0, unit) for name, unit in OTHER_METRICS.items()}
    for name in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_ms"] = (tracer.self_ms(name), "ms")
    for name in oracle_names():
        metrics[f"{oracle_span(name)}.self_ms"] = (tracer.self_ms(oracle_span(name)), "ms")
    enum = counters.enumeration
    for name, value in enum.items():
        metrics[f"core.{name}"] = (value, "count")
    metrics["core.dup_ratio"] = (
        enum["duplicates"] / enum["resolutions"] if enum["resolutions"] else 0.0,
        "ratio",
    )
    solver = counters.solver
    for name in ("proposals", "conflicts", "propagations"):
        metrics[f"solver.{name}"] = (solver[name], "count")
    metrics["solver.feasible_ratio"] = (
        solver["feasible"] / solver["proposals"] if solver["proposals"] else 0.0,
        "ratio",
    )
    return metrics
