"""Tests of the benchmark's own arithmetic.

    python -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness import OpLog, Patches, TooFewSamples, Tracer, percentile  # noqa: E402


# -- percentiles --------------------------------------------------------


def test_p90_of_100_samples_is_the_90th_with_10_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == (90, 10)
    assert percentile(samples, 50) == (50, 50)


def test_p90_is_refused_with_fewer_than_10_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)  # rank 90 of 99: 9 beyond
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3] * 20, 50) == (3, 50)


# -- spans and self time ------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        tracer.wrap("leaf", leaf)()
        clock.now += 3.0

    def outer():
        clock.now += 4.0
        tracer.wrap("middle", middle)()
        tracer.wrap("leaf", leaf)()

    tracer.wrap("outer", outer)()
    assert tracer.stats["leaf"] == [2, 2.0]
    assert tracer.stats["middle"] == [1, 5.0]
    assert tracer.stats["outer"] == [1, 4.0]
    assert tracer.covered == 11.0  # only the outermost span counts
    assert tracer.self_ms("outer") == 4000.0 and tracer.calls("missing") == 0


def test_span_is_closed_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    assert tracer.stats["boom"] == [1, 1.0]
    assert tracer.covered == 1.0  # "after" was outermost again


def test_on_result_sees_each_return_value():
    seen = []
    tracer = Tracer()
    assert tracer.wrap("f", lambda x: x * 2, lambda a, k, r: seen.append(r))(3) == 6
    assert seen == [6]


# -- failure counting ---------------------------------------------------


def test_failures_count_against_attempts_and_have_no_latency():
    log = OpLog()
    for index in range(100):
        log.ok(0.001 * (index + 1))
    log.fail("wrong verdict")
    log.fail("refused")
    assert (log.attempted, log.failed) == (102, 2)
    assert log.failures == ["wrong verdict", "refused"]
    summary = log.summary(elapsed=2.0)
    assert summary["samples"] == 100
    assert summary["ops_per_s"] == 50.0
    assert summary["latency_p90_ms"] == pytest.approx(90.0)
    assert summary["beyond_p90"] == 10


def test_summary_refuses_a_run_too_short_for_p90():
    log = OpLog()
    for _ in range(50):
        log.ok(0.01)
    with pytest.raises(TooFewSamples):
        log.summary(elapsed=1.0)


# -- patching -----------------------------------------------------------


@dataclass(frozen=True)
class Frozen:
    check: object


class Owner:
    def method(self):
        return "original"


def test_patches_restore_classes_modules_and_frozen_instances():
    module = type(sys)("scratch_module")
    module.fn = len
    frozen = Frozen(check=len)
    patches = Patches()
    patches.replace(module, "fn", abs)
    patches.replace(Owner, "method", lambda self: "wrapped")
    patches.replace(frozen, "check", abs)
    installed = patches.snapshot()
    assert Owner().method() == "wrapped" and frozen.check is abs
    assert not Patches.all_restored(installed)
    patches.restore()
    assert Patches.all_restored(installed)
    assert module.fn is len and frozen.check is len and Owner().method() == "original"


# -- the metric names match BENCHMARK.json ------------------------------


def test_traced_runs_report_exactly_the_declared_per_layer_metrics():
    import layers

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = layers.layer_metrics(Tracer(), layers.Counters())
    assert sorted(reported) == sorted(metric["name"] for metric in declared["per_layer"])
    units = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in reported.items())


# -- calibration --------------------------------------------------------


def test_slowdown_is_the_median_round_over_the_reference():
    from harness import CALIBRATION_REF_S, Calibration

    calibration = Calibration()
    calibration.starts = [0.0, 1.0, 2.0]
    calibration.samples = [CALIBRATION_REF_S * factor for factor in (3.0, 1.5, 2.0)]
    assert calibration.slowdown == pytest.approx(2.0)
    calibration.sample()
    assert len(calibration.samples) == 4 and calibration.spent > 0


def _rounds(*pairs):
    """A calibration with rounds ``(start, slowdown)``."""
    from harness import CALIBRATION_REF_S, Calibration

    calibration = Calibration()
    calibration.starts = [start for start, _ in pairs]
    calibration.samples = [CALIBRATION_REF_S * factor for _, factor in pairs]
    return calibration


def test_slowdown_at_a_moment_is_the_mean_of_the_rounds_around_it():
    calibration = _rounds((0.0, 1.0), (1.0, 3.0), (2.0, 2.0))
    assert calibration.at(0.5) == pytest.approx(2.0)
    assert calibration.at(1.5) == pytest.approx(2.5)
    assert calibration.at(5.0) == pytest.approx(2.0)  # after the last round
    assert calibration.at(-1.0) == pytest.approx(1.0)  # before the first


def test_each_latency_is_scaled_by_the_slowdown_around_it():
    calibration = _rounds((0.0, 1.0), (1.0, 3.0), (2.0, 2.0))
    log = OpLog()
    log.ok(0.4, 0.5)
    log.ok(0.5, 1.5)
    log.fail("wrong")
    scaled = calibration.scale(log)
    assert scaled.latencies == pytest.approx([0.2, 0.2])
    assert (scaled.attempted, scaled.failed) == (3, 1)


def test_a_scaled_span_leaves_the_rounds_out():
    from harness import CALIBRATION_REF_S

    calibration = _rounds((1.0, 1.0), (2.0, 3.0))
    took = [CALIBRATION_REF_S * 1.0, CALIBRATION_REF_S * 3.0]
    # 0 → 1: before the first round; then the stretch between the two
    # rounds; then from the end of the last round to 3.
    expected = (1.0 / 1.0 + (2.0 - (1.0 + took[0])) / 2.0
                + (3.0 - (2.0 + took[1])) / 3.0)
    assert calibration.scaled_span(0.0, 3.0) == pytest.approx(expected)
