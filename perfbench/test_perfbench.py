"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

import math

import pytest

from layers import layer_metrics, outermost, queue_wait, self_times, union_length
from measure import (
    Tally,
    equation2,
    latency_summary,
    percentile,
    quartile_spread,
    worse_by,
)
from workloads import JOINING, worker_evaluations


# --- the ten-beyond percentile rule ---------------------------------------------------


def test_p99_is_resolved_only_with_ten_samples_beyond_it():
    summary = latency_summary([float(x) for x in range(1000)])
    assert summary["beyond_p99"] == 10
    assert summary["p99_resolved"]
    summary = latency_summary([float(x) for x in range(900)])
    assert summary["beyond_p99"] == 9
    assert not summary["p99_resolved"]


@pytest.mark.parametrize("count", [1, 40, 172, 1504])
def test_latency_summary_reports_the_true_median_and_p99(count):
    samples = [float(x) for x in range(count)]
    summary = latency_summary(samples)
    assert summary["samples"] == count
    assert summary["p50"] == percentile(samples, 50.0)
    assert summary["p99"] == percentile(samples, 99.0)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0


# --- Equation 2 -----------------------------------------------------------------------

CALIBRATION = {
    "minimum": {"gain": 0.0, "power": 0.0, "bandwidth": 1e6},
    "maximum": {"gain": 100.0, "power": 1.0, "bandwidth": 2e6},
}
WEIGHTS = {"gain": 1.0, "power": -1.0, "bandwidth": 1.0}
SPEC = [("gain", "min", 10.0), ("power", "max", 0.8)]


def test_equation2_hand_worked():
    # gain 50 -> 0.5; power 0.25 -> -0.25; bandwidth 3e6 clips to 1.0.
    metrics = {"gain": 50.0, "power": 0.25, "bandwidth": 3e6}
    assert equation2(metrics, WEIGHTS, CALIBRATION, SPEC) == pytest.approx(1.25)


def test_equation2_clips_below_range_and_skips_missing_metrics():
    metrics = {"gain": 20.0, "power": -0.5}
    assert equation2(metrics, WEIGHTS, CALIBRATION, SPEC) == pytest.approx(0.2)


@pytest.mark.parametrize(
    "metrics",
    [
        {"gain": 5.0, "power": 0.1},  # below the gain spec
        {"gain": 50.0, "power": 0.9},  # above the power spec
        {"gain": 50.0, "power": 0.1, "simulation_failed": 1.0},
        {"gain": 50.0, "power": 0.1, "bandwidth": math.inf},
    ],
)
def test_equation2_violations_score_minus_one(metrics):
    assert equation2(metrics, WEIGHTS, CALIBRATION, SPEC) == -1.0


# --- span self time -------------------------------------------------------------------


def span(span_id, parent, name, start, end, value=0, extra=None):
    return [span_id, parent, name, start, end, value, 1, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, 0, "a", 0.0, 10.0),
        span(2, 1, "b", 1.0, 4.0),
        span(3, 2, "d", 2.0, 3.0),
        span(4, 1, "c", 5.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_is_per_process_when_span_ids_repeat():
    worker_a = {"spans": [span(1, 0, "circuits.evaluate", 0.0, 10.0),
                          span(2, 1, "spice.dc", 1.0, 4.0)]}
    worker_b = {"spans": [span(1, 0, "spice.dc", 0.0, 1.0)]}
    metrics = layer_metrics([worker_a, worker_b], (0.0, 10.0))
    assert metrics["circuits.metrics_s"] == pytest.approx(7.0)
    assert metrics["spice.dc_s"] == pytest.approx(4.0)
    assert metrics["untraced_s"] == pytest.approx(0.0)


def test_rl_updates_count_the_update_spans_inside_tell():
    trace = {"spans": [span(1, 0, "rl.tell", 0.0, 1.0),
                       span(2, 1, "rl.update", 0.1, 0.4),
                       span(3, 1, "rl.update", 0.5, 0.9)]}
    metrics = layer_metrics([trace], (0.0, 1.0))
    assert metrics["rl.updates"] == 2
    assert metrics["rl.tell_s"] == pytest.approx(1.0)


def test_outermost_skips_nested_spans_of_the_same_layer():
    spans = [
        span(1, 0, "eval", 0.0, 5.0),
        span(2, 1, "other", 1.0, 4.0),
        span(3, 2, "eval", 2.0, 3.0),
        span(4, 0, "eval", 6.0, 7.0),
    ]
    assert [s[0] for s in outermost(spans, ["eval"])] == [1, 4]


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0
    assert union_length([], 0, 1) == 0


def test_queue_wait_subtracts_the_batch_a_request_rode_in():
    spans = [
        span(1, 0, "service.submit", 0.0, 1.0),
        span(2, 0, "resilience.evaluate", 0.2, 0.9),
        span(3, 0, "service.submit", 0.1, 0.3),  # answered from the cache
    ]
    total, count = queue_wait(spans)
    assert count == 2
    assert total == pytest.approx((1.0 - 0.7) + 0.2)


# --- failure counting and spreads -----------------------------------------------------


def test_a_failed_check_fails_its_operation():
    tally = Tally()
    tally.operation([])
    tally.operation(["best FoM is not the best reward", "curve decreases"])
    tally.operation([])
    assert (tally.attempted, tally.failed, tally.correct) == (3, 1, False)
    assert len(tally.problems) == 2


def test_clean_operations_are_correct():
    tally = Tally()
    for _ in range(4):
        tally.operation([])
    assert (tally.attempted, tally.failed, tally.correct) == (4, 0, True)


def test_quartile_spread_and_worse_by():
    stats = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["spread"] == pytest.approx((4.5 - 1.5) / 3.0)
    assert worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


# --- sweep output ---------------------------------------------------------------------


def test_worker_summaries_are_found_when_two_share_a_line():
    summary = ("worker w{} done: executed=12 skipped=0 stolen=0 resumed=0 paused=0 "
               "lost=0 evaluations={} quarantined=0")
    # Unbuffered prints write text and newline apart, so lines can merge.
    stdout = "\n".join([
        "worker w0 joining sweep on sqlite:xworker w1 joining sweep on sqlite:x",
        "",
        summary.format(0, 120) + summary.format(1, 100),
        "",
    ])
    assert worker_evaluations(stdout) == [120, 100]
    assert stdout.count(JOINING) == 2
