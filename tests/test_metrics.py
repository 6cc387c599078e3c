"""Binned success rates, subset dispersion, histograms and report files."""

import csv
import json
import math

import numpy as np
import pytest

from sococ.engine import Fleet, RunStats
from sococ.errors import ConfigurationError
from sococ.market import AuctionOutcome, Bid, Coalition
from sococ.metrics import (
    MetricsConfig,
    MetricsSink,
    ModeTotals,
    build_report,
    coalition_histogram,
    emit,
    subset_stddev,
)
from sococ.workload import Mode


def won(rid=0):
    coalition = Coalition(np.array([0]), np.array([1.0]))
    return AuctionOutcome(rid, Bid(coalition, 1.0), 1)


def lost(rid=0):
    return AuctionOutcome(rid, None, 1)


def make_fleet(n=4):
    return Fleet(
        modes=np.ones(n, dtype=np.int8),
        capacity=10.0,
        background=np.zeros(n),
        unit_cost=np.ones(n),
    )


def report_of(sink, fleet=None, stats=None, config_echo=None, seed=0):
    return build_report(sink, fleet if fleet is not None else make_fleet(),
                        stats if stats is not None else RunStats(),
                        config_echo=config_echo or {}, seed=seed, preset="test")


# -- sink / bins ----------------------------------------------------------------

def test_bin_closes_at_size_with_correct_rate():
    sink = MetricsSink(MetricsConfig(bin_size=4, n_subsets=2))
    for outcome in [won(0), won(1), lost(2)]:
        sink.record_outcome(outcome, Mode.M2)
    # three outcomes make one partial bin, not a full one
    assert [b.partial for b in report_of(sink).bins] == [True]
    sink.record_outcome(won(3), Mode.M2)
    bins = report_of(sink).bins
    assert len(bins) == 1
    b = bins[0]
    assert (b.mode, b.bin_index, b.n_requests, b.n_failed) == ("M2", 0, 4, 1)
    assert b.success_rate == 0.75
    assert not b.partial


def test_partial_tail_is_flagged():
    sink = MetricsSink(MetricsConfig(bin_size=4, n_subsets=2))
    for i in range(6):
        sink.record_outcome(won(i), Mode.M3)
    report = report_of(sink)
    assert [b.partial for b in report.bins] == [False, True]
    assert [b.n_requests for b in report.bins] == [4, 2]
    assert report.totals["M3"].requests == 6


def test_exact_multiple_of_bin_size_has_no_partial_bin():
    sink = MetricsSink(MetricsConfig(bin_size=4, n_subsets=2))
    for i in range(8):
        sink.record_outcome(won(i) if i % 2 else lost(i), Mode.M1)
    report = report_of(sink)
    assert [(b.bin_index, b.n_requests, b.partial) for b in report.bins] == [
        (0, 4, False), (1, 4, False)
    ]


def test_mode_without_requests_has_no_bins_and_no_rate():
    sink = MetricsSink(MetricsConfig(bin_size=4, n_subsets=2))
    for i in range(5):
        sink.record_outcome(won(i), Mode.M1)
    report = report_of(sink)
    assert {b.mode for b in report.bins} == {"M1"}
    assert report.totals["M2"].requests == 0
    assert report.totals["M2"].success_rate is None
    assert report.totals["M1"].success_rate == 1.0


def test_bin_with_fewer_outcomes_than_subsets_drops_all():
    sink = MetricsSink(MetricsConfig(bin_size=10, n_subsets=5))
    for i in range(3):
        sink.record_outcome(won(i) if i else lost(i), Mode.M2)
    (b,) = report_of(sink).bins
    assert b.n_requests == 3 and b.partial
    assert b.subset_stddev == 0.0
    assert b.subset_dropped == 3


def test_unsatisfied_is_the_sum_of_per_mode_failures():
    rng = np.random.default_rng(11)
    for n in (0, 1, 7, 50):
        sink = MetricsSink(MetricsConfig(bin_size=3, n_subsets=2))
        n_lost = 0
        for i in range(n):
            is_won = rng.random() < 0.6
            n_lost += not is_won
            sink.record_outcome(won(i) if is_won else lost(i), Mode(int(rng.integers(1, 4))))
        report = report_of(sink)
        assert report.unsatisfied == sum(t.failed for t in report.totals.values()) == n_lost
        assert report.n_requests == sum(t.requests for t in report.totals.values()) == n
        assert sum(b.n_failed for b in report.bins) == n_lost


def test_published_totals_arithmetic():
    # the reported M2 light-load figures: 16,974,809 requests, 21,254 failed
    totals = ModeTotals(16_974_809, 21_254)
    assert totals.success_rate * 100 == pytest.approx(99.875, abs=5e-4)


def test_bins_are_per_mode_and_ordered():
    sink = MetricsSink(MetricsConfig(bin_size=2, n_subsets=1))
    sequence = [(won(0), Mode.M1), (won(1), Mode.M2), (lost(2), Mode.M1),
                (won(3), Mode.M1), (lost(4), Mode.M2)]
    for outcome, mode in sequence:
        sink.record_outcome(outcome, mode)
    report = report_of(sink)
    assert [(b.mode, b.bin_index, b.n_requests) for b in report.bins] == [
        ("M1", 0, 2), ("M1", 1, 1), ("M2", 0, 2)
    ]
    # bins plus the partial bin cover every request of the mode
    m1 = [b for b in report.bins if b.mode == "M1"]
    assert sum(b.n_requests for b in m1) == report.totals["M1"].requests == 3


# -- subset stddev ----------------------------------------------------------------

def test_subset_stddev_trivial_cases():
    assert subset_stddev([True] * 100, 10) == 0.0
    assert subset_stddev([False, True], 2) == 0.5
    with pytest.raises(ConfigurationError, match="n_subsets"):
        MetricsConfig(n_subsets=0)


def test_subset_stddev_drops_remainder():
    # 10 outcomes into 3 subsets of 3: the 10th is dropped
    outcomes = [True] * 9 + [False]
    assert subset_stddev(outcomes, 3) == 0.0


def test_subset_stddev_matches_binomial_oracle():
    rng = np.random.default_rng(123)
    outcomes = rng.random(10_000) < 0.7
    observed = subset_stddev(outcomes, 10)
    expected = math.sqrt(0.7 * 0.3 / 1000)  # ~0.0145
    # sampling std of a 10-sample stddev estimate
    sigma = expected / math.sqrt(2 * (10 - 1))
    assert abs(observed - expected) <= 3 * sigma


def test_subset_stddev_degenerate_when_fewer_outcomes_than_subsets():
    assert subset_stddev([True, False], 10) == 0.0


# -- coalition histogram -----------------------------------------------------------

def test_zero_requests_histogram_is_all_zero():
    hist = coalition_histogram(make_fleet(5), 20)
    assert hist.mean == 0.0 and hist.stddev == 0.0
    assert hist.buckets == [(0.0, 0.0, 5)]


def test_single_win_histogram():
    fleet = make_fleet(3)
    fleet.coalition_count[1] = 1
    hist = coalition_histogram(fleet, bucket_count=2)
    assert hist.mean == pytest.approx(1 / 3)
    assert sum(c for _, _, c in hist.buckets) == 3


# -- emit / round-trip ----------------------------------------------------------------

def test_empty_run_emits_valid_headers_only_files(tmp_path):
    sink = MetricsSink(MetricsConfig(bin_size=10, n_subsets=2))
    report = report_of(sink, config_echo={"x": 1}, seed=9)
    paths = emit(report, tmp_path)
    assert paths["bins"].read_text().strip() == (
        "mode,bin_index,n_requests,n_failed,success_rate,subset_stddev,"
        "partial,subset_dropped,request_share"
    )
    summary = json.loads(paths["summary"].read_text())
    assert summary["seed"] == 9
    assert summary["overall_success_rate"] is None
    assert summary["totals"]["M1"]["requests"] == 0


def test_emitted_files_are_byte_identical_across_calls(tmp_path):
    def build():
        sink = MetricsSink(MetricsConfig(bin_size=3, n_subsets=3))
        for i in range(7):
            sink.record_outcome(won(i) if i % 3 else lost(i), Mode.M1)
        fleet = make_fleet()
        fleet.coalition_count[:] = [0, 1, 2, 1]
        return report_of(sink, fleet, config_echo={"alpha": 0.123456789123}, seed=5)

    a = emit(build(), tmp_path / "a")
    b = emit(build(), tmp_path / "b")
    for key in ("bins", "coalitions", "summary"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_report_round_trips_through_files(tmp_path):
    sink = MetricsSink(MetricsConfig(bin_size=5, n_subsets=5))
    rng = np.random.default_rng(4)
    for i in range(23):
        mode = Mode(int(rng.integers(1, 4)))
        sink.record_outcome(won(i) if rng.random() < 0.8 else lost(i), mode)
    fleet = make_fleet(6)
    fleet.coalition_count[:] = [0, 3, 1, 1, 7, 2]
    stats = RunStats(completed=16, completed_at_stream_end=14, in_flight_at_stream_end=2)
    report = report_of(sink, fleet, stats, config_echo={"k": [1, 2]}, seed=3)
    paths = emit(report, tmp_path)

    with open(paths["bins"], newline="") as f:
        bins = list(csv.DictReader(f))
    assert len(bins) == len(report.bins)
    for parsed, original in zip(bins, report.bins):
        assert parsed["mode"] == original.mode
        assert int(parsed["bin_index"]) == original.bin_index
        assert int(parsed["n_requests"]) == original.n_requests
        assert int(parsed["n_failed"]) == original.n_failed
        assert (parsed["partial"] == "1") == original.partial
        assert int(parsed["subset_dropped"]) == original.subset_dropped
        for key in ("success_rate", "subset_stddev", "request_share"):
            assert float(parsed[key]) == pytest.approx(getattr(original, key), rel=1e-8)

    summary = json.loads(paths["summary"].read_text())
    assert summary["n_requests"] == 23
    assert summary["unsatisfied"] == 7
    assert summary["unsatisfied"] == sum(t["failed"] for t in summary["totals"].values())
    assert summary["in_flight_at_stream_end"] == 2
    assert summary["completed_at_stream_end"] == 14
    assert summary["totals"]["M1"]["requests"] == report.totals["M1"].requests
    assert summary["coalitions"]["mean"] == pytest.approx(report.coalition.mean)


def test_request_share_sums_to_one_over_all_bins():
    sink = MetricsSink(MetricsConfig(bin_size=4, n_subsets=2))
    rng = np.random.default_rng(8)
    for i in range(37):
        sink.record_outcome(won(i), Mode(int(rng.integers(1, 4))))
    report = report_of(sink)
    assert sum(b.request_share for b in report.bins) == pytest.approx(1.0)


def test_metrics_config_validation():
    with pytest.raises(ConfigurationError):
        MetricsConfig(bin_size=0)
    with pytest.raises(ConfigurationError):
        MetricsConfig(n_subsets=0)
