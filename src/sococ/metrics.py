"""Run statistics: binned success rates, dispersion, coalition histograms,
and the CSV/JSON report files.

Success rates are tracked per request mode in arrival-ordered bins of a
fixed size; each closed bin also records the standard deviation of the
success rate across equal arrival-ordered subsets, mirroring how dispersion
is reported for the large experiments.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .topology import equal_width_histogram
from .workload import REQUEST_MODES, Mode


@dataclass(frozen=True)
class MetricsConfig:
    bin_size: int = 1_000_000
    n_subsets: int = 1_000
    coalition_buckets: int = 20

    def __post_init__(self) -> None:
        if self.bin_size < 1:
            raise ConfigurationError("bin_size must be >= 1")
        if self.n_subsets < 1:
            raise ConfigurationError("n_subsets must be >= 1")
        if self.coalition_buckets < 1:
            raise ConfigurationError("coalition_buckets must be >= 1")


@dataclass
class BinStats:
    """Success statistics of one arrival-ordered bin of a single mode."""

    mode: str
    bin_index: int
    n_requests: int
    n_failed: int
    success_rate: float
    subset_stddev: float
    partial: bool = False
    subset_dropped: int = 0
    request_share: float = 0.0


@dataclass
class ModeTotals:
    requests: int = 0
    failed: int = 0

    @property
    def success_rate(self) -> float | None:
        if self.requests == 0:
            return None
        return (self.requests - self.failed) / self.requests


@dataclass
class CoalitionHistogram:
    mean: float
    stddev: float
    buckets: list[tuple[float, float, int]]


@dataclass
class RunReport:
    bins: list[BinStats]
    totals: dict[str, ModeTotals]
    coalition: CoalitionHistogram
    n_requests: int
    unsatisfied: int
    completed: int
    completed_at_stream_end: int
    in_flight_at_stream_end: int
    seed: int
    preset: str | None
    config: dict
    event_digest: str = ""
    schema_version: str = "1"

    def overall_success_rate(self) -> float | None:
        total = sum(t.requests for t in self.totals.values())
        if total == 0:
            return None
        failed = sum(t.failed for t in self.totals.values())
        return (total - failed) / total


def subset_stddev(outcomes, n_subsets: int) -> float:
    """Population stddev of per-subset success rates.

    The outcomes are split in arrival order into n_subsets equal sets; a
    trailing remainder is dropped. Returns 0.0 when fewer outcomes than
    subsets are available (everything would be remainder).
    """
    if n_subsets <= 0:
        raise ConfigurationError("n_subsets must be >= 1")
    arr = np.asarray(outcomes, dtype=np.float64)
    set_size = arr.size // n_subsets
    if set_size == 0:
        return 0.0
    rates = arr[: set_size * n_subsets].reshape(n_subsets, set_size).mean(axis=1)
    return float(rates.std())


class MetricsSink:
    """Single-writer sink receiving auction outcomes in arrival order."""

    def __init__(self, config: MetricsConfig):
        self.bin_size = config.bin_size
        self.n_subsets = config.n_subsets
        self.bins: list[BinStats] = []
        self.totals: dict[Mode, ModeTotals] = {m: ModeTotals() for m in REQUEST_MODES}
        self._buffers: dict[Mode, list[bool]] = {m: [] for m in REQUEST_MODES}
        self._bin_index: dict[Mode, int] = {m: 0 for m in REQUEST_MODES}
        self._finalized = False

    def record_outcome(self, outcome, mode: Mode) -> None:
        if self._finalized:
            raise ConfigurationError("sink already finalized")
        won = outcome.bid is not None
        totals = self.totals[mode]
        totals.requests += 1
        if not won:
            totals.failed += 1
        buf = self._buffers[mode]
        buf.append(won)
        if len(buf) == self.bin_size:
            self._close_bin(mode, partial=False)

    def _close_bin(self, mode: Mode, partial: bool) -> None:
        buf = self._buffers[mode]
        n = len(buf)
        wins = sum(buf)
        set_size = n // self.n_subsets
        self.bins.append(
            BinStats(
                mode=mode.name,
                bin_index=self._bin_index[mode],
                n_requests=n,
                n_failed=n - wins,
                success_rate=wins / n,
                subset_stddev=subset_stddev(buf, self.n_subsets),
                partial=partial,
                subset_dropped=n - set_size * self.n_subsets,
            )
        )
        self._bin_index[mode] += 1
        self._buffers[mode] = []

    def finalize(self) -> None:
        """Close any open partial bins; the sink stops accepting outcomes."""
        if self._finalized:
            return
        for mode in REQUEST_MODES:
            if self._buffers[mode]:
                self._close_bin(mode, partial=True)
        self._finalized = True


def coalition_histogram(fleet, bucket_count: int = 20) -> CoalitionHistogram:
    """Distribution of how many coalitions each core server ever joined."""
    counts = fleet.coalition_count
    return CoalitionHistogram(
        mean=float(counts.mean()),
        stddev=float(counts.std()),
        buckets=equal_width_histogram(counts, bucket_count),
    )


def build_report(
    sink: MetricsSink,
    fleet,
    stats,
    *,
    config_echo: dict,
    seed: int,
    preset: str | None = None,
    coalition_buckets: int = 20,
) -> RunReport:
    """Assemble the final run report from the sink, fleet and engine stats."""
    sink.finalize()
    total = sum(t.requests for t in sink.totals.values())
    bins = sorted(sink.bins, key=lambda b: (b.mode, b.bin_index))
    for b in bins:
        b.request_share = b.n_requests / total if total else 0.0
    return RunReport(
        bins=bins,
        totals={m.name: sink.totals[m] for m in REQUEST_MODES},
        coalition=coalition_histogram(fleet, coalition_buckets),
        n_requests=stats.n_requests,
        unsatisfied=stats.unsatisfied,
        completed=stats.completed,
        completed_at_stream_end=stats.completed_at_stream_end,
        in_flight_at_stream_end=stats.in_flight_at_stream_end,
        seed=seed,
        preset=preset,
        config=config_echo,
        event_digest=stats.event_digest,
    )


def _fmt(value) -> str:
    """Serialize one CSV cell; floats carry 9 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _round9(obj):
    if isinstance(obj, float):
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


BINS_COLUMNS = (
    "mode",
    "bin_index",
    "n_requests",
    "n_failed",
    "success_rate",
    "subset_stddev",
    "partial",
    "subset_dropped",
    "request_share",
)
COALITIONS_COLUMNS = ("bucket_lo", "bucket_hi", "count")


def emit(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write bins.csv, coalitions.csv and summary.json under out_dir.

    Identical reports produce byte-identical files; all floating-point
    numbers are serialized with 9 significant digits.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        bins_path = out / "bins.csv"
        with open(bins_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(BINS_COLUMNS)
            for b in report.bins:
                w.writerow(
                    _fmt(v)
                    for v in (
                        b.mode, b.bin_index, b.n_requests, b.n_failed,
                        b.success_rate, b.subset_stddev, b.partial,
                        b.subset_dropped, b.request_share,
                    )
                )
        coalitions_path = out / "coalitions.csv"
        with open(coalitions_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(COALITIONS_COLUMNS)
            for lo, hi, count in report.coalition.buckets:
                w.writerow((_fmt(float(lo)), _fmt(float(hi)), count))
        summary_path = out / "summary.json"
        summary = {
            "schema_version": report.schema_version,
            "preset": report.preset,
            "seed": report.seed,
            "n_requests": report.n_requests,
            "unsatisfied": report.unsatisfied,
            "completed": report.completed,
            "completed_at_stream_end": report.completed_at_stream_end,
            "in_flight_at_stream_end": report.in_flight_at_stream_end,
            "overall_success_rate": report.overall_success_rate(),
            "totals": {
                mode: {
                    "requests": t.requests,
                    "failed": t.failed,
                    "success_rate": t.success_rate,
                }
                for mode, t in report.totals.items()
            },
            "coalitions": {
                "mean": report.coalition.mean,
                "stddev": report.coalition.stddev,
            },
            "event_digest": report.event_digest,
            "config": report.config,
        }
        with open(summary_path, "w", newline="") as f:
            json.dump(_round9(summary), f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing report under {out}: {exc}") from exc
    return {"bins": bins_path, "coalitions": coalitions_path, "summary": summary_path}
