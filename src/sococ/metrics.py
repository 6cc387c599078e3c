"""Run statistics: binned success rates, dispersion, coalition histograms,
and the CSV/JSON report files.

The sink is the one record of auction outcomes: a won flag per request,
kept per request mode in arrival order. Everything the report says about
outcomes is derived from it at report time: per-mode totals, request and
failure counts, and the bins. Each mode's flags are cut into bins of a fixed
size plus one partial tail, and each bin also records the standard deviation
of the success rate across equal arrival-ordered subsets, mirroring how
dispersion is reported for the large experiments.

The record costs one byte per request: 20 KB for 2x10^4 requests, about
50 MB for the 5x10^7 requests of the published presets.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, fields
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


@dataclass(frozen=True)
class BinStats:
    """Success statistics of one arrival-ordered bin of a single mode.

    The field order is the column order of bins.csv.
    """

    mode: str
    bin_index: int
    n_requests: int
    n_failed: int
    success_rate: float
    subset_stddev: float
    partial: bool
    subset_dropped: int
    request_share: float


@dataclass(frozen=True)
class ModeTotals:
    requests: int
    failed: int

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
    completed: int
    completed_at_stream_end: int
    in_flight_at_stream_end: int
    seed: int
    preset: str
    config: dict
    event_digest: str = ""
    schema_version: str = "1"

    @property
    def n_requests(self) -> int:
        return sum(t.requests for t in self.totals.values())

    @property
    def unsatisfied(self) -> int:
        return sum(t.failed for t in self.totals.values())

    def overall_success_rate(self) -> float | None:
        total = self.n_requests
        if total == 0:
            return None
        return (total - self.unsatisfied) / total


def subset_stddev(outcomes, n_subsets: int) -> float:
    """Population stddev of per-subset success rates.

    The outcomes are split in arrival order into n_subsets equal sets; a
    trailing remainder is dropped. Returns 0.0 when fewer outcomes than
    subsets are available (everything would be remainder). `n_subsets` is
    positive, as `MetricsConfig` checks.
    """
    arr = np.asarray(outcomes, dtype=np.float64)
    set_size = arr.size // n_subsets
    if set_size == 0:
        return 0.0
    rates = arr[: set_size * n_subsets].reshape(n_subsets, set_size).mean(axis=1)
    return float(rates.std())


class MetricsSink:
    """Single-writer record of auction outcomes: one won flag per request,
    per request mode, in arrival order."""

    def __init__(self, config: MetricsConfig):
        self.config = config
        self.won: dict[Mode, bytearray] = {m: bytearray() for m in REQUEST_MODES}

    def record_outcome(self, outcome, mode: Mode) -> None:
        self.won[mode].append(outcome.bid is not None)


def coalition_histogram(fleet, bucket_count: int) -> CoalitionHistogram:
    """Distribution of how many coalitions each core server ever joined."""
    counts = fleet.coalition_count
    return CoalitionHistogram(
        mean=float(counts.mean()),
        stddev=float(counts.std()),
        buckets=equal_width_histogram(counts, bucket_count),
    )


def _mode_bins(mode: Mode, won: bytearray, config: MetricsConfig, total: int) -> list[BinStats]:
    """One mode's flags cut into full bins of `config.bin_size`, then the
    partial tail, if any."""
    flags = np.frombuffer(won, dtype=np.uint8)
    bins = []
    for index, start in enumerate(range(0, flags.size, config.bin_size)):
        chunk = flags[start:start + config.bin_size]
        n = chunk.size
        wins = int(chunk.sum())
        bins.append(BinStats(
            mode=mode.name,
            bin_index=index,
            n_requests=n,
            n_failed=n - wins,
            success_rate=wins / n,
            subset_stddev=subset_stddev(chunk, config.n_subsets),
            partial=n < config.bin_size,
            subset_dropped=n % config.n_subsets,
            request_share=n / total,
        ))
    return bins


def build_report(
    sink: MetricsSink,
    fleet,
    stats,
    *,
    config_echo: dict,
    seed: int,
    preset: str,
) -> RunReport:
    """Derive the run report from the sink's outcome record, the fleet and
    the engine stats."""
    config = sink.config
    total = sum(len(won) for won in sink.won.values())
    return RunReport(
        bins=[b for mode, won in sink.won.items()
              for b in _mode_bins(mode, won, config, total)],
        totals={mode.name: ModeTotals(len(won), len(won) - won.count(1))
                for mode, won in sink.won.items()},
        coalition=coalition_histogram(fleet, config.coalition_buckets),
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


HISTOGRAM_COLUMNS = ("bucket_lo", "bucket_hi", "count")


def write_csv(path: Path, columns, rows) -> None:
    """Write a header of `columns`, then `rows`, every cell through `_fmt`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows([_fmt(v) for v in row] for row in rows)


def emit(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write bins.csv, coalitions.csv and summary.json under out_dir.

    Identical reports produce byte-identical files; all floating-point
    numbers are serialized with 9 significant digits.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        bins_path = out / "bins.csv"
        write_csv(bins_path, [column.name for column in fields(BinStats)],
                  map(astuple, report.bins))
        coalitions_path = out / "coalitions.csv"
        write_csv(coalitions_path, HISTOGRAM_COLUMNS, report.coalition.buckets)
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
