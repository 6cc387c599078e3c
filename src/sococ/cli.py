"""Command-line entry point: sococ organize|run|sweep|presets."""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError
from .harness import PRESET_NAMES, load_config, preset, run_experiment, sweep
from .metrics import _fmt
from .topology import TopologyConfig, compute_stats, organize, secondary_histogram

# Exact secondary-contact statistics above this fleet size would take too
# long; a uniform core sample is measured instead.
EXACT_STATS_LIMIT = 100_000
DEFAULT_STATS_SAMPLE = 1_000


def _default_out() -> str:
    return os.environ.get("SOCOC_OUT", ".")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES, help="named experiment preset")
    src.add_argument("--config", help="path to a run-config JSON file")
    p.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    p.add_argument("--out", default=None, help="output directory (default $SOCOC_OUT or .)")
    p.add_argument("--bin-size", type=int, default=None, help="override the metrics bin size")
    p.add_argument("--n-subsets", type=int, default=None,
                   help="override the per-bin subset count")
    p.add_argument("--allow-huge", action="store_true",
                   help="permit full published-scale presets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sococ",
        description="Auction-driven self-organizing cloud simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    org = sub.add_parser("organize", help="build a contact topology and emit its statistics")
    org.add_argument("--n-core", type=int, required=True)
    org.add_argument("--n-periphery", type=int, required=True)
    org.add_argument("--m", type=int, required=True,
                     help="periphery servers known to each core")
    org.add_argument("--n-contacts", type=int, required=True,
                     help="primary contacts per core")
    org.add_argument("--n-aux", type=int, default=0)
    org.add_argument("--seed", type=int, default=1)
    org.add_argument("--stats-sample", type=int, default=None,
                     help="cores sampled for secondary-contact statistics "
                          "(default: exact up to 100,000 cores, else 1,000)")
    org.add_argument("--out", default=None)

    run = sub.add_parser("run", help="run one experiment")
    _add_run_flags(run)

    swp = sub.add_parser("sweep", help="run one preset across several seeds")
    _add_run_flags(swp)
    swp.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")

    sub.add_parser("presets", help="list the available presets")
    return parser


def _cmd_organize(args: argparse.Namespace) -> int:
    config = TopologyConfig(
        n_core=args.n_core,
        n_periphery=args.n_periphery,
        n_aux=args.n_aux,
        primary_contacts_per_core=args.n_contacts,
        periphery_per_core=args.m,
        seed=args.seed,
    )
    topo = organize(config)
    sample = args.stats_sample
    if sample is None:
        sample = config.n_core if config.n_core <= EXACT_STATS_LIMIT \
            else min(DEFAULT_STATS_SAMPLE, config.n_core)
    stats = compute_stats(topo, sample, np.random.default_rng(config.seed))

    out = Path(args.out or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        ("n_core", config.n_core),
        ("n_periphery", config.n_periphery),
        ("m", config.periphery_per_core),
        ("n_contacts", config.primary_contacts_per_core),
        ("seed", config.seed),
        ("pcs_mean", stats.pcs_mean),
        ("pcs_min", int(stats.pcs_sizes.min())),
        ("pcs_max", int(stats.pcs_sizes.max())),
        ("secondary_sample_size", stats.sample_size),
        ("secondary_exact", int(stats.exact)),
        ("secondary_min", stats.secondary_min),
        ("secondary_max", stats.secondary_max),
        ("secondary_mean", stats.secondary_mean),
    ]
    with open(out / "topology_stats.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("metric", "value"))
        for name, value in rows:
            w.writerow((name, _fmt(float(value) if isinstance(value, float) else value)))
    with open(out / "secondary_histogram.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("bucket_lo", "bucket_hi", "count"))
        for lo, hi, count in secondary_histogram(stats, 20):
            w.writerow((_fmt(float(lo)), _fmt(float(hi)), count))
    print(f"pcs_mean={stats.pcs_mean:.9g} secondary_mean={stats.secondary_mean:.9g} "
          f"(sample={stats.sample_size}, exact={stats.exact})")
    return 0


def _resolve_preset(args: argparse.Namespace):
    if args.preset:
        return preset(args.preset)
    return load_config(args.config)


def _cmd_run(args: argparse.Namespace) -> int:
    p = _resolve_preset(args)
    out = Path(args.out or _default_out())
    report = run_experiment(
        p, args.seed, out,
        bin_size=args.bin_size, n_subsets=args.n_subsets,
        allow_huge=args.allow_huge,
    )
    rate = report.overall_success_rate()
    print(f"{p.name}: {report.n_requests} requests, "
          f"success rate {'n/a' if rate is None else f'{rate:.4%}'}, "
          f"{report.unsatisfied} unsatisfied -> {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    p = _resolve_preset(args)
    out = Path(args.out or _default_out())
    reports = sweep(
        p, args.seeds, args.seed, out,
        bin_size=args.bin_size, n_subsets=args.n_subsets,
        allow_huge=args.allow_huge,
    )
    for seed, report in zip(range(args.seed, args.seed + args.seeds), reports):
        rate = report.overall_success_rate()
        print(f"{p.name} seed {seed}: "
              f"success rate {'n/a' if rate is None else f'{rate:.4%}'}")
    return 0


def _cmd_presets() -> int:
    for name in PRESET_NAMES:
        p = preset(name)
        print(f"{name}: N={p.topology.n_core:,} M={p.topology.n_periphery} "
              f"n={p.topology.primary_contacts_per_core} m={p.topology.periphery_per_core} "
              f"{p.market.initiation} requests={p.workload.n_requests:,}")
        print(f"    {p.scale_note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "organize":
            return _cmd_organize(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_presets()
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
