"""Experiment presets, config-file loading and the end-to-end run driver.

Presets exp1..exp6 reproduce the published experiment parameters at full
scale; exp1..exp4 are guarded because they need hours. The C2 presets
exp1..exp3 keep the first 64 of each core's 500 primary contacts, a 2 GiB
int32 matrix in place of the whole 15.6 GiB one (`topology._KEPT_CONTACTS`):
exp3 cut to 2x10^4 requests peaked at 3.1 GiB on a 2-CPU host, 11.8 s of
its 15.7 s in `organize`. C1 presets draw no primary contacts: exp4 cut to
10^4 requests peaked at 1.1 GiB. The -desk variants reproduce the same
regimes at workstation scale, with every deviation recorded in the
preset's scale_note.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import engine as engine_mod
from .engine import EngineConfig, init_servers
from .errors import ConfigurationError
from .market import MarketConfig
from .metrics import MetricsConfig, MetricsSink, RunReport, build_report, emit
from .topology import TopologyConfig, organize
from .workload import DistributionSpec, WorkloadConfig, generate_stream

log = logging.getLogger("sococ")

# Presets above these sizes refuse to run without --allow-huge.
HUGE_CORE_LIMIT = 200_000
HUGE_REQUEST_LIMIT = 2_000_000

THIRD = 1.0 / 3.0

# Desk-scale presets shrink the known-core (pcs) lists by orders of
# magnitude, so the published 0.1% invitation fraction would invite only 1-2
# leader candidates and change the auction regime. The desk fraction holds
# the invited-candidate count in each experiment's original regime instead:
# ~60 candidates for the light-load presets (pcs ~ 2000, election never
# fails, as at full scale) and 3-4 for the heavy-load presets (pcs ~ 100),
# which lands the success rate in the published heavy-load band.
DESK_FRACTION = 0.03


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    topology: TopologyConfig
    engine: EngineConfig
    workload: WorkloadConfig
    market: MarketConfig
    metrics: MetricsConfig
    scale_note: str = ""


def _workload_of(interarrival_mean, service, workload_hi, n_requests):
    return WorkloadConfig(
        interarrival=DistributionSpec("exponential", interarrival_mean),
        service=service,
        workload_range=(0.1, workload_hi),
        mode_probabilities=(THIRD, THIRD, THIRD),
        n_requests=n_requests,
    )


def _build_presets() -> dict[str, ExperimentPreset]:
    presets: dict[str, ExperimentPreset] = {}

    full_scale_topo = TopologyConfig(
        n_core=8_388_608, n_periphery=1000, n_aux=10,
        primary_contacts_per_core=500, periphery_per_core=10,
    )
    light_engine = EngineConfig(
        initial_state_mix=(0.2, 0.4, 0.15, 0.25), initial_load_range=(0.3, 0.8)
    )
    heavy_engine = EngineConfig(
        initial_state_mix=(0.0, THIRD, THIRD, THIRD), initial_load_range=(0.5, 0.8)
    )
    exp_service = DistributionSpec("exponential", 1.2)
    pareto_service = DistributionSpec("pareto", 2.0, 1.0)
    full_scale_metrics = MetricsConfig(bin_size=1_000_000, n_subsets=1_000)

    presets["exp1"] = ExperimentPreset(
        name="exp1",
        topology=full_scale_topo,
        engine=light_engine,
        workload=_workload_of(1.5, exp_service, 8.0, 50_000_000),
        market=MarketConfig("C2", 0.001, False),
        metrics=full_scale_metrics,
        scale_note="full published scale; needs --allow-huge",
    )
    presets["exp2"] = replace(
        presets["exp1"],
        name="exp2",
        workload=_workload_of(1.5, exp_service, 40.0, 50_000_000),
        market=MarketConfig("C2", 0.001, True),
    )
    presets["exp3"] = ExperimentPreset(
        name="exp3",
        topology=full_scale_topo,
        engine=heavy_engine,
        workload=_workload_of(1.0, pareto_service, 40.0, 50_000_000),
        market=MarketConfig("C2", 0.001, True),
        metrics=full_scale_metrics,
        scale_note=(
            "full published scale; needs --allow-huge. Secondary contacts "
            "enabled: the experiment text says primary-only but the reported "
            "results are explained by leaders falling back to secondary "
            "contacts, so the preset follows the explanation."
        ),
    )
    presets["exp4"] = replace(
        presets["exp3"],
        name="exp4",
        market=MarketConfig("C1", 0.001, True),
        scale_note="full published scale; needs --allow-huge. Periphery-initiated (C1).",
    )

    small_topo = TopologyConfig(
        n_core=100, n_periphery=2, n_aux=2,
        primary_contacts_per_core=10, periphery_per_core=2,
    )
    small_engine = EngineConfig(
        initial_state_mix=(0.2, 0.4, 0.15, 0.25), initial_load_range=(0.7, 0.9)
    )
    small_metrics = MetricsConfig(bin_size=20, n_subsets=10)
    presets["exp5"] = ExperimentPreset(
        name="exp5",
        topology=small_topo,
        engine=small_engine,
        workload=_workload_of(1.5, exp_service, 8.0, 1000),
        market=MarketConfig("C1", 0.001, False),
        metrics=small_metrics,
        scale_note=(
            "published scale (N=100, M=2, 10^3 requests). Unpublished "
            "details filled in: state mix reused from exp1, m=2 (every core "
            "knows both periphery servers), n=10, bins of 20 with 10 subsets."
        ),
    )
    presets["exp6"] = replace(
        presets["exp5"],
        name="exp6",
        workload=_workload_of(1.5, exp_service, 40.0, 1000),
        market=MarketConfig("C1", 0.001, True),
        scale_note=(
            presets["exp5"].scale_note
            + " use_secondary is set per the experiment description but is "
            "inert: C1 coalitions never traverse contact lists."
        ),
    )

    desk_topo = TopologyConfig(
        n_core=10_000, n_periphery=50, n_aux=10,
        primary_contacts_per_core=100, periphery_per_core=10,
    )
    desk_metrics = MetricsConfig(bin_size=2_000, n_subsets=100)
    desk_note_light = (
        "desk scale: N=10,000, M=50, n=100, m=10, 10^5 requests, bins of "
        "2,000 with 100 subsets; leader-candidate fraction raised to 0.03 "
        "so ~60 candidates are invited (pcs ~ 2,000), matching the "
        "always-finds-a-leader regime of the full-scale run."
    )
    presets["exp1-desk"] = ExperimentPreset(
        name="exp1-desk",
        topology=desk_topo,
        engine=light_engine,
        workload=_workload_of(1.5, exp_service, 8.0, 100_000),
        market=MarketConfig("C2", DESK_FRACTION, False),
        metrics=desk_metrics,
        scale_note=desk_note_light,
    )
    presets["exp2-desk"] = replace(
        presets["exp1-desk"],
        name="exp2-desk",
        workload=_workload_of(1.5, exp_service, 40.0, 100_000),
        market=MarketConfig("C2", DESK_FRACTION, True),
        scale_note=desk_note_light,
    )

    heavy_desk_topo = TopologyConfig(
        n_core=10_000, n_periphery=1000, n_aux=10,
        primary_contacts_per_core=100, periphery_per_core=10,
    )
    desk_note_heavy = (
        "desk scale: N=10,000 with the published periphery dimensions "
        "(M=1,000, m=10), n=100, 10^5 requests, bins of 2,000 with 100 "
        "subsets, fraction 0.03; a periphery knows ~100 cores so auctions "
        "invite 3-4 leader candidates, reproducing the published heavy-load "
        "success band through candidate scarcity."
    )
    presets["exp3-desk"] = ExperimentPreset(
        name="exp3-desk",
        topology=heavy_desk_topo,
        engine=heavy_engine,
        workload=_workload_of(1.0, pareto_service, 40.0, 100_000),
        market=MarketConfig("C2", DESK_FRACTION, True),
        metrics=desk_metrics,
        scale_note=desk_note_heavy,
    )
    presets["exp4-desk"] = replace(
        presets["exp3-desk"],
        name="exp4-desk",
        market=MarketConfig("C1", DESK_FRACTION, True),
        scale_note=desk_note_heavy + " Periphery-initiated (C1).",
    )
    return presets


_PRESETS = _build_presets()

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ExperimentPreset:
    """Look up a named experiment preset."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None


def is_huge(p: ExperimentPreset) -> bool:
    return (
        p.topology.n_core > HUGE_CORE_LIMIT
        or p.workload.n_requests > HUGE_REQUEST_LIMIT
    )


def derive_seeds(seed: int) -> tuple[int, int, int, int]:
    """Derive independent (topology, engine, workload, market) sub-seeds."""
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


# ---------------------------------------------------------------------------
# strict config-file loading
# ---------------------------------------------------------------------------

def _section(d, path: str, required: dict, optional: dict) -> dict:
    """Check that `d` is an object with every `required` key and no key
    outside `required` and `optional`; return {field: converted value} for
    each key it holds. A table maps a JSON key to its converter, or to a
    (field, converter) pair where the dataclass names the field otherwise."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path}: expected an object, got {d!r}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigurationError(f"{path}: missing keys {missing}")
    fields = {}
    for key, spec in {**required, **optional}.items():
        if key in d:
            field, convert = spec if isinstance(spec, tuple) else (key, spec)
            try:
                fields[field] = convert(d[key])
            except ConfigurationError:
                raise  # a nested object names its own path
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(
                    f"{path}.{key}: invalid value {d[key]!r}: {exc}") from None
    return fields


def _build(cls, path: str, *args, **fields):
    """cls(*args, **fields), with a validation failure reported at `path`."""
    try:
        return cls(*args, **fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _object(cls, path: str, required: dict, optional: dict):
    """The converter of the object at `path` into a cls."""
    return lambda d: _build(cls, path, **_section(d, path, required, optional))


def _typed(types: tuple, message: str):
    """The converter that passes a value of `types` and rejects any other;
    true and false pass only as a bool, never as an int."""
    def convert(value):
        if not isinstance(value, types) or isinstance(value, bool) != (bool in types):
            raise TypeError(message)
        return value
    return convert


_bool = _typed((bool,), "expected true or false")
_int = _typed((int,), "expected an integer")
_str = _typed((str,), "expected a string")
_number = _typed((int, float), "expected a number")


def _float(value) -> float:
    # json reads NaN and Infinity, which pass every range check
    if not math.isfinite(_number(value)):
        raise ValueError("expected a finite number")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError("expected a list of numbers")
    return tuple(_float(v) for v in values)


def _pair(value) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("expected [lo, hi]")
    return _floats(value)


# the parameters of each distribution kind, in DistributionSpec's order
_DIST_PARAMS = {"exponential": ("mean",), "pareto": ("alpha", "scale"), "uniform": ("low", "high")}


def _dist(path: str):
    """The converter of the distribution object at `path`."""
    def convert(d) -> DistributionSpec:
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigurationError(f"{path}: expected an object with a 'kind'")
        kind = d["kind"]
        if not isinstance(kind, str) or kind not in _DIST_PARAMS:
            raise ConfigurationError(f"{path}.kind: unknown distribution {kind!r}")
        params = _section(d, path, {"kind": _str, **dict.fromkeys(_DIST_PARAMS[kind], _float)}, {})
        return _build(DistributionSpec, path, *params.values())
    return convert


def load_config(path: str | Path) -> ExperimentPreset:
    """Load a run configuration from a strict-schema JSON file. Unknown keys
    anywhere are errors, and every error names its field path."""
    path = Path(path)
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    # the market section also holds keys that parameterize fleet
    # initialization; the engine, converted after the market, takes them
    fleet_keys, fleet = {"cost_range": _pair}, {}

    def market(m) -> MarketConfig:
        fields = _section(m, "market", {"initiation": lambda value: value}, {
            "invited_fraction": _float, "use_secondary": ("use_secondary_contacts", _bool),
            **fleet_keys})
        fleet.update((key, fields.pop(key)) for key in fleet_keys if key in fields)
        return _build(MarketConfig, "market", **fields)

    def engine(e) -> EngineConfig:
        return _build(EngineConfig, "engine", **fleet, **_section(e, "engine", {}, {
            "capacity_scu": _float, "initial_state_mix": _floats, "initial_load_range": _pair}))

    sections = _section(raw, "config", {
        "topology": _object(TopologyConfig, "topology", {
            "n_core": _int, "n_periphery": _int,
            "primary_contacts_per_core": _int, "periphery_per_core": _int}, {"n_aux": _int}),
        "workload": _object(WorkloadConfig, "workload", {
            "interarrival": _dist("workload.interarrival"),
            "service": _dist("workload.service"),
            "workload_scu": ("workload_range", _pair),
            "mode_probs": ("mode_probabilities", _floats),
            "n_requests": _int}, {}),
        "market": market, "engine": engine,
    }, {"metrics": _object(MetricsConfig, "metrics", {}, {
        "bin_size": _int, "n_subsets": _int, "coalition_buckets": _int}), "name": _str})
    return ExperimentPreset(**{"name": path.stem, "metrics": MetricsConfig(), **sections},
                            scale_note="loaded from config file")


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def run_experiment(
    preset_or_name: ExperimentPreset | str,
    seed: int,
    out_dir: str | Path | None = None,
    *,
    bin_size: int | None = None,
    n_subsets: int | None = None,
    allow_huge: bool = False,
) -> RunReport:
    """organize -> init_servers -> generate_stream -> run -> emit.

    The run seed is split into independent sub-seeds for the topology draw,
    fleet initialization, the request stream and the auction lottery, all
    echoed into summary.json.
    """
    p = preset(preset_or_name) if isinstance(preset_or_name, str) else preset_or_name
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    if is_huge(p) and not allow_huge:
        raise ConfigurationError(
            f"preset {p.name!r} is full published scale "
            f"(N={p.topology.n_core:,}, {p.workload.n_requests:,} requests); "
            "pass --allow-huge to run it anyway"
        )
    seeds = derive_seeds(seed)
    if bin_size is not None:
        p = replace(p, metrics=replace(p.metrics, bin_size=bin_size))
    if n_subsets is not None:
        p = replace(p, metrics=replace(p.metrics, n_subsets=n_subsets))

    t0 = time.perf_counter()
    # C1 never reads primary contacts. Their draw is organize's last, so
    # skipping it leaves every other draw, and the config echo, as they are.
    topo = organize(p.topology if p.market.initiation == "C2"
                    else replace(p.topology, primary_contacts_per_core=0), seeds[0])
    t1 = time.perf_counter()
    log.info("%s: organized %d cores / %d periphery in %.2fs",
             p.name, topo.n_core, topo.n_periphery, t1 - t0)

    fleet = init_servers(topo, p.engine, seeds[1])
    stream = generate_stream(p.workload, topo.n_periphery, seeds[2])
    sink = MetricsSink(p.metrics)
    market_rng = np.random.default_rng(seeds[3])
    stats = engine_mod.run(topo, fleet, stream, p.market, sink, market_rng)
    t2 = time.perf_counter()

    # the config echo is the preset as it ran, with the seeds it ran on
    report = build_report(
        sink, fleet, stats,
        config_echo={**asdict(p), "seed": seed, "derived_seeds": seeds},
        seed=seed, preset=p.name,
    )
    log.info("%s: %d requests (%d won, %d unsatisfied) in %.2fs", p.name, report.n_requests,
             report.n_requests - report.unsatisfied, report.unsatisfied, t2 - t1)
    if out_dir is not None:
        emit(report, out_dir)
        log.info("%s: report written to %s (emit %.2fs)",
                 p.name, out_dir, time.perf_counter() - t2)
    return report


def sweep(
    preset_or_name: ExperimentPreset | str,
    n_seeds: int,
    first_seed: int,
    out_dir: str | Path,
    **kwargs,
) -> list[RunReport]:
    """Run the same preset across consecutive seeds, one subdirectory each."""
    if n_seeds < 1:
        raise ConfigurationError("n_seeds must be >= 1")
    out = Path(out_dir)
    reports = []
    for seed in range(first_seed, first_seed + n_seeds):
        reports.append(
            run_experiment(preset_or_name, seed, out / f"seed-{seed}", **kwargs)
        )
    return reports
