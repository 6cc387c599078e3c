"""Preset integrity, config loading, the run driver and the CLI."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sococ import cli
from sococ.cli import main
from sococ.engine import EngineConfig
from sococ.errors import ConfigurationError
from sococ.harness import (
    PRESET_NAMES,
    ExperimentPreset,
    derive_seeds,
    is_huge,
    load_config,
    preset,
    run_experiment,
    sweep,
)
from sococ.market import MarketConfig
from sococ.metrics import MetricsConfig
from sococ.topology import TopologyConfig, organize
from sococ.workload import DistributionSpec, Mode, WorkloadConfig


# -- presets ---------------------------------------------------------------------

def test_every_preset_validates_and_is_named():
    assert set(PRESET_NAMES) == {
        "exp1", "exp2", "exp3", "exp4", "exp5", "exp6",
        "exp1-desk", "exp2-desk", "exp3-desk", "exp4-desk",
    }
    for name in PRESET_NAMES:
        p = preset(name)
        assert p.name == name
        # constructing the dataclasses runs all config validation


def test_published_parameters_survive_in_presets():
    assert preset("exp5").topology.n_core == 100
    assert preset("exp5").topology.n_periphery == 2
    assert preset("exp5").workload.n_requests == 1000
    assert preset("exp5").engine.initial_load_range == (0.7, 0.9)
    assert preset("exp3").workload.service.kind == "pareto"
    assert preset("exp3").workload.service.param1 == 2.0
    assert preset("exp1").topology.n_core == 8_388_608
    assert preset("exp1").topology.primary_contacts_per_core == 500
    assert preset("exp1").workload.interarrival.param1 == 1.5
    assert preset("exp1").workload.workload_range == (0.1, 8.0)
    assert preset("exp2").workload.workload_range == (0.1, 40.0)
    assert preset("exp2").market.use_secondary_contacts
    assert preset("exp4").market.initiation == "C1"
    assert preset("exp1").engine.initial_state_mix == (0.2, 0.4, 0.15, 0.25)


def test_desk_preset_shape():
    p = preset("exp1-desk")
    assert p.topology.n_core == 10_000
    assert p.topology.n_periphery == 50
    assert p.topology.primary_contacts_per_core == 100
    assert p.topology.periphery_per_core == 10
    assert p.workload.n_requests == 100_000
    assert p.metrics.bin_size == 2_000
    assert p.scale_note  # deviations from full scale are recorded


def test_unknown_preset_lists_available_names():
    with pytest.raises(ConfigurationError) as err:
        preset("exp9")
    assert "exp1-desk" in str(err.value)


def test_huge_guard_flags_only_full_scale_presets():
    assert is_huge(preset("exp1"))
    assert is_huge(preset("exp4"))
    assert not is_huge(preset("exp5"))
    assert not is_huge(preset("exp3-desk"))
    with pytest.raises(ConfigurationError):
        run_experiment("exp1", 1, allow_huge=False)


def test_derived_seeds_are_stable_and_distinct():
    a = derive_seeds(42)
    assert a == derive_seeds(42)
    assert len(set(a)) == 4
    assert a != derive_seeds(43)


# -- config files ------------------------------------------------------------------

CONFIG = {
    "topology": {
        "n_core": 500, "n_periphery": 10, "n_aux": 1,
        "primary_contacts_per_core": 20, "periphery_per_core": 3,
    },
    "workload": {
        "interarrival": {"kind": "exponential", "mean": 1.5},
        "service": {"kind": "pareto", "alpha": 2.0, "scale": 1.0},
        "workload_scu": [0.1, 40.0],
        "mode_probs": [0.3333, 0.3333, 0.3334],
        "n_requests": 1000,
    },
    "market": {
        "initiation": "C2", "invited_fraction": 0.01,
        "use_secondary": True, "cost_range": [1.0, 10.0],
    },
    "engine": {
        "capacity_scu": 10.0,
        "initial_state_mix": [0.2, 0.4, 0.15, 0.25],
        "initial_load_range": [0.3, 0.8],
    },
    "metrics": {"bin_size": 100, "n_subsets": 10},
}


def write_config(tmp_path, mutate=None, name="run.json"):
    raw = json.loads(json.dumps(CONFIG))
    if mutate:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_config_file_round_trip(tmp_path):
    p = load_config(write_config(tmp_path))
    assert p.topology.n_core == 500
    assert p.workload.service.kind == "pareto"
    assert p.market.use_secondary_contacts
    assert p.engine.cost_range == (1.0, 10.0)
    assert p.metrics.bin_size == 100
    assert p.name == "run"


def test_config_omitting_optional_keys_loads_dataclass_defaults(tmp_path):
    def strip(raw):
        del raw["topology"]["n_aux"]
        raw["market"] = {"initiation": "C2"}
        raw["engine"] = {}
        del raw["metrics"]

    p = load_config(write_config(tmp_path, strip))
    assert p.topology == TopologyConfig(n_core=500, n_periphery=10,
                                        primary_contacts_per_core=20,
                                        periphery_per_core=3)
    assert p.market == MarketConfig("C2")
    assert p.engine == EngineConfig()
    assert p.metrics == MetricsConfig()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Run configuration files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "readme.json"
    path.write_text(block)
    p = load_config(path)
    assert isinstance(p, ExperimentPreset)
    assert p.market.invited_fraction == 0.001


def test_readme_layout_lists_every_module():
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    listed = set(re.findall(r"^src/sococ/(\w+\.py) ", block, re.MULTILINE))
    modules = {path.name for path in (root / "src" / "sococ").glob("*.py")} - {"__init__.py"}
    assert listed == modules


def set_at(*keys, value):
    def mutate(raw):
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return raw
    return mutate


def drop_at(*keys):
    def mutate(raw):
        node = raw
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return raw
    return mutate


# CONFIG as load_config reads it from run.json
LOADED = ExperimentPreset(
    name="run",
    topology=TopologyConfig(n_core=500, n_periphery=10, n_aux=1,
                            primary_contacts_per_core=20, periphery_per_core=3),
    engine=EngineConfig(10.0, (0.2, 0.4, 0.15, 0.25), (0.3, 0.8), (1.0, 10.0)),
    workload=WorkloadConfig(
        interarrival=DistributionSpec("exponential", 1.5),
        service=DistributionSpec("pareto", 2.0, 1.0),
        workload_range=(0.1, 40.0),
        mode_probabilities=(0.3333, 0.3333, 0.3334),
        n_requests=1000,
    ),
    market=MarketConfig("C2", 0.01, True),
    metrics=MetricsConfig(bin_size=100, n_subsets=10),
    scale_note="loaded from config file",
)


def loaded_with(**sections):
    """LOADED with some fields of its sections replaced:
    loaded_with(topology={"n_aux": 0})."""
    return replace(LOADED, **{
        section: replace(getattr(LOADED, section), **fields) if isinstance(fields, dict)
        else fields
        for section, fields in sections.items()
    })


# One mutation of CONFIG each, with the exact message of the rejected file or
# the preset of the accepted one: the loader's output, whatever its code.
LOADER_CASES = [
    # the root
    ("root-list", lambda raw: [], "config root must be a JSON object"),
    ("root-unknown", set_at("seed", value=1), "config: unknown keys ['seed']"),
    ("root-missing-topology", drop_at("topology"), "config: missing keys ['topology']"),
    ("root-missing-workload", drop_at("workload"), "config: missing keys ['workload']"),
    ("root-missing-market", drop_at("market"), "config: missing keys ['market']"),
    ("root-missing-engine", drop_at("engine"), "config: missing keys ['engine']"),
    ("root-name-int", set_at("name", value=5), "config.name: invalid value 5: expected a string"),
    ("root-name", set_at("name", value="custom"), loaded_with(name="custom")),
    ("root-no-metrics", drop_at("metrics"), loaded_with(metrics=MetricsConfig())),
    # sections that are not objects
    ("topology-int", set_at("topology", value=5), "topology: expected an object, got 5"),
    ("workload-list", set_at("workload", value=[]), "workload: expected an object, got []"),
    ("market-str", set_at("market", value="C2"), "market: expected an object, got 'C2'"),
    ("market-int", set_at("market", value=5), "market: expected an object, got 5"),
    ("engine-null", set_at("engine", value=None), "engine: expected an object, got None"),
    ("metrics-list", set_at("metrics", value=[["bin_size", 100]]),
     "metrics: expected an object, got [['bin_size', 100]]"),
    # topology
    ("topology-unknown", set_at("topology", "n_contacts", value=5),
     "topology: unknown keys ['n_contacts']"),
    ("topology-missing", drop_at("topology", "n_core"), "topology: missing keys ['n_core']"),
    ("topology-n_core-str", set_at("topology", "n_core", value="500"),
     "topology.n_core: invalid value '500': expected an integer"),
    ("topology-n_core-word", set_at("topology", "n_core", value="many"),
     "topology.n_core: invalid value 'many': expected an integer"),
    ("topology-n_core-frac", set_at("topology", "n_core", value=500.7),
     "topology.n_core: invalid value 500.7: expected an integer"),
    ("topology-n_core-bool", set_at("topology", "n_core", value=True),
     "topology.n_core: invalid value True: expected an integer"),
    ("topology-n_core-zero", set_at("topology", "n_core", value=0),
     "topology: n_core must be >= 1"),
    ("topology-n_aux-negative", set_at("topology", "n_aux", value=-1),
     "topology: n_aux must be >= 0"),
    ("topology-m-above-M", set_at("topology", "periphery_per_core", value=11),
     "topology: periphery_per_core must be in [1, n_periphery] (got m=11, M=10)"),
    ("topology-n-above-N", set_at("topology", "primary_contacts_per_core", value=500),
     "topology: primary_contacts_per_core must be in [0, n_core - 1] (got n=500, N=500)"),
    ("topology-no-n_aux", drop_at("topology", "n_aux"), loaded_with(topology={"n_aux": 0})),
    # workload
    ("workload-unknown", set_at("workload", "burstiness", value=2),
     "workload: unknown keys ['burstiness']"),
    ("workload-missing", drop_at("workload", "n_requests"),
     "workload: missing keys ['n_requests']"),
    ("workload-scu-scalar", set_at("workload", "workload_scu", value=40.0),
     "workload.workload_scu: invalid value 40.0: expected [lo, hi]"),
    ("workload-scu-short", set_at("workload", "workload_scu", value=[0.1]),
     "workload.workload_scu: invalid value [0.1]: expected [lo, hi]"),
    ("workload-scu-str", set_at("workload", "workload_scu", value=["0.1", 40]),
     "workload.workload_scu: invalid value ['0.1', 40]: expected a number"),
    ("workload-scu-zero", set_at("workload", "workload_scu", value=[0, 40]),
     "workload: workload_range must satisfy 0 < lo <= hi"),
    ("workload-scu-reversed", set_at("workload", "workload_scu", value=[40, 0.1]),
     "workload: workload_range must satisfy 0 < lo <= hi"),
    ("workload-probs-scalar", set_at("workload", "mode_probs", value=0.5),
     "workload.mode_probs: invalid value 0.5: expected a list of numbers"),
    ("workload-probs-str", set_at("workload", "mode_probs", value=[0.3333, 0.3333, "0.3334"]),
     "workload.mode_probs: invalid value [0.3333, 0.3333, '0.3334']: expected a number"),
    ("workload-probs-two", set_at("workload", "mode_probs", value=[0.5, 0.5]),
     "workload: mode_probabilities must be three non-negative values"),
    ("workload-probs-sum", set_at("workload", "mode_probs", value=[0.5, 0.5, 0.5]),
     "workload: mode_probabilities must sum to 1"),
    ("workload-n_requests-null", set_at("workload", "n_requests", value=None),
     "workload.n_requests: invalid value None: expected an integer"),
    ("workload-n_requests-bool", set_at("workload", "n_requests", value=True),
     "workload.n_requests: invalid value True: expected an integer"),
    ("workload-n_requests-zero", set_at("workload", "n_requests", value=0),
     "workload: n_requests must be >= 1"),
    ("workload-n_requests-big", set_at("workload", "n_requests", value=10**7),
     loaded_with(workload={"n_requests": 10**7})),
    # distributions
    ("dist-int", set_at("workload", "interarrival", value=5),
     "workload.interarrival: expected an object with a 'kind'"),
    ("dist-no-kind", drop_at("workload", "interarrival", "kind"),
     "workload.interarrival: expected an object with a 'kind'"),
    ("dist-kind-unknown", set_at("workload", "interarrival", "kind", value="gamma"),
     "workload.interarrival.kind: unknown distribution 'gamma'"),
    ("dist-kind-int", set_at("workload", "interarrival", "kind", value=5),
     "workload.interarrival.kind: unknown distribution 5"),
    ("dist-kind-list", set_at("workload", "interarrival", "kind", value=["exponential"]),
     "workload.interarrival.kind: unknown distribution ['exponential']"),
    ("dist-unknown", set_at("workload", "interarrival", "scale", value=1.0),
     "workload.interarrival: unknown keys ['scale']"),
    ("dist-missing", drop_at("workload", "service", "scale"),
     "workload.service: missing keys ['scale']"),
    ("dist-mean-str", set_at("workload", "interarrival", "mean", value="1.5"),
     "workload.interarrival.mean: invalid value '1.5': expected a number"),
    ("dist-mean-zero", set_at("workload", "interarrival", "mean", value=0),
     "workload.interarrival: exponential mean must be > 0"),
    ("dist-alpha-one", set_at("workload", "service", "alpha", value=1.0),
     "workload.service: pareto shape alpha must be > 1"),
    ("dist-scale-zero", set_at("workload", "service", "scale", value=0),
     "workload.service: pareto scale must be > 0"),
    ("dist-uniform-reversed", set_at("workload", "interarrival",
                                     value={"kind": "uniform", "low": 2, "high": 1}),
     "workload.interarrival: uniform lower bound exceeds upper bound"),
    ("dist-uniform-service-zero", set_at("workload", "service",
                                         value={"kind": "uniform", "low": 0, "high": 1}),
     "workload: uniform service durations must be > 0"),
    ("dist-uniform", set_at("workload", "interarrival",
                            value={"kind": "uniform", "low": 0.5, "high": 1.5}),
     loaded_with(workload={"interarrival": DistributionSpec("uniform", 0.5, 1.5)})),
    # market
    # the two per-protocol fractions became one invited_fraction
    ("market-unknown", set_at("market", "leader_candidate_fraction", value=0.01),
     "market: unknown keys ['leader_candidate_fraction']"),
    ("market-unknown-c1", set_at("market", "invited_fraction_c1", value=0.01),
     "market: unknown keys ['invited_fraction_c1']"),
    ("market-missing", drop_at("market", "initiation"), "market: missing keys ['initiation']"),
    ("market-initiation-C3", set_at("market", "initiation", value="C3"),
     "market: initiation must be 'C1' or 'C2'"),
    ("market-initiation-int", set_at("market", "initiation", value=1),
     "market: initiation must be 'C1' or 'C2'"),
    ("market-fraction-zero", set_at("market", "invited_fraction", value=0),
     "market: invited_fraction must be in (0, 1]"),
    ("market-fraction-big", set_at("market", "invited_fraction", value=1.5),
     "market: invited_fraction must be in (0, 1]"),
    ("market-fraction-bool", set_at("market", "invited_fraction", value=True),
     "market.invited_fraction: invalid value True: expected a number"),
    ("market-secondary-str", set_at("market", "use_secondary", value="false"),
     "market.use_secondary: invalid value 'false': expected true or false"),
    ("market-secondary-int", set_at("market", "use_secondary", value=0),
     "market.use_secondary: invalid value 0: expected true or false"),
    ("market-cost-short", set_at("market", "cost_range", value=[1.0]),
     "market.cost_range: invalid value [1.0]: expected [lo, hi]"),
    ("market-cost-zero", set_at("market", "cost_range", value=[0, 10]),
     "engine: cost_range must satisfy 0 < lo <= hi"),
    ("market-only-initiation", set_at("market", value={"initiation": "C1"}),
     loaded_with(market=MarketConfig("C1"))),
    ("market-cost", set_at("market", "cost_range", value=[2, 3]),
     loaded_with(engine={"cost_range": (2.0, 3.0)})),
    # engine
    ("engine-unknown", set_at("engine", "seed", value=1), "engine: unknown keys ['seed']"),
    ("engine-capacity-str", set_at("engine", "capacity_scu", value="10"),
     "engine.capacity_scu: invalid value '10': expected a number"),
    ("engine-capacity-zero", set_at("engine", "capacity_scu", value=0),
     "engine: capacity_scu must be > 0"),
    ("engine-mix-sum", set_at("engine", "initial_state_mix", value=[0.5, 0.5, 0.5, 0.5]),
     "engine: initial_state_mix must sum to 1"),
    ("engine-mix-three", set_at("engine", "initial_state_mix", value=[0.5, 0.25, 0.25]),
     "engine: initial_state_mix must be four non-negative fractions"),
    ("engine-load-str", set_at("engine", "initial_load_range", value=["low", 0.8]),
     "engine.initial_load_range: invalid value ['low', 0.8]: expected a number"),
    ("engine-load-reversed", set_at("engine", "initial_load_range", value=[0.9, 0.1]),
     "engine: initial_load_range must satisfy 0 <= lo <= hi <= 1"),
    ("engine-capacity-int", set_at("engine", "capacity_scu", value=12),
     loaded_with(engine={"capacity_scu": 12.0})),
    ("engine-empty", set_at("engine", value={}), loaded_with(engine=EngineConfig())),
    # metrics
    ("metrics-unknown", set_at("metrics", "bins", value=5), "metrics: unknown keys ['bins']"),
    ("metrics-bin-float", set_at("metrics", "bin_size", value=100.0),
     "metrics.bin_size: invalid value 100.0: expected an integer"),
    ("metrics-bin-zero", set_at("metrics", "bin_size", value=0), "metrics: bin_size must be >= 1"),
    ("metrics-subsets-zero", set_at("metrics", "n_subsets", value=0),
     "metrics: n_subsets must be >= 1"),
    ("metrics-buckets-zero", set_at("metrics", "coalition_buckets", value=0),
     "metrics: coalition_buckets must be >= 1"),
    ("metrics-buckets", set_at("metrics", "coalition_buckets", value=5),
     loaded_with(metrics={"coalition_buckets": 5})),
]


@pytest.mark.parametrize("mutate, expected", [case[1:] for case in LOADER_CASES],
                         ids=[case[0] for case in LOADER_CASES])
def test_config_loader_messages_and_presets_are_pinned(tmp_path, mutate, expected):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(mutate(json.loads(json.dumps(CONFIG)))))
    if isinstance(expected, str):
        with pytest.raises(ConfigurationError) as err:
            load_config(path)
        assert str(err.value) == expected
    else:
        # repr tells 12 from 12.0, which == does not
        assert repr(load_config(path)) == repr(expected)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("keys, value, message", [
    (("workload", "interarrival", "mean"), NAN,
     "workload.interarrival.mean: invalid value nan: expected a finite number"),
    (("workload", "service", "alpha"), NAN,
     "workload.service.alpha: invalid value nan: expected a finite number"),
    (("workload", "mode_probs"), [NAN, 0.5, 0.5],
     "workload.mode_probs: invalid value [nan, 0.5, 0.5]: expected a finite number"),
    (("workload", "workload_scu"), [0.1, NAN],
     "workload.workload_scu: invalid value [0.1, nan]: expected a finite number"),
    (("engine", "capacity_scu"), INF,
     "engine.capacity_scu: invalid value inf: expected a finite number"),
    (("market", "cost_range"), [1.0, NAN],
     "market.cost_range: invalid value [1.0, nan]: expected a finite number"),
    (("market", "cost_range"), [-INF, 10.0],
     "market.cost_range: invalid value [-inf, 10.0]: expected a finite number"),
    (("market", "cost_range"), [1.0, INF],
     "market.cost_range: invalid value [1.0, inf]: expected a finite number"),
    # an integer too large for a float
    (("engine", "capacity_scu"), 10**400,
     f"engine.capacity_scu: invalid value {10**400}: int too large to convert to float"),
], ids=["mean-nan", "alpha-nan", "mode_probs-nan", "workload_scu-nan", "capacity-inf",
        "cost-nan", "cost-minus-inf", "cost-inf", "capacity-huge-int"])
def test_config_rejects_non_finite_numbers(tmp_path, capsys, keys, value, message):
    # json writes and reads NaN, Infinity and -Infinity
    path = tmp_path / "run.json"
    path.write_text(json.dumps(set_at(*keys, value=value)(json.loads(json.dumps(CONFIG)))))
    with pytest.raises(ConfigurationError) as err:
        load_config(path)
    assert str(err.value) == message
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- run driver ---------------------------------------------------------------------

def test_exp5_run_emits_thousand_requests(tmp_path):
    report = run_experiment("exp5", 1, tmp_path)
    assert report.n_requests == 1000
    assert sum(t.requests for t in report.totals.values()) == 1000
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["preset"] == "exp5"
    assert summary["n_requests"] == 1000
    assert (tmp_path / "bins.csv").exists()
    assert (tmp_path / "coalitions.csv").exists()


def test_same_seed_runs_are_byte_identical(tmp_path):
    run_experiment("exp5", 3, tmp_path / "a")
    run_experiment("exp5", 3, tmp_path / "b")
    for name in ("bins.csv", "coalitions.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    a = run_experiment("exp5", 1, tmp_path / "a")
    b = run_experiment("exp5", 2, tmp_path / "b")
    assert a.event_digest != b.event_digest


def test_sweep_isolates_seeds(tmp_path):
    reports = sweep("exp5", 2, 10, tmp_path)
    assert len(reports) == 2
    assert (tmp_path / "seed-10" / "summary.json").exists()
    assert (tmp_path / "seed-11" / "summary.json").exists()
    assert json.loads((tmp_path / "seed-10" / "summary.json").read_text())["seed"] == 10


def test_config_echo_is_the_preset_as_it_ran(tmp_path):
    base = preset("exp1-desk")
    p = replace(base, workload=replace(base.workload, n_requests=1_000))
    run_experiment(p, 1, tmp_path)
    config = json.loads((tmp_path / "summary.json").read_text())["config"]
    for section in ("topology", "engine", "workload", "market", "metrics"):
        assert "seed" not in config[section], section
    assert config["market"]["invited_fraction"] == 0.03
    assert config["workload"]["n_requests"] == 1_000
    assert config["seed"] == 1
    assert config["derived_seeds"] == list(derive_seeds(1))


def test_only_c2_runs_draw_primary_contacts(monkeypatch):
    from sococ import harness

    drawn = []

    def recording_organize(config, seed):
        topology = organize(config, seed)
        drawn.append(topology.core_primary_contacts.shape)
        return topology

    monkeypatch.setattr(harness, "organize", recording_organize)
    c1 = preset("exp5")
    assert c1.market.initiation == "C1" and c1.topology.primary_contacts_per_core == 10
    run_experiment(c1, 1)
    run_experiment(replace(c1, market=replace(c1.market, initiation="C2")), 1)
    assert drawn == [(100, 0), (100, 10)]


def test_metrics_overrides_apply(tmp_path):
    report = run_experiment("exp5", 1, tmp_path, bin_size=50, n_subsets=5)
    full_bins = [b for b in report.bins if not b.partial]
    assert all(b.n_requests == 50 for b in full_bins)
    # the config echo reports the metrics the run used, not the preset's
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["metrics"]["bin_size"] == 50
    assert summary["config"]["metrics"]["n_subsets"] == 5


def test_secondary_contacts_never_reduce_success_on_matched_seeds():
    # exp2-desk against the same workload served with primary contacts only.
    # With 100 primary contacts per core no leader ever exhausts its primary
    # list, so both arms would score 100%; with 10, leaders fall back to
    # secondary contacts several hundred times per 5,000 requests, and only
    # that fallback keeps the success rate at 100%.
    base = preset("exp2-desk")
    wide = replace(
        base,
        topology=replace(base.topology, primary_contacts_per_core=10),
        workload=replace(base.workload, n_requests=5_000),
    )
    primary_only = replace(
        wide, name="exp2-desk-primary",
        market=replace(wide.market, use_secondary_contacts=False),
    )
    for seed in (1, 2):
        with_secondary = run_experiment(wide, seed)
        without = run_experiment(primary_only, seed)
        assert with_secondary.overall_success_rate() > without.overall_success_rate()


# -- CLI --------------------------------------------------------------------------

def test_cli_run_writes_report(tmp_path, capsys):
    code = main(["run", "--preset", "exp5", "--seed", "1",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    assert (tmp_path / "r" / "bins.csv").exists()
    assert "exp5" in capsys.readouterr().out


def test_cli_rejects_huge_preset_without_flag(tmp_path, capsys):
    code = main(["run", "--preset", "exp1", "--out", str(tmp_path)])
    assert code == 2
    assert "allow-huge" in capsys.readouterr().err


def test_cli_run_from_config_file(tmp_path):
    path = write_config(tmp_path)
    code = main(["run", "--config", str(path), "--seed", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_requests"] == 1000


def test_cli_config_error_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, lambda raw: raw["market"].update(bogus=1))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    assert main(["run", "--preset", "exp5", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err
    with pytest.raises(ConfigurationError):
        run_experiment("exp5", -1)


def test_cli_organize_negative_seed_exits_2(tmp_path, capsys):
    code = main(["organize", "--n-core", "100", "--n-periphery", "10", "--m", "2",
                 "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_cli_organize_emits_stats(tmp_path):
    code = main([
        "organize", "--n-core", "2000", "--n-periphery", "100", "--m", "10",
        "--seed", "7", "--out", str(tmp_path),
    ])
    assert code == 0
    stats = (tmp_path / "topology_stats.csv").read_text().splitlines()
    assert stats[0] == "metric,value"
    values = dict(line.split(",") for line in stats[1:])
    assert values["n_core"] == "2000"
    assert "n_contacts" not in values
    assert float(values["pcs_mean"]) == 200.0  # N*m/M exactly
    hist = (tmp_path / "secondary_histogram.csv").read_text().splitlines()
    assert hist[0] == "bucket_lo,bucket_hi,count"
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 2000


def test_cli_organize_samples_from_a_stream_of_its_own(tmp_path, monkeypatch):
    # default_rng(seed) would replay the topology's draws: the cores sampled
    # would track the first cores' periphery choices
    seen = []
    original = cli.compute_stats

    def recording_compute_stats(topology, sample_size, rng):
        seen.append((sample_size, rng.bit_generator.state))
        return original(topology, sample_size, rng)

    monkeypatch.setattr(cli, "compute_stats", recording_compute_stats)
    code = main(["organize", "--n-core", "2000", "--n-periphery", "100", "--m", "10",
                 "--seed", "7", "--stats-sample", "50", "--out", str(tmp_path)])
    assert code == 0
    [(sample_size, state)] = seen
    assert sample_size == 50
    assert state != np.random.default_rng(7).bit_generator.state
    assert state == np.random.default_rng(
        np.random.SeedSequence(7).spawn(1)[0]).bit_generator.state


def test_cli_out_defaults_to_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SOCOC_OUT", str(tmp_path / "envout"))
    assert main(["run", "--preset", "exp5", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "summary.json").exists()


def test_cli_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_cli_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    from sococ import harness
    from sococ.errors import InternalConsistencyError

    def boom(*args, **kwargs):
        raise InternalConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(harness.engine_mod, "run", boom)
    code = main(["run", "--preset", "exp5", "--out", str(tmp_path)])
    assert code == 3
    assert "invariant" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    code = main(["sweep", "--preset", "exp5", "--seeds", "2", "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "seed-4" / "bins.csv").exists()
    assert (tmp_path / "seed-5" / "bins.csv").exists()
