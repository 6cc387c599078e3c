"""Preset integrity, config loading, the run driver and the CLI."""

import json
from dataclasses import replace

import pytest

from sococ.cli import main
from sococ.engine import EngineConfig
from sococ.errors import ConfigurationError
from sococ.harness import (
    PRESET_NAMES,
    derive_seeds,
    is_huge,
    load_config,
    preset,
    run_experiment,
    sweep,
)
from sococ.market import MarketConfig
from sococ.metrics import MetricsConfig
from sococ.topology import TopologyConfig
from sococ.workload import Mode


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
        "initiation": "C2", "leader_candidate_fraction": 0.01,
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


def test_config_rejects_unknown_keys_with_field_path(tmp_path):
    def add_key(raw):
        raw["workload"]["burstiness"] = 2

    with pytest.raises(ConfigurationError) as err:
        load_config(write_config(tmp_path, add_key))
    assert "workload" in str(err.value) and "burstiness" in str(err.value)


def test_config_rejects_bad_values_with_section(tmp_path):
    def break_alpha(raw):
        raw["workload"]["service"]["alpha"] = 1.0

    with pytest.raises(ConfigurationError) as err:
        load_config(write_config(tmp_path, break_alpha))
    assert "workload" in str(err.value)

    def break_mix(raw):
        raw["engine"]["initial_state_mix"] = [0.5, 0.5, 0.5, 0.5]

    with pytest.raises(ConfigurationError) as err:
        load_config(write_config(tmp_path, break_mix))
    assert "engine" in str(err.value)

    # wrong JSON types are errors at their field path, never coerced
    for section, key, value in (
        ("topology", "n_core", "many"),
        ("market", "use_secondary", "false"),
        ("workload", "mode_probs", 0.5),
        ("engine", "initial_load_range", ["low", 0.8]),
        ("workload", "n_requests", None),
        ("topology", "n_core", 500.7),
        ("topology", "n_core", "500"),
        ("workload", "n_requests", True),
        ("metrics", "bin_size", 100.0),
    ):
        path = write_config(tmp_path, lambda raw: raw[section].update({key: value}))
        with pytest.raises(ConfigurationError) as err:
            load_config(path)
        assert f"{section}.{key}" in str(err.value)


def test_config_rejects_missing_section(tmp_path):
    def drop(raw):
        del raw["market"]

    with pytest.raises(ConfigurationError) as err:
        load_config(write_config(tmp_path, drop))
    assert "market" in str(err.value)

    # a section that is not an object is as good as missing
    with pytest.raises(ConfigurationError) as err:
        load_config(write_config(tmp_path, lambda raw: raw.update(market=5)))
    assert "market" in str(err.value)


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


def test_metrics_overrides_apply(tmp_path):
    report = run_experiment("exp5", 1, tmp_path, bin_size=50, n_subsets=5)
    full_bins = [b for b in report.bins if not b.partial]
    assert all(b.n_requests == 50 for b in full_bins)


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


def test_cli_organize_emits_stats(tmp_path):
    code = main([
        "organize", "--n-core", "2000", "--n-periphery", "100", "--m", "10",
        "--n-contacts", "50", "--seed", "7", "--out", str(tmp_path),
    ])
    assert code == 0
    stats = (tmp_path / "topology_stats.csv").read_text().splitlines()
    assert stats[0] == "metric,value"
    values = dict(line.split(",") for line in stats[1:])
    assert values["n_core"] == "2000"
    assert float(values["pcs_mean"]) == 200.0  # N*m/M exactly
    hist = (tmp_path / "secondary_histogram.csv").read_text().splitlines()
    assert hist[0] == "bucket_lo,bucket_hi,count"
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 2000


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
