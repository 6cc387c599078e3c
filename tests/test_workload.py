"""Request-stream generation and its distribution oracles."""

import math
import types

import numpy as np
import pytest

from sococ import workload
from sococ.errors import ConfigurationError
from sococ.workload import (
    DistributionSpec,
    Mode,
    WorkloadConfig,
    generate_stream,
    transform,
)

# asymptotic Kolmogorov-Smirnov critical value at significance 0.001
KS_CRIT_0001 = 1.9495


def default_config(**overrides):
    base = dict(
        interarrival=DistributionSpec("exponential", 1.5),
        service=DistributionSpec("exponential", 1.2),
        workload_range=(0.1, 8.0),
        mode_probabilities=(1 / 3, 1 / 3, 1 / 3),
        n_requests=1000,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def units(rng, n):
    """n uniform draws on (0, 1)."""
    u = rng.random(n)
    assert (u > 0).all()
    return u


# -- DistributionSpec --------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigurationError):
        DistributionSpec("exponential", 0.0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("pareto", 1.0, 1.0)  # infinite mean
    with pytest.raises(ConfigurationError):
        DistributionSpec("pareto", 2.0, 0.0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("uniform", 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("weibull", 1.0)


def test_exponential_sample_mean():
    rng = np.random.default_rng(1)
    dist = DistributionSpec("exponential", 1.2)
    values = transform(dist, units(rng, 1_000_000))
    assert abs(values.mean() - 1.2) < 0.01
    assert (values > 0).all()


def test_uniform_degenerate_range():
    rng = np.random.default_rng(2)
    dist = DistributionSpec("uniform", 0.1, 0.1)
    assert all(transform(dist, units(rng, 100)) == 0.1)


def test_pareto_sample_mean_matches_closed_form():
    # mean = alpha * x_m / (alpha - 1) = 2.0 for alpha=2, x_m=1
    rng = np.random.default_rng(3)
    dist = DistributionSpec("pareto", 2.0, 1.0)
    values = transform(dist, units(rng, 1_000_000))
    assert abs(values.mean() - 2.0) < 0.05
    assert values.min() >= 1.0


def test_exponential_passes_kolmogorov_smirnov():
    rng = np.random.default_rng(4)
    dist = DistributionSpec("exponential", 1.5)
    n = 100_000
    values = np.sort(transform(dist, units(rng, n)))
    cdf = 1.0 - np.exp(-values / 1.5)
    grid = np.arange(1, n + 1) / n
    d_stat = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1 / n)).max())
    assert d_stat <= KS_CRIT_0001 / math.sqrt(n)


# -- WorkloadConfig ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        default_config(mode_probabilities=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigurationError):
        default_config(mode_probabilities=(-0.1, 0.6, 0.5))
    with pytest.raises(ConfigurationError):
        default_config(n_requests=0)
    with pytest.raises(ConfigurationError):
        default_config(workload_range=(0.0, 8.0))
    with pytest.raises(ConfigurationError):
        default_config(service=DistributionSpec("uniform", 0.0, 1.0))


# -- generate_stream ---------------------------------------------------------

def test_stream_is_lazy_and_sized():
    stream = generate_stream(default_config(n_requests=50), 10, 0)
    assert isinstance(stream, types.GeneratorType)
    requests = list(stream)
    assert len(requests) == 50
    assert [r.id for r in requests] == list(range(50))


def test_invalid_periphery_count_raises_at_the_call():
    # the check runs before the first request is asked for
    for n_periphery in (0, -1):
        with pytest.raises(ConfigurationError, match="n_periphery"):
            generate_stream(default_config(), n_periphery, 1)
    # a count past 32 bits is valid, and draws past 32 bits
    entries = [r.entry_periphery for r in generate_stream(default_config(), 2**40, 1)]
    assert 0 <= min(entries) and max(entries) < 2**40 and max(entries) >= 2**32


def test_stream_does_not_depend_on_the_block_size(monkeypatch):
    config = default_config(service=DistributionSpec("pareto", 2.0, 1.0), n_requests=1100)
    streams = []
    for size in (1, 7, 512):
        monkeypatch.setattr(workload, "BLOCK_REQUESTS", size)
        streams.append(list(generate_stream(config, 50, 17)))
    assert streams[0] == streams[1] == streams[2]


@pytest.mark.parametrize("interarrival,service", [
    (DistributionSpec("exponential", 1.5), DistributionSpec("exponential", 1.2)),
    (DistributionSpec("uniform", 0.0, 2.0), DistributionSpec("pareto", 2.5, 0.5)),
])
def test_stream_times_and_sizes_are_python_floats(interarrival, service):
    # numpy scalars would ride through the event heap and every auction
    config = default_config(interarrival=interarrival, service=service, n_requests=200)
    for r in generate_stream(config, 4, 3):
        assert type(r.arrival_time) is float
        assert type(r.workload) is float
        assert type(r.duration) is float


def test_forced_mode_probabilities():
    config = default_config(mode_probabilities=(1.0, 0.0, 0.0), n_requests=200)
    assert all(r.mode == Mode.M1 for r in generate_stream(config, 5, 0))


def test_arrival_times_strictly_increase():
    requests = list(generate_stream(default_config(n_requests=2000), 10, 0))
    times = [r.arrival_time for r in requests]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_fields_within_configured_ranges():
    requests = list(generate_stream(default_config(n_requests=2000), 7, 0))
    for r in requests:
        assert 0.1 <= r.workload <= 8.0
        assert r.duration > 0
        assert 0 <= r.entry_periphery < 7
        assert r.mode in (Mode.M1, Mode.M2, Mode.M3)


def test_mode_split_matches_binomial_oracle():
    # equal thirds: each mode count should land within 3 binomial sigmas
    n = 300_000
    config = default_config(n_requests=n)
    counts = {Mode.M1: 0, Mode.M2: 0, Mode.M3: 0}
    for r in generate_stream(config, 10, 8):
        counts[r.mode] += 1
    p = 1 / 3
    sigma = math.sqrt(p * (1 - p) * n)
    for mode, c in counts.items():
        assert abs(c - n * p) <= 3 * sigma, (mode, c)


def test_entry_periphery_is_uniform():
    n = 100_000
    config = default_config(n_requests=n)
    counts = np.zeros(8, dtype=int)
    for r in generate_stream(config, 8, 9):
        counts[r.entry_periphery] += 1
    p = 1 / 8
    sigma = math.sqrt(p * (1 - p) * n)
    assert (np.abs(counts - n * p) <= 4 * sigma).all()


def test_same_seed_regenerates_identical_stream():
    config = default_config(n_requests=500)
    first = list(generate_stream(config, 10, 13))
    second = list(generate_stream(config, 10, 13))
    assert first == second
    shifted = list(generate_stream(config, 10, 14))
    assert first != shifted
