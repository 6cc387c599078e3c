"""Stochastic service-request stream generation.

Requests carry a mode, a workload in SCU and a service duration. Per request
the generator consumes random draws in a fixed order (inter-arrival, mode,
workload, duration, entry periphery) so streams stay reproducible across
refactors. The draws are those of numpy's scalar `random()` and `integers()`
calls on the stream's generator, served from bulk blocks by `Draws`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np

from .draws import Draws
from .errors import ConfigurationError

MODE_PROB_TOL = 1e-12


class Mode(IntEnum):
    """Server / request operation modes. SLEEP is a server-only state."""

    SLEEP = 0
    M1 = 1
    M2 = 2
    M3 = 3


REQUEST_MODES = (Mode.M1, Mode.M2, Mode.M3)


@dataclass(frozen=True)
class DistributionSpec:
    """One-dimensional sampling distribution.

    kind        param1              param2
    exponential mean (> 0)          unused
    pareto      shape alpha (> 1)   scale x_m (> 0)
    uniform     lower bound         upper bound (>= lower)
    """

    kind: str
    param1: float
    param2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "exponential":
            if self.param1 <= 0:
                raise ConfigurationError("exponential mean must be > 0")
        elif self.kind == "pareto":
            # alpha <= 1 has an infinite mean, which breaks load accounting.
            if self.param1 <= 1:
                raise ConfigurationError("pareto shape alpha must be > 1")
            if self.param2 <= 0:
                raise ConfigurationError("pareto scale must be > 0")
        elif self.kind == "uniform":
            if self.param1 > self.param2:
                raise ConfigurationError("uniform lower bound exceeds upper bound")
        else:
            raise ConfigurationError(f"unknown distribution kind {self.kind!r}")


class ServiceRequest(NamedTuple):
    id: int
    arrival_time: float
    mode: Mode
    workload: float     # SCU
    duration: float     # simulated time units
    entry_periphery: int


@dataclass(frozen=True)
class WorkloadConfig:
    interarrival: DistributionSpec
    service: DistributionSpec
    workload_range: tuple[float, float]
    mode_probabilities: tuple[float, float, float]
    n_requests: int

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        lo, hi = self.workload_range
        if lo <= 0 or hi < lo:
            raise ConfigurationError("workload_range must satisfy 0 < lo <= hi")
        probs = self.mode_probabilities
        if len(probs) != 3 or any(p < 0 for p in probs):
            raise ConfigurationError("mode_probabilities must be three non-negative values")
        if abs(sum(probs) - 1.0) > MODE_PROB_TOL:
            raise ConfigurationError("mode_probabilities must sum to 1")
        # durations and inter-arrival gaps must be positive / non-negative
        if self.service.kind == "uniform" and self.service.param1 <= 0:
            raise ConfigurationError("uniform service durations must be > 0")
        if self.interarrival.kind == "uniform" and self.interarrival.param1 < 0:
            raise ConfigurationError("uniform inter-arrival times must be >= 0")


def sample(dist: DistributionSpec, draws: Draws) -> float:
    """Draw one value: exponential -mean*ln(u), pareto x_m*u^(-1/alpha),
    uniform lo + u*(hi - lo), with u uniform on (0, 1)."""
    u = draws.unit()
    if dist.kind == "exponential":
        # numpy's log, not math.log: the two differ in the last bit on some
        # hosts; float() keeps arrival times and heap keys Python floats
        return float(-dist.param1 * np.log(u))
    if dist.kind == "pareto":
        return dist.param2 * u ** (-1.0 / dist.param1)
    return dist.param1 + u * (dist.param2 - dist.param1)


def _draw_mode(draws: Draws, probs: tuple[float, float, float]) -> Mode:
    u = draws.unit()
    if u < probs[0]:
        return REQUEST_MODES[0]
    if u < probs[0] + probs[1]:
        return REQUEST_MODES[1]
    return REQUEST_MODES[2]


def generate_stream(
    config: WorkloadConfig, n_periphery: int, seed: int
) -> Iterator[ServiceRequest]:
    """Yield exactly n_requests requests in arrival order, lazily.

    Arrival times accumulate the inter-arrival samples; the entry periphery
    is uniform over [0, n_periphery). The draws come from a generator seeded
    with `seed`, so equal configs and seeds regenerate element-wise
    identical streams. An invalid `n_periphery` raises here, not on the
    first request.
    """
    if n_periphery < 1:
        raise ConfigurationError("n_periphery must be >= 1")
    return _requests(config, n_periphery, Draws(np.random.default_rng(seed)))


def _requests(
    config: WorkloadConfig, n_periphery: int, draws: Draws
) -> Iterator[ServiceRequest]:
    workload_dist = DistributionSpec("uniform", *config.workload_range)
    t = 0.0
    for i in range(config.n_requests):
        t += sample(config.interarrival, draws)
        mode = _draw_mode(draws, config.mode_probabilities)
        workload = sample(workload_dist, draws)
        duration = sample(config.service, draws)
        entry = draws.bounded(n_periphery - 1)
        yield ServiceRequest(i, t, mode, workload, duration, entry)
