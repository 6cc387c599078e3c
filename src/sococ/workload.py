"""Stochastic service-request stream generation.

Requests carry a mode, a workload in SCU and a service duration, drawn from
four uniform doubles (inter-arrival gap, mode, workload, duration), and an
entry periphery. The stream draws them BLOCK_REQUESTS requests per numpy
pass, from two child generators of the stream's seed: one draws the
doubles, the other the entries. A block of B requests takes B x 4 doubles
and B entries, the next draws of each generator, so the stream does not
depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError

MODE_PROB_TOL = 1e-12

# Requests drawn per numpy pass, and the engine's block of auctions. A pass
# has a fixed cost of tens of µs: exp4-desk's stream cost 1.07 / 0.86-0.87 /
# 0.70-0.72 / 0.62-0.66 µs per request in blocks of 64 / 128 / 256 / 512
# (best of 15, two runs, 2-CPU host). A block of 512 holds ~70 KB of Python
# floats, ints and lists.
BLOCK_REQUESTS = 512


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


def transform(dist: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """The values of `dist` at uniform draws `u` on (0, 1]: exponential
    -mean*ln(u), pareto x_m*u^(-1/alpha), uniform lo + u*(hi - lo)."""
    if dist.kind == "exponential":
        # numpy's log, not math.log: the two differ in the last bit on some hosts
        return -dist.param1 * np.log(u)
    if dist.kind == "pareto":
        return dist.param2 * u ** (-1.0 / dist.param1)
    return dist.param1 + u * (dist.param2 - dist.param1)


def generate_stream(
    config: WorkloadConfig, n_periphery: int, seed: int
) -> Iterator[ServiceRequest]:
    """Yield exactly n_requests requests in arrival order, lazily.

    Arrival times accumulate the inter-arrival samples; the entry periphery
    is uniform over [0, n_periphery). The draws come from generators seeded
    from `seed` (module docstring), so equal configs and seeds regenerate
    element-wise identical streams. An invalid `n_periphery` raises here,
    not on the first request.
    """
    if n_periphery < 1:
        raise ConfigurationError("n_periphery must be >= 1")
    return _requests(config, n_periphery, seed)


_MODES = np.array(REQUEST_MODES, dtype=object)
_new_request = partial(tuple.__new__, ServiceRequest)


def _requests_from(
    config: WorkloadConfig, first: int, t: float, units: np.ndarray, entries: list[int]
) -> tuple[Iterator[ServiceRequest], float]:
    """Requests `first`, `first + 1`, ... after arrival time `t`, from rows
    of four uniform draws (gap, mode, workload, duration) and the entries,
    and the last one's arrival time.

    The mode is M1 below p1, M2 below p1 + p2 and M3 above. Each request is
    built as it is read, which cost 0.63-0.66 µs per request in blocks of
    256 where building the block's list first cost 0.87-0.98 µs."""
    gaps = transform(config.interarrival, units[:, 0])
    gaps[0] += t
    p1, p2, _ = config.mode_probabilities
    modes = _MODES[np.searchsorted((p1, p1 + p2), units[:, 1], side="right")]
    lo, hi = config.workload_range
    workloads = transform(DistributionSpec("uniform", lo, hi), units[:, 2])
    durations = transform(config.service, units[:, 3])
    arrivals = np.cumsum(gaps).tolist()
    return map(_new_request, zip(
        range(first, first + len(entries)), arrivals, modes.tolist(),
        workloads.tolist(), durations.tolist(), entries)), arrivals[-1]


def _requests(config: WorkloadConfig, n_periphery: int, seed: int) -> Iterator[ServiceRequest]:
    """The stream drawn in blocks (module docstring)."""
    units_rng, entry_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    t, i, n = 0.0, 0, config.n_requests
    while i < n:
        size = min(BLOCK_REQUESTS, n - i)
        # uniform on (0, 1], where every transform is finite
        units = 1.0 - units_rng.random((size, 4))
        requests, t = _requests_from(
            config, i, t, units, entry_rng.integers(n_periphery, size=size).tolist())
        yield from requests
        i += size
