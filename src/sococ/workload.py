"""Stochastic service-request stream generation.

Requests carry a mode, a workload in SCU and a service duration. Per request
the stream takes random draws in a fixed order (inter-arrival, mode,
workload, duration, entry periphery), the draws of numpy's scalar calls
`random()` four times, then `integers(n_periphery)`, on the stream's
PCG64 generator. So streams stay reproducible across refactors.

The stream decodes those draws from `random_raw` words, BLOCK_REQUESTS
requests per numpy pass:

- each double is a whole word, its top 53 bits times 2**-53;
- with n_periphery = M > 1, the entry is Lemire's bounded draw: the high
  32 bits of x * M for a 32-bit draw x. A 32-bit draw takes the low half of a
  fresh word and keeps its high half for the next 32-bit draw. So two
  requests take 9 words: four doubles, one word whose low half is the
  first request's x and whose high half is the second's, four doubles;
- with M = 1 the entry is 0 and takes no draw: two requests take 8 words.

A request whose draws meet a zero double (numpy redraws it, p = 2**-53) or
a low word of x * M below 2**32 % M (Lemire redraws it, p = 46 / 2**32 at
M = 50) is handed back to numpy (`draws.hand_back`), whose scalar calls draw
it. Block decoding resumes at the next request, whichever half of a word
its x is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .draws import _DOUBLE_SCALE, _LOW32, _take_over, hand_back
from .errors import ConfigurationError

MODE_PROB_TOL = 1e-12

# Requests decoded per numpy pass. A pass has a fixed cost of tens of µs:
# c1-pool's stream costs 1.0-1.25 / 0.76-0.82 / 0.63-0.65 / 0.55 µs per
# request in blocks of 64 / 128 / 256 / 512 (best of 7, 2-CPU host). A
# block of 512 holds 2,304 words and ~70 KB of Python floats, ints and lists.
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
    """The values of `dist` at uniform draws `u` on (0, 1): exponential
    -mean*ln(u), pareto x_m*u^(-1/alpha), uniform lo + u*(hi - lo)."""
    if dist.kind == "exponential":
        # numpy's log, not math.log: the two differ in the last bit on some hosts
        return -dist.param1 * np.log(u)
    if dist.kind == "pareto":
        # Python's pow, one element at a time: numpy's array power differs
        # from it in the last bit for ~5% of values
        e = -1.0 / dist.param1
        return np.array([dist.param2 * x ** e for x in u.tolist()])
    return dist.param1 + u * (dist.param2 - dist.param1)


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
    if not 1 <= n_periphery <= _LOW32 + 1:
        raise ConfigurationError("n_periphery must be >= 1 and <= 2**32")
    return _requests(config, n_periphery, np.random.default_rng(seed))


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
    if not entries:
        return iter(()), t
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


def _requests(
    config: WorkloadConfig, n_periphery: int, rng: np.random.Generator
) -> Iterator[ServiceRequest]:
    """The stream decoded in blocks from `rng`'s words (module docstring)."""
    raw = rng.bit_generator.random_raw
    pair = 9 if n_periphery > 1 else 8  # words per two requests
    doubles = [0, 1, 2, 3, pair - 4, pair - 3, pair - 2, pair - 1]
    threshold = (_LOW32 + 1) % n_periphery
    # the fetched, unread words from the start of a pair, whose first
    # `skip` requests are made already
    words, skip = _resume(rng, n_periphery)
    t, i, n = 0.0, 0, config.n_requests
    while i < n:
        end = skip + min(BLOCK_REQUESTS, n - i)
        need = pair * ((end + 1) // 2)
        if len(words) < need:
            words = np.concatenate((words, raw(need - len(words))))
        block = words[:need].reshape(-1, pair)
        bits = block[:, doubles].reshape(-1, 4)[skip:end] >> 11
        rare = (bits == 0).any(axis=1)
        entries = np.zeros(len(bits), np.uint64)
        if n_periphery > 1:
            x = np.column_stack((block[:, 4] & _LOW32, block[:, 4] >> 32)).ravel()
            m = x[skip:end] * np.uint64(n_periphery)
            entries = m >> 32
            rare |= (m & _LOW32) < threshold
        # the requests before the block's first rare draw
        ready = int(rare.argmax()) if rare.any() else len(rare)
        requests, t = _requests_from(
            config, i, t, bits[:ready] * _DOUBLE_SCALE, entries[:ready].tolist())
        yield from requests
        i += ready
        done = skip + ready
        words, skip = words[pair * (done // 2):], done % 2
        if ready == len(rare):
            continue
        # request i meets a rare draw: numpy draws it
        kept = int(words[4] >> 32) if skip and n_periphery > 1 else None
        hand_back(rng, kept, len(words) - skip * (pair - 4))
        units = np.array([[_positive_double(rng) for _ in range(4)]])
        requests, t = _requests_from(config, i, t, units, [int(rng.integers(n_periphery))])
        yield from requests
        i += 1
        words, skip = _resume(rng, n_periphery)


def _positive_double(rng: np.random.Generator) -> float:
    """`rng.random()` redrawn while it is 0.0: uniform on (0, 1)."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def _resume(rng: np.random.Generator, n_periphery: int) -> tuple[np.ndarray, int]:
    """The (words, skip) at which block decoding starts on `rng`: a half the
    generator holds is the high half of a pair's fifth word, whose first
    request is made. At M = 1 no request reads a half."""
    kept = _take_over(rng)
    if kept is None or n_periphery == 1:
        return np.empty(0, np.uint64), 0
    return np.array([0, 0, 0, 0, kept << 32], np.uint64), 1
