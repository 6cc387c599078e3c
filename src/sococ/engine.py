"""Server fleet state and the discrete-event loop.

The fleet is held as parallel numpy arrays so auctions can filter thousands
of servers per request without per-object overhead. Events are processed in
(time, completion-before-arrival, request id) order; winning allocations are
committed atomically and released when the service completes.

Every run checks the fleet ledger: `Fleet.commit` and `Fleet.release`, the
only writers of committed load, check each server they write, and the whole
fleet is swept when the stream ends and again after the drain.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import market
from .errors import ConfigurationError, InternalConsistencyError
from .metrics import MetricsSink
from .topology import ContactTopology
from .workload import Mode, ServiceRequest

CAPACITY_TOL = 1e-9
STATE_MIX_TOL = 1e-12

# Event kinds; completions sort before arrivals at equal times.
EV_COMPLETION = 0
EV_ARRIVAL = 1


@dataclass(frozen=True)
class EngineConfig:
    """Fleet initialization parameters."""

    capacity_scu: float = 10.0
    initial_state_mix: tuple[float, float, float, float] = (0.2, 0.4, 0.15, 0.25)
    initial_load_range: tuple[float, float] = (0.3, 0.8)
    cost_range: tuple[float, float] = (1.0, 10.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity_scu <= 0:
            raise ConfigurationError("capacity_scu must be > 0")
        mix = self.initial_state_mix
        if len(mix) != 4 or any(f < 0 for f in mix):
            raise ConfigurationError("initial_state_mix must be four non-negative fractions")
        if abs(sum(mix) - 1.0) > STATE_MIX_TOL:
            raise ConfigurationError("initial_state_mix must sum to 1")
        lo, hi = self.initial_load_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigurationError("initial_load_range must satisfy 0 <= lo <= hi <= 1")
        clo, chi = self.cost_range
        if clo <= 0 or chi < clo:
            raise ConfigurationError("cost_range must satisfy 0 < lo <= hi")
        if self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")


class Fleet:
    """Mutable state of all core servers, stored column-wise."""

    def __init__(
        self,
        modes: np.ndarray,
        capacity: float,
        background: np.ndarray,
        unit_cost: np.ndarray,
    ):
        self.n = len(modes)
        self.modes = modes.astype(np.int8)
        self.capacity = float(capacity)
        self.background = background.astype(np.float64)
        self.committed = self.background.copy()
        self.unit_cost = unit_cost.astype(np.float64)
        self.coalition_count = np.zeros(self.n, dtype=np.int64)
        self.recruited_from_sleep = np.zeros(self.n, dtype=bool)
        # request id -> (member ids, allocations); one entry per live request
        self.live: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def commit(self, request: ServiceRequest, coalition: "market.Coalition") -> None:
        """Apply a winning coalition's allocations atomically, after checking
        that it lists each server once and overflows none."""
        ids = coalition.member_ids
        allocs = coalition.allocations
        if request.id in self.live:
            raise InternalConsistencyError(f"request {request.id} committed twice")
        # a fancy-index write would apply a repeated server's allocation once
        if len(set(ids.tolist())) != ids.size:
            raise InternalConsistencyError(f"request {request.id}: coalition repeats a server")
        load = self.committed[ids] + allocs
        limit = self.capacity + CAPACITY_TOL
        # coalitions are small, so a list reduction is cheaper than numpy's
        if max(load.tolist()) > limit:
            raise InternalConsistencyError(
                f"allocation overflows capacity on servers {ids[load > limit].tolist()}"
            )
        self.committed[ids] = load
        self.coalition_count[ids] += 1
        sleepers = ids[self.modes[ids] == Mode.SLEEP]
        if sleepers.size:
            self.modes[sleepers] = int(request.mode)
            self.recruited_from_sleep[sleepers] = True
        self.live[request.id] = (ids, allocs)

    def release(self, request_id: int) -> None:
        """Return a completed request's allocations, after checking that no
        server drops below zero; drained recruits go back to sleep."""
        entry = self.live.pop(request_id, None)
        if entry is None:
            raise InternalConsistencyError(f"completion for unknown request {request_id}")
        ids, allocs = entry
        load = self.committed[ids] - allocs
        if min(load.tolist()) < -CAPACITY_TOL:
            raise InternalConsistencyError(f"request {request_id} released to a negative load")
        self.committed[ids] = load
        drained = ids[self.recruited_from_sleep[ids] & (load <= CAPACITY_TOL)]
        if drained.size:
            self.committed[drained] = 0.0  # clear float residue
            self.modes[drained] = Mode.SLEEP
            self.recruited_from_sleep[drained] = False

    def check_conservation(self) -> None:
        """Verify committed == background + live allocations on every server."""
        if (self.committed > self.capacity + CAPACITY_TOL).any():
            raise InternalConsistencyError("committed load exceeds capacity")
        if (self.committed < -CAPACITY_TOL).any():
            raise InternalConsistencyError("negative committed load")
        live_sum = np.zeros(self.n)
        for ids, allocs in self.live.values():
            np.add.at(live_sum, ids, allocs)
        drift = np.abs(self.committed - self.background - live_sum)
        bad = drift > CAPACITY_TOL
        if bad.any():
            raise InternalConsistencyError(
                f"allocation-sum mismatch on servers {np.nonzero(bad)[0].tolist()[:10]}"
            )


def init_servers(
    topology: ContactTopology,
    config: EngineConfig,
    rng: np.random.Generator | None = None,
) -> Fleet:
    """Draw each server's mode, background load and unit cost.

    Draw order per fleet: modes, unit costs, background loads. Sleeping
    servers always start with zero background load.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = topology.n_core
    modes = rng.choice(4, size=n, p=list(config.initial_state_mix)).astype(np.int8)
    costs = rng.uniform(config.cost_range[0], config.cost_range[1], size=n)
    lo, hi = config.initial_load_range
    loads = rng.uniform(lo, hi, size=n) * config.capacity_scu
    background = np.where(modes == Mode.SLEEP, 0.0, loads)
    return Fleet(modes=modes, capacity=config.capacity_scu,
                 background=background, unit_cost=costs)


@dataclass
class RunStats:
    """Outcome counters and determinism digest of one engine run."""

    n_requests: int = 0
    successes: int = 0
    completed: int = 0                 # total completions, including the drain
    completed_at_stream_end: int = 0
    in_flight_at_stream_end: int = 0
    unsatisfied: int = 0
    final_time: float = 0.0
    event_digest: str = ""


def run(
    topology: ContactTopology,
    fleet: Fleet,
    requests: Iterable[ServiceRequest],
    market_config: "market.MarketConfig",
    sink: MetricsSink,
    rng: np.random.Generator,
) -> RunStats:
    """Drive the request stream through auctions against mutable fleet state.

    Every auction outcome is forwarded to the metrics sink in arrival order.
    After the stream ends, remaining completions are drained so the fleet
    returns to its background load; the ledger is swept before and after.
    """
    mkt = market.Market(topology, fleet, market_config, rng)
    stats = RunStats()
    heap: list[tuple[float, int]] = []  # (completion time, request id)
    digest = hashlib.blake2b(digest_size=16)
    last_time = -np.inf

    def on_event(time: float, kind: int, request_id: int) -> None:
        nonlocal last_time
        if time < last_time:
            raise InternalConsistencyError("event times went backwards")
        last_time = time
        digest.update(struct.pack("<dBq", time, kind, request_id))

    def complete_one() -> None:
        time, rid = heapq.heappop(heap)
        fleet.release(rid)
        stats.completed += 1
        on_event(time, EV_COMPLETION, rid)

    for request in requests:
        while heap and heap[0][0] <= request.arrival_time:
            complete_one()
        outcome = mkt.run_auction(request)
        if outcome.bid is not None:
            fleet.commit(request, outcome.bid.coalition)
            heapq.heappush(heap, (request.arrival_time + request.duration, request.id))
            stats.successes += 1
        else:
            stats.unsatisfied += 1
        sink.record_outcome(outcome, request.mode)
        stats.n_requests += 1
        on_event(request.arrival_time, EV_ARRIVAL, request.id)

    stats.in_flight_at_stream_end = len(fleet.live)
    stats.completed_at_stream_end = stats.completed
    if stats.n_requests != stats.successes + stats.unsatisfied:
        raise InternalConsistencyError("request ledger does not balance")
    if stats.successes != stats.completed + stats.in_flight_at_stream_end:
        raise InternalConsistencyError("in-flight ledger does not balance")
    fleet.check_conservation()

    while heap:
        complete_one()

    fleet.check_conservation()
    if fleet.live:
        raise InternalConsistencyError("live allocations survived the drain")
    drift = abs(float(fleet.committed.sum() - fleet.background.sum()))
    if drift > 1e-6:
        raise InternalConsistencyError(
            f"fleet did not return to background load (drift {drift:g} SCU)"
        )

    stats.final_time = last_time if stats.n_requests else 0.0
    stats.event_digest = digest.hexdigest()
    return stats
