"""Server fleet state and the discrete-event loop.

The fleet is held as parallel numpy columns, one entry per server, so set-up
draws and cost-orders it whole, the ledger sweeps check every server at
once and the report reads it whole. The per-request path, which touches a
few servers at a time, reads and writes the same buffers as Python scalars
through memoryviews: each auction scans servers one at a time, and
`Fleet.commit` and `Fleet.release` write one coalition's members. Events
are processed in (time, completion-before-arrival, request id) order;
winning allocations are committed atomically and released when the service
completes.

Every run checks the fleet ledger: `Fleet.commit` and `Fleet.release`, the
only writers of committed load, check each server they write, and the whole
fleet is swept when the stream ends and again after the drain.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from . import market
from .errors import ConfigurationError, InternalConsistencyError
from .market import _SLEEP
from .metrics import MetricsSink
from .topology import ContactTopology
from .workload import BLOCK_REQUESTS, ServiceRequest

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


class Fleet:
    """Mutable state of all core servers, stored column-wise.

    `init_servers` numbers the servers cheapest first, so `unit_cost` is
    non-decreasing; a fleet built by hand may list its costs in any order.

    `committed_view`, `modes_view`, `count_view` and `recruited_view` are
    memoryviews of `committed`, `modes`, `coalition_count` and
    `recruited_from_sleep`: the same buffers, read and written one Python
    scalar at a time, at half the cost of `ndarray.item`. A write through
    either name shows through the other.
    """

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
        self.committed_view = memoryview(self.committed)
        self.modes_view = memoryview(self.modes)
        self.count_view = memoryview(self.coalition_count)
        self.recruited_view = memoryview(self.recruited_from_sleep)
        # request id -> (member ids, allocations), the lists `commit` built;
        # one entry per live request
        self.live: dict[int, tuple[list[int], list[float]]] = {}

    def commit(self, request: ServiceRequest, coalition: "market.Coalition") -> None:
        """Apply a winning coalition's allocations atomically, after checking
        that it lists each server once and overflows none."""
        if request.id in self.live:
            raise InternalConsistencyError(f"request {request.id} committed twice")
        members = coalition.member_ids.tolist()
        allocs = coalition.allocations.tolist()
        # every load is read before the first write, so a repeated server
        # would take only one of its allocations
        if len(set(members)) != len(members):
            raise InternalConsistencyError(f"request {request.id}: coalition repeats a server")
        committed = self.committed_view
        loads = [committed[i] + a for i, a in zip(members, allocs)]
        limit = self.capacity + CAPACITY_TOL
        if max(loads) > limit:
            over = [i for i, load in zip(members, loads) if load > limit]
            raise InternalConsistencyError(f"allocation overflows capacity on servers {over}")
        modes, count, recruited = self.modes_view, self.count_view, self.recruited_view
        mode = int(request.mode)
        for i, load in zip(members, loads):
            committed[i] = load
            count[i] += 1
            if modes[i] == _SLEEP:
                modes[i] = mode
                recruited[i] = True
        self.live[request.id] = (members, allocs)

    def release(self, request_id: int) -> None:
        """Return a completed request's allocations, after checking that no
        server drops below zero; drained recruits go back to sleep."""
        entry = self.live.pop(request_id, None)
        if entry is None:
            raise InternalConsistencyError(f"completion for unknown request {request_id}")
        members, allocs = entry
        committed = self.committed_view
        loads = [committed[i] - a for i, a in zip(members, allocs)]
        if min(loads) < -CAPACITY_TOL:
            raise InternalConsistencyError(f"request {request_id} released to a negative load")
        modes, recruited = self.modes_view, self.recruited_view
        for i, load in zip(members, loads):
            if recruited[i] and load <= CAPACITY_TOL:
                committed[i] = 0.0  # clear float residue
                modes[i] = _SLEEP
                recruited[i] = False
            else:
                committed[i] = load

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


def init_servers(topology: ContactTopology, config: EngineConfig, seed: int) -> Fleet:
    """Draw each server's mode, background load and unit cost, and number
    the servers cheapest first.

    The draws come from a generator seeded with `seed`, in this order per
    fleet: modes, unit costs, background loads. Sleeping servers always
    start with zero background load. The drawn servers are then reordered
    by the stable order of their costs, all three columns together, so
    server i is the i-th cheapest and the (unit cost, id) order that every
    auction choice follows is plain id order (`market.ContactOrder`).

    This renumbers the same servers and leaves the model as it was. The
    topology and fleet sub-seeds are independent, and `organize`'s law does
    not change when cores are renumbered, so a topology paired with the
    renumbered fleet has the law of one paired with the fleet as drawn.
    Every reported statistic is label-free.
    """
    rng = np.random.default_rng(seed)
    n = topology.n_core
    modes = rng.choice(4, size=n, p=list(config.initial_state_mix)).astype(np.int8)
    costs = rng.uniform(config.cost_range[0], config.cost_range[1], size=n)
    lo, hi = config.initial_load_range
    loads = rng.uniform(lo, hi, size=n) * config.capacity_scu
    cheapest_first = np.argsort(costs)
    modes, costs = modes[cheapest_first], costs[cheapest_first]
    background = np.where(modes == _SLEEP, 0.0, loads[cheapest_first])
    if not (costs[1:] > costs[:-1]).all():  # runs of equal costs in drawn order
        runs = np.cumsum(np.concatenate(([True], costs[1:] > costs[:-1])))
        tied = np.argsort(runs * n + cheapest_first)
        modes, background = modes[tied], background[tied]
    return Fleet(modes=modes, capacity=config.capacity_scu,
                 background=background, unit_cost=costs)


@dataclass
class RunStats:
    """Completion counters and determinism digest of one engine run; the
    auction outcomes themselves are recorded by the metrics sink."""

    completed: int = 0                 # total completions, including the drain
    completed_at_stream_end: int = 0
    in_flight_at_stream_end: int = 0
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
    The market takes over `rng` for its invitations: nothing else may draw
    from it during or after the run. The stream is read BLOCK_REQUESTS
    requests at a time, and each block is handed to the market
    (`Market.invite`) before its first auction.
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

    stream = iter(requests)
    for block in iter(lambda: list(islice(stream, BLOCK_REQUESTS)), []):
        mkt.invite(block)
        for request in block:
            while heap and heap[0][0] <= request.arrival_time:
                complete_one()
            outcome = mkt.run_auction(request)
            if outcome.bid is not None:
                fleet.commit(request, outcome.bid.coalition)
                heapq.heappush(heap, (request.arrival_time + request.duration, request.id))
            sink.record_outcome(outcome, request.mode)
            on_event(request.arrival_time, EV_ARRIVAL, request.id)

    # the completion queue and the live ledger each hold the won requests
    # not yet released
    if len(heap) != len(fleet.live):
        raise InternalConsistencyError("in-flight ledger does not balance")
    stats.in_flight_at_stream_end = len(fleet.live)
    stats.completed_at_stream_end = stats.completed
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

    stats.event_digest = digest.hexdigest()
    return stats
