"""Coalition-formation auctions.

Two initiation protocols are supported. Under C2 (core-initiated) the entry
periphery server invites a small random subset of the cores it knows to
stand as leader; the cheapest eligible candidate wins the election and
greedily assembles a coalition over its primary (and optionally secondary)
contacts. Under C1 (periphery-initiated) the periphery draws a pool from its
own known cores and fills one coalition from that pool only. Either way an
auction yields at most one bid, priced at its coalition's cost, and the
engine commits it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError
from .topology import ContactTopology, row_chunks
from .workload import Mode, ServiceRequest

# Smallest allocation a server is recruited for, in SCU.
MIN_ALLOCATION = 0.01
_TRIM_EPS = 1e-9
_SECONDARY_CACHE_CAP = 512


@dataclass(frozen=True)
class MarketConfig:
    initiation: str = "C2"  # "C1" or "C2"
    leader_candidate_fraction: float = 0.001
    use_secondary_contacts: bool = False
    invited_fraction_c1: float = 0.001

    def __post_init__(self) -> None:
        if self.initiation not in ("C1", "C2"):
            raise ConfigurationError("initiation must be 'C1' or 'C2'")
        for name in ("leader_candidate_fraction", "invited_fraction_c1"):
            f = getattr(self, name)
            if not 0.0 < f <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1]")


@dataclass
class Coalition:
    """A leader-headed member set whose allocations cover one request."""

    leader: int
    member_ids: np.ndarray
    allocations: np.ndarray
    request_id: int

    @property
    def members(self) -> list[tuple[int, float]]:
        return [(int(i), float(a)) for i, a in zip(self.member_ids, self.allocations)]

    @property
    def size(self) -> int:
        return len(self.member_ids)


@dataclass
class Bid:
    coalition: Coalition
    price: float


@dataclass
class AuctionOutcome:
    request_id: int
    bid: Bid | None  # None means the request went unsatisfied
    candidates_contacted: int


def _eligible_ids(fleet, ids: np.ndarray, mode: Mode) -> np.ndarray:
    """The servers among `ids` that can join a coalition for `mode`, in order:
    those running `mode` or asleep, with at least MIN_ALLOCATION free."""
    if ids.size == 0:
        return ids
    modes = fleet.modes[ids]
    mask = (modes == int(mode)) | (modes == Mode.SLEEP)
    mask &= (fleet.capacity - fleet.committed[ids]) >= MIN_ALLOCATION
    return ids[mask]


class ContactOrder:
    """Cost-ordered views of the contact lists for one (topology, fleet).

    Unit costs are static, so the (unit cost, id) total order is computed
    once: `by_rank` lists the ids in that order and `rank` is its inverse
    permutation. A set of ids is cost-ordered by sorting its ranks and
    mapping them back through `by_rank`.

    The order owns the topology's primary-contact matrix: it sorts every
    row in place, and `primary_sorted` is that same array, so set-up holds
    one N x n matrix. A row's sorted order does not depend on its starting
    order, so a topology reused with another fleet is re-sorted correctly.
    Secondary-contact lists are built lazily and kept in a bounded cache.
    """

    def __init__(self, topology: ContactTopology, fleet):
        self.topology = topology
        self.fleet = fleet
        n = topology.n_core
        self.by_rank = np.lexsort((np.arange(n), fleet.unit_cost)).astype(np.int32)
        self.rank = np.empty(n, dtype=np.int32)
        self.rank[self.by_rank] = np.arange(n, dtype=np.int32)
        contacts = topology.core_primary_contacts
        for rows in row_chunks(n, contacts.shape[1]):
            ranks = self.rank[contacts[rows]]
            ranks.sort(axis=1)
            contacts[rows] = self.by_rank[ranks]
        self.primary_sorted = contacts
        self._secondary: OrderedDict[int, np.ndarray] = OrderedDict()

    def sort_ids(self, ids: np.ndarray) -> np.ndarray:
        return self.by_rank[np.sort(self.rank[ids])]

    def secondary(self, core: int) -> np.ndarray:
        """All cores sharing a periphery server with `core`, cost-ordered."""
        cached = self._secondary.get(core)
        if cached is not None:
            self._secondary.move_to_end(core)
            return cached
        pcs = self.topology.periphery_known_cores
        ids = np.concatenate([pcs[p] for p in self.topology.core_known_periphery[core]])
        ids = self.by_rank[np.unique(self.rank[ids])]
        ids = ids[ids != core]
        if len(self._secondary) >= _SECONDARY_CACHE_CAP:
            self._secondary.popitem(last=False)
        self._secondary[core] = ids
        return ids


def invite_leader_candidates(
    periphery: int,
    topology: ContactTopology,
    config: MarketConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform random subset of ceil(fraction * |pcs|) leader candidates."""
    pcs = topology.periphery_known_cores[periphery]
    if pcs.size == 0:
        return np.zeros(0, dtype=np.int32)
    k = math.ceil(config.leader_candidate_fraction * pcs.size)
    return rng.choice(pcs, size=k, replace=False)


def elect_leader(candidates: np.ndarray, fleet, request: ServiceRequest) -> int | None:
    """Cheapest eligible candidate, ties broken by lowest id."""
    elig = _eligible_ids(fleet, np.asarray(candidates), request.mode)
    if elig.size == 0:
        return None
    best = np.lexsort((elig, fleet.unit_cost[elig]))[0]
    return int(elig[best])


def _fill_from_pool(
    pool: np.ndarray, free: np.ndarray, need: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Take pool members in order at full free capacity until `need` is
    covered; the last allocation is trimmed to hit `need` exactly."""
    if need <= 0:
        return np.zeros(0, np.int32), np.zeros(0)
    if pool.size == 0:
        return None
    cum = np.cumsum(free)
    if cum[-1] + _TRIM_EPS < need:
        return None
    k = int(np.searchsorted(cum, need - _TRIM_EPS, side="left"))
    allocs = free[: k + 1].copy()
    allocs[k] = need - (cum[k - 1] if k > 0 else 0.0)
    return pool[: k + 1], allocs


def assemble_coalition(
    leader: int,
    request: ServiceRequest,
    fleet,
    order: ContactOrder,
    use_secondary: bool,
) -> Coalition | None:
    """Greedy coalition assembly around an elected leader.

    Precondition, not checked here: the leader is eligible for the request,
    as `elect_leader`'s result is for the fleet state it was elected on. The
    leader contributes its full free capacity first; its primary contacts
    are scanned in ascending (unit cost, id) order, each eligible one joining
    at full free capacity, until the workload is covered. When the primary
    list is exhausted and use_secondary is set, the scan continues over the
    leader's secondary contacts in the same order. Returns None when the
    reachable capacity cannot cover the workload.
    """
    need = request.workload
    leader_free = float(fleet.capacity - fleet.committed[leader])
    if leader_free + _TRIM_EPS >= need:
        return Coalition(leader, np.array([leader], np.int32), np.array([need]), request.id)

    member_ids = [np.array([leader], np.int32)]
    member_allocs = [np.array([leader_free])]
    remaining = need - leader_free

    pool = _eligible_ids(fleet, order.primary_sorted[leader], request.mode)
    pool = pool[pool != leader]
    free = fleet.capacity - fleet.committed[pool]
    filled = _fill_from_pool(pool, free, remaining)

    if filled is None and use_secondary:
        # all eligible primaries join in full; the tail comes from
        # secondary contacts not already recruited
        taken = float(free.sum())
        member_ids.append(pool)
        member_allocs.append(free)
        remaining -= taken
        sec = _eligible_ids(fleet, order.secondary(leader), request.mode)
        sec = sec[~np.isin(sec, pool)]
        sec_free = fleet.capacity - fleet.committed[sec]
        filled = _fill_from_pool(sec, sec_free, remaining)

    if filled is None:
        return None
    ids, allocs = filled
    member_ids.append(ids)
    member_allocs.append(allocs)
    all_ids = np.concatenate(member_ids)
    all_allocs = np.concatenate(member_allocs)
    keep = all_allocs > 0.0
    return Coalition(leader, all_ids[keep], all_allocs[keep], request.id)


def price_bid(coalition: Coalition, fleet) -> Bid:
    """Price a coalition: sum of allocation times member unit cost."""
    ids = coalition.member_ids
    if ids.size and (ids.min() < 0 or ids.max() >= fleet.n):
        raise InternalConsistencyError("coalition references unknown server ids")
    price = float(np.dot(coalition.allocations, fleet.unit_cost[ids]))
    return Bid(coalition=coalition, price=price)


class Market:
    """Per-run auction coordinator holding the cost-order cache and rng."""

    def __init__(
        self,
        topology: ContactTopology,
        fleet,
        config: MarketConfig,
        rng: np.random.Generator,
    ):
        self.topology = topology
        self.fleet = fleet
        self.config = config
        self.rng = rng
        self.order = ContactOrder(topology, fleet)

    def run_auction(self, request: ServiceRequest) -> AuctionOutcome:
        """Run one auction against the current fleet state.

        Winning allocations are NOT applied here; the engine commits them so
        the commit stays atomic with completion scheduling.
        """
        if self.config.initiation == "C2":
            return self._run_c2(request)
        return self._run_c1(request)

    def _run_c1(self, request: ServiceRequest) -> AuctionOutcome:
        pcs = self.topology.periphery_known_cores[request.entry_periphery]
        if pcs.size == 0:
            return AuctionOutcome(request.id, None, 0)
        k = math.ceil(self.config.invited_fraction_c1 * pcs.size)
        invited = self.rng.choice(pcs, size=k, replace=False)
        pool = self.order.sort_ids(_eligible_ids(self.fleet, invited, request.mode))
        free = self.fleet.capacity - self.fleet.committed[pool]
        filled = _fill_from_pool(pool, free, request.workload)
        if filled is None:
            return AuctionOutcome(request.id, None, k)
        ids, allocs = filled
        coalition = Coalition(int(ids[0]), ids, allocs, request.id)
        return AuctionOutcome(request.id, price_bid(coalition, self.fleet), k)

    def _run_c2(self, request: ServiceRequest) -> AuctionOutcome:
        candidates = invite_leader_candidates(
            request.entry_periphery, self.topology, self.config, self.rng
        )
        k = candidates.size
        leader = elect_leader(candidates, self.fleet, request)
        if leader is None:
            return AuctionOutcome(request.id, None, k)
        coalition = assemble_coalition(
            leader, request, self.fleet, self.order, self.config.use_secondary_contacts
        )
        if coalition is None:
            return AuctionOutcome(request.id, None, k)
        return AuctionOutcome(request.id, price_bid(coalition, self.fleet), k)
