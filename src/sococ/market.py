"""Coalition-formation auctions.

Two initiation protocols are supported. Under C2 (core-initiated) the entry
periphery server invites a small random subset of the cores it knows to
stand as leader; the cheapest eligible candidate wins the election and
greedily assembles a coalition over its primary (and optionally secondary)
contacts. Under C1 (periphery-initiated) the periphery draws a pool from its
own known cores and fills one coalition from that pool only. Either way an
auction yields at most one bid, priced at its coalition's cost, and the
engine commits it.

Every phase scans a cost-ordered list one server at a time through one
eligibility rule, `_eligible`, and stops as soon as the request is served:
coalitions take a few servers out of hundreds of contacts.

An invitation depends only on the entry periphery and the market's
generator, never on fleet state. So the engine hands the market each block
of upcoming requests before auctioning them (`Market.invite`), and
`Invitations` draws the block's invitations together, through the
topology's sampler of distinct values (`topology._distinct_sorted_rows`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError
from .topology import (
    ContactTopology, _distinct_sorted_rows, for_row_chunks, secondary_mask)
from .workload import Mode, ServiceRequest

# Smallest allocation a server is recruited for, in SCU.
MIN_ALLOCATION = 0.01
_TRIM_EPS = 1e-9
# Mode.SLEEP as a plain int: an enum member lookup costs more per request
_SLEEP = int(Mode.SLEEP)
Sampler = Callable[[np.ndarray, int], list[int]]  # (pcs, k) -> k of pcs


@dataclass(frozen=True)
class MarketConfig:
    """`invited_fraction` is the share of its known cores an entry periphery
    invites: as leader candidates under C2, as the coalition pool under C1."""

    initiation: str = "C2"  # "C1" or "C2"
    invited_fraction: float = 0.001
    use_secondary_contacts: bool = False

    def __post_init__(self) -> None:
        if self.initiation not in ("C1", "C2"):
            raise ConfigurationError("initiation must be 'C1' or 'C2'")
        if not 0.0 < self.invited_fraction <= 1.0:
            raise ConfigurationError("invited_fraction must be in (0, 1]")


@dataclass
class Coalition:
    """A member set whose allocations cover one request; member_ids[0] is
    the leader."""

    member_ids: np.ndarray
    allocations: np.ndarray

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


def _eligible(fleet, ids: Iterable[int], mode: Mode) -> Iterator[tuple[int, float]]:
    """Yield (id, free capacity) for each server among `ids` that can join a
    coalition for `mode`, lazily and in input order: those running `mode` or
    asleep, with at least MIN_ALLOCATION free.

    `ids` is a list or a memoryview of an id array: either yields Python
    ints one at a time, so a scan that stops early reads nothing past its
    stop."""
    mode_of, committed = fleet.modes_view, fleet.committed_view
    capacity, wanted = fleet.capacity, int(mode)
    for i in ids:
        server_mode = mode_of[i]
        if server_mode == wanted or server_mode == _SLEEP:
            free = capacity - committed[i]
            if free >= MIN_ALLOCATION:
                yield i, free


class ContactOrder:
    """Cost-ordered views of the contact lists for one (topology, fleet).

    Unit costs are static, so the (unit cost, id) total order is computed
    once: `by_rank` lists the ids in that order (a stable sort by cost
    breaks ties by id) and `rank` is its inverse permutation. A set of ids
    is cost-ordered by sorting it by rank; its first member in that order is
    the one of lowest rank. On a fleet numbered cheapest first, as
    `engine.init_servers` numbers it, that order is id order: `rank` and
    `by_rank` are the identity and ids sort by value. An O(N) check that
    `unit_cost` is non-decreasing tells such a fleet.

    The order owns the topology's primary-contact matrix: it puts every
    row in order in place, and `primary_sorted` is that same array, so
    set-up holds one N x n matrix. On a numbered fleet a chunk sorts only
    the rows not ascending by id: `organize` leaves none, and a topology
    that an earlier fleet left in another order comes back in id order. For
    any other fleet it gathers each row's ranks, sorts them and gathers the
    ids back. Either way a contact id outside the fleet raises IndexError.
    The rows are ordered in chunks on the process's CPUs
    (`topology.for_row_chunks`); a chunk draws nothing and writes only its
    own rows, so the result cannot depend on how the chunks were shared.
    Assembly reads a row through a memoryview, one Python int at a time.
    Secondary contacts are recomputed from the topology on every call
    (`topology.secondary_mask`); the order keeps no per-core state.
    """

    def __init__(self, topology: ContactTopology, fleet):
        self.topology = topology
        n = topology.n_core
        cost = fleet.unit_cost
        contacts = topology.core_primary_contacts

        if (cost[1:] >= cost[:-1]).all():
            self.by_rank = self.rank = np.arange(n, dtype=np.int32)
            self._rank_of = None  # ids sort by value

            def order(rows: slice) -> None:
                block = contacts[rows]
                unsorted = np.flatnonzero((block[:, 1:] < block[:, :-1]).any(axis=1))
                if unsorted.size:
                    block[unsorted] = np.sort(block[unsorted], axis=1)
                # every row is ascending now, so its ends bound it
                if block.size and (block[:, 0].min() < 0 or block[:, -1].max() >= n):
                    raise IndexError(f"a primary contact lies outside the fleet of {n} cores")
        else:
            self.by_rank = np.argsort(cost, kind="stable").astype(np.int32)
            self.rank = np.empty(n, dtype=np.int32)
            self.rank[self.by_rank] = np.arange(n, dtype=np.int32)
            self._rank_of = memoryview(self.rank).__getitem__

            def order(rows: slice) -> None:
                # np.take costs about half what fancy indexing with int32
                # ids does, and checks bounds
                ranks = np.take(self.rank, contacts[rows])
                ranks.sort(axis=1)
                contacts[rows] = np.take(self.by_rank, ranks)

        for_row_chunks(order, n, contacts.shape[1])
        self.primary_sorted = contacts

    def sort_ids(self, ids: list[int]) -> list[int]:
        """`ids` in (unit cost, id) order. Ranks are unique, so this is the
        order of `by_rank[np.sort(rank[ids])]`; sorting a few Python ints by
        their rank, or by value on a numbered fleet, costs less than the
        numpy round trip."""
        return sorted(ids, key=self._rank_of)

    def secondary(self, core: int) -> np.ndarray:
        """All cores sharing a periphery server with `core`, cost-ordered:
        in id order on a numbered fleet."""
        mask = secondary_mask(self.topology, core)
        if self._rank_of is None:
            return np.flatnonzero(mask)
        return self.by_rank[mask[self.by_rank]]


class Invitations:
    """The invitations of one run. A request entering at periphery p
    invites a uniform random subset of ceil(fraction * |pcs|) of the cores
    p knows, in list order; none, with no draw, when p knows none. It takes
    over `rng`.

    The invitations of a block of requests are drawn together, one row of
    positions per request (`topology._distinct_sorted_rows`), so they
    depend on how the requests are split into blocks.
    """

    def __init__(self, topology: ContactTopology, fraction: float, rng: np.random.Generator):
        self._rng = rng
        self._ids, self._starts = topology.known_core_table()
        self._pops = topology.pcs_sizes()
        # math.ceil(fraction * len(pcs)) for every list at once
        self._ks = np.ceil(fraction * self._pops).astype(np.int64)

    def draw(self, peripheries: list[int]) -> list[list[int]]:
        """The invitations of requests entering at `peripheries`, in turn."""
        at = np.array(peripheries, np.intp)
        ks = self._ks[at]
        drawn = _distinct_sorted_rows(self._rng, len(at), ks, self._pops[at])
        taken = np.arange(drawn.shape[1]) < ks[:, None]
        ids = self._ids[(drawn + self._starts[at, None])[taken]].tolist()
        ends = np.cumsum(ks).tolist()
        return [ids[a:b] for a, b in zip([0, *ends], ends)]


def invite_leader_candidates(
    periphery: int,
    topology: ContactTopology,
    config: MarketConfig,
    sample: Sampler,
) -> list[int]:
    """Uniform random subset of ceil(fraction * |pcs|) leader candidates,
    drawn by `sample`; a run draws them through `Invitations` instead."""
    pcs = topology.periphery_known_cores[periphery]
    return sample(pcs, math.ceil(config.invited_fraction * len(pcs)))


def elect_leader(
    candidates: list[int], fleet, request: ServiceRequest, order: ContactOrder
) -> int | None:
    """Cheapest eligible candidate, ties broken by lowest id: the first
    eligible candidate in `order`. Sorting the candidates first and scanning
    until one is eligible is cheaper than testing them all."""
    for leader, _ in _eligible(fleet, order.sort_ids(candidates), request.mode):
        return leader
    return None


def _fill(
    servers: Iterable[tuple[int, float]], need: float, ids: list, allocs: list
) -> bool:
    """Append (id, free) servers to `ids` and `allocs` at full free capacity
    until `need` is covered, stopping at the server that covers it, whose
    allocation is trimmed to hit `need` exactly. Returns whether it was.

    Every allocation is positive: a full one is at least MIN_ALLOCATION, and
    a trimmed one is `need` itself or exceeds _TRIM_EPS, since the servers
    before it summed to less than `need - _TRIM_EPS`."""
    cum = 0.0
    for i, free in servers:
        ids.append(i)
        if cum + free >= need - _TRIM_EPS:
            allocs.append(need - cum)
            return True
        allocs.append(free)
        cum += free
    return False


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
    at full free capacity, and the scan stops at the contact that covers the
    workload. When the primary list is exhausted and use_secondary is set,
    the scan continues over the leader's secondary contacts not already
    recruited, in the same order. Returns None when the reachable capacity
    cannot cover the workload.
    """
    need = request.workload
    leader_free = fleet.capacity - fleet.committed_view[leader]
    if leader_free + _TRIM_EPS >= need:
        return Coalition(np.array([leader], np.int32), np.array([need]))

    ids, allocs = [leader], [leader_free]
    remaining = need - leader_free
    row = memoryview(order.primary_sorted[leader])
    covered = _fill(_eligible(fleet, row, request.mode), remaining, ids, allocs)
    if not covered and use_secondary:
        # all eligible primaries joined in full; the tail comes from
        # secondary contacts not already recruited
        remaining -= float(np.sum(allocs[1:]))
        taken = set(ids)
        secondaries = _eligible(fleet, memoryview(order.secondary(leader)), request.mode)
        covered = _fill((s for s in secondaries if s[0] not in taken), remaining, ids, allocs)
    if not covered:
        return None
    return Coalition(np.array(ids, np.int32), np.array(allocs))


def price_bid(coalition: Coalition, fleet) -> Bid:
    """Price a coalition: sum of allocation times member unit cost."""
    ids = coalition.member_ids
    # coalitions are small, so a list reduction is cheaper than numpy's
    listed = ids.tolist()
    if listed and (min(listed) < 0 or max(listed) >= fleet.n):
        raise InternalConsistencyError("coalition references unknown server ids")
    price = float(np.dot(coalition.allocations, fleet.unit_cost[ids]))
    return Bid(coalition=coalition, price=price)


class Market:
    """Per-run auction coordinator holding the cost order and the run's
    invitations. It takes over `rng`: nothing else may draw from it.

    `invite` queues the invitations of a block of requests, the next ones
    to be auctioned, and `run_auction` serves the queue's head to its
    request. A request auctioned with nothing queued, as a test may do, has
    its invitation drawn alone, as a block of one.
    """

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
        self.invitations = Invitations(topology, config.invited_fraction, rng)
        self.order = ContactOrder(topology, fleet)
        # (request id, invited cores) of the requests invited, not yet auctioned
        self._queue: Iterator[tuple[int, list[int]]] = iter(())

    def invite(self, requests: Sequence[ServiceRequest]) -> None:
        """Queue the invitations of the next requests to be auctioned, in
        auction order (`Invitations.draw`)."""
        invited = self.invitations.draw([r.entry_periphery for r in requests])
        self._queue = chain(self._queue, zip([r.id for r in requests], invited))

    def run_auction(self, request: ServiceRequest) -> AuctionOutcome:
        """Run one auction against the current fleet state.

        Winning allocations are NOT applied here; the engine commits them so
        the commit stays atomic with completion scheduling.
        """
        queued, invited = next(self._queue, (request.id, None))
        if queued != request.id:
            raise InternalConsistencyError(
                f"request {request.id} was auctioned with the invitation of request {queued}")
        if invited is None:
            [invited] = self.invitations.draw([request.entry_periphery])
        if self.config.initiation == "C2":
            return self._run_c2(request, invited)
        return self._run_c1(request, invited)

    def _run_c1(self, request: ServiceRequest, invited: list[int]) -> AuctionOutcome:
        ids, allocs = [], []
        pool = _eligible(self.fleet, self.order.sort_ids(invited), request.mode)
        if not _fill(pool, request.workload, ids, allocs):
            return AuctionOutcome(request.id, None, len(invited))
        coalition = Coalition(np.array(ids, np.int32), np.array(allocs))
        return AuctionOutcome(request.id, price_bid(coalition, self.fleet), len(invited))

    def _run_c2(self, request: ServiceRequest, candidates: list[int]) -> AuctionOutcome:
        k = len(candidates)
        leader = elect_leader(candidates, self.fleet, request, self.order)
        if leader is None:
            return AuctionOutcome(request.id, None, k)
        coalition = assemble_coalition(
            leader, request, self.fleet, self.order, self.config.use_secondary_contacts
        )
        if coalition is None:
            return AuctionOutcome(request.id, None, k)
        return AuctionOutcome(request.id, price_bid(coalition, self.fleet), k)
