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
`Invitations` draws the block's invitations in one pass: numpy's Floyd
samples decoded from raw words (`draws.FloydSamples`) in runs with small
invitations, `rng.choice` once per request in runs with large ones."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .draws import FloydSamples
from .errors import ConfigurationError, InternalConsistencyError
from .topology import ContactTopology, for_row_chunks, secondary_mask
from .workload import Mode, ServiceRequest

# Smallest allocation a server is recruited for, in SCU.
MIN_ALLOCATION = 0.01
_TRIM_EPS = 1e-9
# Mode.SLEEP as a plain int: an enum member lookup costs more per request
_SLEEP = int(Mode.SLEEP)
# 32-bit draws per invitation from which a run leaves its invitations to
# rng.choice. Invitations of k of ~2,000 cores cost, decoded in blocks of
# 512, 2.0-2.1 / 2.2-2.3 / 3.5-3.7 / 11.6-11.7 us at k = 12 / 13 / 20 / 60
# against 7.1-8.3 / 7.6 / 7.6-8.0 / 9.3-9.4 us through rng.choice (best of
# 5, two runs, 2-CPU host). Floyd's rule compares each slot with those
# before it, so the decoder's cost grows with k**2 and loses at
# exp1/exp2-desk's k ~ 60. No preset draws between 25 and 115 times, so
# the line stays here.
_NUMPY_DRAWS = 25
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
    the one of lowest rank.

    The order owns the topology's primary-contact matrix: it sorts every
    row in place, and `primary_sorted` is that same array, so set-up holds
    one N x n matrix. A row's sorted order does not depend on its starting
    order, so a topology reused with another fleet is re-sorted correctly.
    The rows are sorted in chunks on the process's CPUs
    (`topology.for_row_chunks`); a chunk draws nothing and writes only its
    own rows, so the result cannot depend on how the chunks were shared.
    The gathers are bounds-checked `np.take`s: a contact id outside the
    fleet raises IndexError.
    Assembly reads a row through a memoryview, one Python int at a time.
    Secondary contacts are recomputed from the topology on every call
    (`topology.secondary_mask`); the order keeps no per-core state.
    """

    def __init__(self, topology: ContactTopology, fleet):
        self.topology = topology
        n = topology.n_core
        self.by_rank = np.argsort(fleet.unit_cost, kind="stable").astype(np.int32)
        self.rank = np.empty(n, dtype=np.int32)
        self.rank[self.by_rank] = np.arange(n, dtype=np.int32)
        contacts = topology.core_primary_contacts

        def order(rows: slice) -> None:
            # np.take costs about half what fancy indexing with int32 ids does
            ranks = np.take(self.rank, contacts[rows])
            ranks.sort(axis=1)
            contacts[rows] = np.take(self.by_rank, ranks)

        for_row_chunks(order, n, contacts.shape[1])
        self.primary_sorted = contacts
        self._rank_of = memoryview(self.rank).__getitem__

    def sort_ids(self, ids: list[int]) -> list[int]:
        """`ids` in (unit cost, id) order. Ranks are unique, so this is the
        order of `by_rank[np.sort(rank[ids])]`; sorting a few Python ints by
        their rank costs less than the numpy round trip."""
        return sorted(ids, key=self._rank_of)

    def secondary(self, core: int) -> np.ndarray:
        """All cores sharing a periphery server with `core`, cost-ordered."""
        mask = secondary_mask(self.topology, core)
        return self.by_rank[mask[self.by_rank]]


def _replays(pop: int, k: int) -> bool:
    """Whether a run whose largest invitation draws k of pop cores decodes
    its invitations from raw words: below _NUMPY_DRAWS draws (Floyd's one
    per slot above max(pop - k, 1), the shuffle's one per position above
    0). Runs from there on leave them to rng.choice."""
    return pop - max(pop - k, 1) + k - 1 < _NUMPY_DRAWS


def _choice(rng: np.random.Generator, pcs: np.ndarray, k: int) -> list[int]:
    # drawing positions draws what drawing elements does, and leaves `pcs`
    # unconverted
    return pcs[rng.choice(len(pcs), size=k, replace=False)].tolist()


class Invitations:
    """The invitations of one run. A request entering at periphery p
    invites ceil(fraction * |pcs|) of the cores p knows, as
    `rng.choice(pcs, ..., replace=False)` draws them request after request;
    none, with no draw, when p knows none. It takes over `rng`.

    Both ways of drawing return what `rng.choice` does, so the run picks
    one, by its largest known-core list, for speed alone (`replayed`). No
    preset straddles the line: exp5 and exp6 draw once per sample, `scale`
    (exp3 at N=200,000) 3-5 times and exp3/exp4-desk 5-9 times, all
    decoded in blocks; exp1/exp2-desk draw 115-125 times and the published
    exp1-exp4 167 times, all left to `rng.choice`.
    """

    def __init__(self, topology: ContactTopology, fraction: float, rng: np.random.Generator):
        self._ids, self._starts = topology.known_core_table()
        self._pops = np.diff(self._starts)
        # math.ceil(fraction * len(pcs)) for every list at once
        self._ks = np.ceil(fraction * self._pops).astype(np.int64)
        pop = int(self._pops.max(initial=0))
        self.replayed = _replays(pop, math.ceil(fraction * pop))
        if self.replayed:
            self._floyd = FloydSamples(rng)
        else:
            self._choice = partial(_choice, rng)
            self._pcs = topology.periphery_known_cores
            self._k_of = self._ks.tolist()

    def draw(self, peripheries: list[int]) -> Iterable[list[int]]:
        """The invitations of requests entering at `peripheries`, in turn:
        decoded at once, or left to rng.choice one at a time as they are
        read, so that a block holds no large invitations."""
        if not self.replayed:
            pcs, k_of, choice = self._pcs, self._k_of, self._choice
            return (choice(pcs[p], k_of[p]) for p in peripheries)
        at = np.array(peripheries, np.intp)
        ks = self._ks[at]
        drawn = self._floyd.positions(self._pops[at], ks)
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
