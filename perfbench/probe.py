"""Layer probes for the sococ benchmark.

A `Probe` replaces sococ's public callables at the names their callers look
them up by (module globals and class attributes), so the simulator's own code
is measured unchanged. Untraced, it wraps only the three calls that mark the
end-to-end phases: `harness.init_servers` (to capture the fleet for the
ledger check), `market.Market` (end of set-up) and `engine.run` (the request
loop). Traced, it also records one span per wrapped call, with the layer
name, start, end, parent span and the request id the call served, plus the
outcome counters that explain the timings.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sococ import engine, harness, market, metrics
from sococ.workload import Mode

# Layers called once or more per request; each gets per-call statistics.
CALL_LAYERS = (
    "workload.stream",
    "market.auction",
    "market.invite",
    "market.elect",
    "market.assemble",
    "market.price",
    "market.sort_ids",
    "market.secondary",
    "engine.commit",
    "engine.release",
    "metrics.record",
)


class Probe:
    """Wrappers, spans and counters for one `run_experiment` call."""

    def __init__(self, traced: bool):
        self.traced = traced
        # (layer, start, end, parent span index or -1, request id or -1)
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self._request_id = -1
        self.fleet = None
        self.market_built = 0.0
        self.run_end = 0.0
        self.contact_bytes = 0
        self.order_bytes = 0
        self.candidates = 0
        # (request id, coalition, price) of every winning bid, hashed after
        # the run so the hashing does not count as engine.run self time
        self.won: list = []
        self.fail_no_leader = 0
        self.fail_assembly = 0
        self.fail_pool = 0
        self.sleepers_woken = 0
        self.peak_in_flight = 0

    @property
    def outcome_digest(self) -> str:
        """sha256 over every committed coalition: request id, members,
        allocations and price."""
        h = hashlib.sha256()
        for request_id, coalition, price in self.won:
            h.update(struct.pack("<qqd", request_id, coalition.size, price))
            h.update(coalition.member_ids.astype("<i8").tobytes())
            h.update(coalition.allocations.astype("<f8").tobytes())
        return h.hexdigest()

    def call(self, layer: str, fn, args, kwargs, request_id: int | None = None):
        """Run fn(*args, **kwargs), recording a span when traced.

        The span carries `request_id`, or the enclosing call's when None.
        """
        if not self.traced:
            return fn(*args, **kwargs)
        if request_id is not None:
            self._request_id = request_id
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self._request_id)

    def _stream(self, requests):
        """Time each request the lazy stream yields, as one span."""
        stack = self._stack
        while True:
            parent = stack[-1] if stack else -1
            start = perf_counter()
            try:
                request = next(requests)
            except StopIteration:
                return
            self.spans.append(
                ("workload.stream", start, perf_counter(), parent, request.id)
            )
            yield request

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []

        def patch(owner, name, make):
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))

        try:
            self._install(patch)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _install(self, patch) -> None:
        """patch(owner, name, make) replaces owner.name with make(original)."""

        def timed(layer, request_id=None):
            return lambda fn: lambda *a, **k: self.call(layer, fn, a, k, request_id)

        def init_servers(fn):
            def wrapper(*a, **k):
                self.fleet = self.call("engine.init", fn, a, k, -1)
                return self.fleet
            return wrapper

        def market_ctor(fn):
            def wrapper(*a, **k):
                mkt = self.call("market.order_build", fn, a, k, -1)
                self.market_built = perf_counter()
                if self.traced:
                    self.order_bytes = mkt.order.rank.nbytes + mkt.order.primary_sorted.nbytes
                return mkt
            return wrapper

        def engine_run(fn):
            def wrapper(*a, **k):
                try:
                    return self.call("engine.run", fn, a, k, -1)
                finally:
                    self.run_end = perf_counter()
            return wrapper

        def organize(fn):
            def wrapper(*a, **k):
                topo = self.call("topology.organize", fn, a, k, -1)
                self.contact_bytes = (
                    topo.core_known_periphery.nbytes
                    + topo.core_primary_contacts.nbytes
                    + topo.aux_roster.nbytes
                    + sum(p.nbytes for p in topo.periphery_known_cores)
                )
                return topo
            return wrapper

        def generate_stream(fn):
            return lambda *a, **k: self._stream(fn(*a, **k))

        def run_auction(fn):
            def wrapper(mkt, request):
                outcome = self.call("market.auction", fn, (mkt, request), {}, request.id)
                self.candidates += outcome.candidates_contacted
                if outcome.bid is None:
                    if mkt.config.initiation == "C1":
                        self.fail_pool += 1
                    return outcome
                self.won.append((request.id, outcome.bid.coalition, outcome.bid.price))
                return outcome
            return wrapper

        def elect_leader(fn):
            def wrapper(*a, **k):
                leader = self.call("market.elect", fn, a, k)
                self.fail_no_leader += leader is None
                return leader
            return wrapper

        def assemble_coalition(fn):
            def wrapper(*a, **k):
                coalition = self.call("market.assemble", fn, a, k)
                self.fail_assembly += coalition is None
                return coalition
            return wrapper

        def commit(fn):
            def wrapper(fleet, request, coalition):
                ids = coalition.member_ids
                self.sleepers_woken += int(np.count_nonzero(fleet.modes[ids] == Mode.SLEEP))
                self.call("engine.commit", fn, (fleet, request, coalition), {}, request.id)
                self.peak_in_flight = max(self.peak_in_flight, len(fleet.live))
            return wrapper

        def release(fn):
            return lambda fleet, rid: self.call("engine.release", fn, (fleet, rid), {}, rid)

        def record_outcome(fn):
            return lambda sink, outcome, mode: self.call(
                "metrics.record", fn, (sink, outcome, mode), {}, outcome.request_id)

        market_cls = market.Market
        patch(harness, "init_servers", init_servers)
        patch(engine, "run", engine_run)
        patch(market, "Market", market_ctor)
        if not self.traced:
            return
        patch(harness, "organize", organize)
        patch(harness, "generate_stream", generate_stream)
        patch(harness, "build_report", timed("metrics.build_report", -1))
        patch(harness, "emit", timed("metrics.emit", -1))
        patch(market_cls, "run_auction", run_auction)
        patch(market, "invite_leader_candidates", timed("market.invite"))
        patch(market, "elect_leader", elect_leader)
        patch(market, "assemble_coalition", assemble_coalition)
        patch(market, "price_bid", timed("market.price"))
        patch(market.ContactOrder, "sort_ids", timed("market.sort_ids"))
        patch(market.ContactOrder, "secondary", timed("market.secondary"))
        patch(engine.Fleet, "commit", commit)
        patch(engine.Fleet, "release", release)
        patch(metrics.MetricsSink, "record_outcome", record_outcome)

    def layer_times(self) -> tuple[dict[str, np.ndarray], dict[str, float]]:
        """Per-layer call durations and total self time, in seconds.

        A span's self time is its duration minus that of its direct
        children, which never overlap because the simulator is
        single-threaded.
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        durations: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            durations.setdefault(layer, []).append(end - start)
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - children[i]
        return {k: np.array(v) for k, v in durations.items()}, self_s

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("span,layer,start_s,end_s,parent,request_id\n")
            for i, (layer, start, end, parent, rid) in enumerate(self.spans):
                f.write(f"{i},{layer},{start!r},{end!r},{parent},{rid}\n")
