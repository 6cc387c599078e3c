"""Auction mechanics: eligibility, election, greedy assembly, pricing."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from sococ import engine, market, topology
from sococ.engine import Fleet, init_servers
from sococ.errors import ConfigurationError, InternalConsistencyError
from sococ.harness import derive_seeds, preset, run_experiment
from sococ.market import (
    MIN_ALLOCATION,
    _TRIM_EPS,
    Coalition,
    ContactOrder,
    Invitations,
    Market,
    MarketConfig,
    _eligible,
    _fill,
    assemble_coalition,
    elect_leader,
    invite_leader_candidates,
    price_bid,
)
from sococ.metrics import MetricsConfig, MetricsSink
from sococ.topology import ContactTopology, TopologyConfig, organize
from sococ.workload import BLOCK_REQUESTS, Mode, ServiceRequest, generate_stream


def make_fleet(modes, costs=None, committed=None, capacity=10.0):
    n = len(modes)
    fleet = Fleet(
        modes=np.array(modes, dtype=np.int8),
        capacity=capacity,
        background=np.array(committed if committed is not None else [0.0] * n),
        unit_cost=np.array(costs if costs is not None else [1.0] * n),
    )
    return fleet


def make_request(mode=Mode.M1, workload=4.0, entry=0, rid=0):
    return ServiceRequest(
        id=rid, arrival_time=0.0, mode=mode, workload=workload,
        duration=1.0, entry_periphery=entry,
    )


def star_topology(n_core, contacts_of_zero):
    """Every core knows the single periphery server; core 0's primary
    contacts are given, everyone else's point at core 0."""
    n = max(1, len(contacts_of_zero))
    contacts = np.zeros((n_core, n), dtype=np.int32)
    contacts[0, : len(contacts_of_zero)] = contacts_of_zero
    for c in range(1, n_core):
        contacts[c, :] = [(c + 1 + i) % n_core for i in range(n)]
    return ContactTopology(
        n_core=n_core,
        n_periphery=1,
        core_known_periphery=np.zeros((n_core, 1), dtype=np.int32),
        core_primary_contacts=contacts,
        periphery_known_cores=[np.arange(n_core, dtype=np.int32)],
    )


def assemble(leader, request, topo, fleet, use_secondary=False):
    return assemble_coalition(
        leader, request, fleet, ContactOrder(topo, fleet), use_secondary
    )


def elect(candidates, fleet, request, topo=None):
    """elect_leader over the fleet's (unit cost, id) order; the topology
    defaults to a star over the fleet, since an election reads no contacts."""
    topo = star_topology(fleet.n, [1]) if topo is None else topo
    return elect_leader(list(candidates), fleet, request, ContactOrder(topo, fleet))


def auction(request, topo, fleet, config, rng):
    return Market(topo, fleet, config, rng).run_auction(request)


# -- eligibility ---------------------------------------------------------------

def eligible_by_rule(fleet, i, mode):
    """The eligibility rule, stated plainly: a server can join a coalition
    when it runs the request's mode or is asleep, and has at least the
    minimum allocation quantum free."""
    server_mode = Mode(int(fleet.modes[i]))
    free = fleet.capacity - float(fleet.committed[i])
    return server_mode in (mode, Mode.SLEEP) and free >= MIN_ALLOCATION


def eligible_ids(fleet, mode):
    """_eligible over the whole fleet, checked against the plain rule."""
    got = [i for i, _ in _eligible(fleet, list(range(fleet.n)), mode)]
    assert got == [i for i in range(fleet.n) if eligible_by_rule(fleet, i, mode)]
    return got


def test_sleeping_server_is_eligible_for_any_mode():
    fleet = make_fleet([Mode.SLEEP])
    assert eligible_ids(fleet, Mode.M2) == [0]
    assert eligible_ids(fleet, Mode.M3) == [0]


def test_full_server_is_not_eligible():
    fleet = make_fleet([Mode.M1, Mode.M1], committed=[10.0, 9.5])
    assert eligible_ids(fleet, Mode.M1) == [1]


def test_free_capacity_of_exactly_min_allocation_is_eligible():
    fleet = make_fleet([Mode.M1, Mode.SLEEP], capacity=MIN_ALLOCATION)
    assert eligible_ids(fleet, Mode.M1) == [0, 1]


def test_mode_mismatch_is_not_eligible():
    fleet = make_fleet([Mode.M2])
    assert eligible_ids(fleet, Mode.M3) == []
    assert eligible_ids(fleet, Mode.M2) == [0]


def test_lazy_eligibility_matches_the_rule_in_input_order():
    rng = np.random.default_rng(0)
    modes = rng.integers(0, 4, size=200)
    committed = rng.uniform(0, 10, size=200)
    fleet = make_fleet(modes, committed=committed)
    ids = memoryview(rng.permutation(200))
    for mode in (Mode.M1, Mode.M2, Mode.M3):
        got = list(_eligible(fleet, ids, mode))
        slow = [i for i in ids if eligible_by_rule(fleet, i, mode)]
        assert [i for i, _ in got] == slow  # same set, input order kept
        assert [free for _, free in got] == [10.0 - committed[i] for i in slow]
        assert 0 < len(got) < 200


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 500])
def test_eligibility_scan_reads_arrays_and_lists_alike(length):
    # an int32 row read through a memoryview, as assembly reads it, yields
    # what the same ids yield as a list
    rng = np.random.default_rng(length)
    modes = rng.integers(0, 4, size=600)
    fleet = make_fleet(modes, committed=np.where(modes == 0, 0.0, rng.uniform(0, 10, 600)))
    ids = rng.permutation(600)[:length].astype(np.int32)
    for mode in (Mode.M1, Mode.M2, Mode.M3):
        from_array = list(_eligible(fleet, memoryview(ids), mode))
        assert from_array == list(_eligible(fleet, ids.tolist(), mode))
        assert [i for i, _ in from_array] == [
            int(i) for i in ids if eligible_by_rule(fleet, i, mode)]
        assert all(type(i) is int for i, _ in from_array)


def test_eligibility_scan_stops_converting_when_it_stops():
    fleet = make_fleet([Mode.M1] * 100_000)
    read = []

    def recording_ids():
        for i in memoryview(np.arange(100_000, dtype=np.int32)):
            read.append(i)
            yield i

    scan = _eligible(fleet, recording_ids(), Mode.M1)
    assert next(scan) == (0, 10.0)
    assert read == [0]
    assert next(scan) == (1, 10.0)  # the scan resumes where it stopped
    assert read == [0, 1]


# -- leader invitation ---------------------------------------------------------

def choice_sampler(rng):
    """A `Sampler` drawing k of a list by rng.choice, for calling
    `invite_leader_candidates` directly."""
    return lambda pcs, k: pcs[rng.choice(len(pcs), size=k, replace=False)].tolist()


def test_invite_count_is_ceiling_of_fraction():
    topo = star_topology(2000, [1])
    config = MarketConfig("C2", invited_fraction=0.001)
    got = invite_leader_candidates(0, topo, config, choice_sampler(np.random.default_rng(0)))
    assert len(got) == 2  # ceil(0.001 * 2000)
    assert len(set(got)) == 2 and set(got) <= set(range(2000))
    # at the published scale a periphery knows ~83,593 cores and the same
    # 0.1% rule invites 84 leader candidates
    assert math.ceil(config.invited_fraction * 83_593) == 84


def test_invite_single_known_core():
    topo = star_topology(1, [])
    config = MarketConfig("C2", invited_fraction=0.001)
    got = invite_leader_candidates(0, topo, config, choice_sampler(np.random.default_rng(0)))
    assert got == [0]


def test_invite_is_reproducible_per_seed():
    # and draw for draw what its sampler picks from the known cores
    topo = star_topology(2000, [1])
    topo.periphery_known_cores[0] = np.arange(0, 4000, 2, dtype=np.int32)
    config = MarketConfig("C2", invited_fraction=0.03)
    a = choice_sampler(np.random.default_rng(5))
    b = choice_sampler(np.random.default_rng(5))
    reference = np.random.default_rng(5)
    for _ in range(20):
        got = invite_leader_candidates(0, topo, config, a)
        assert got == invite_leader_candidates(0, topo, config, b)
        want = reference.choice(topo.periphery_known_cores[0], size=60, replace=False)
        assert got == want.tolist()


def test_invite_empty_pcs_yields_no_candidates(monkeypatch):
    # beside a list invited in part (3 of 100) and in full (all of 50): an
    # empty list takes no draw, and its C2 auction fails with no leader,
    # before any assembly
    monkeypatch.setattr(market, "assemble_coalition",
                        lambda *args: pytest.fail("assembled with no leader"))
    for pop, fraction in ((100, 0.03), (50, 1.0)):
        lists = [np.zeros(0, dtype=np.int32), np.arange(pop, dtype=np.int32)]
        topo = replace(star_topology(pop, [1]), n_periphery=2, periphery_known_cores=lists)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        mkt = Market(topo, make_fleet([Mode.M1] * pop), MarketConfig("C2", fraction), rng)
        assert list(mkt.invitations.draw([0, 0])) == [[], []]
        assert rng.bit_generator.state == state
        outcome = mkt.run_auction(make_request(entry=0))
        assert (outcome.bid, outcome.candidates_contacted) == (None, 0)
        assert rng.bit_generator.state == state


def test_inviting_every_known_core_takes_no_draw():
    # k = pop = 50 leaves no core out: every invitation is the whole list,
    # in list order, and the generator reads nothing
    pcs = np.arange(0, 100, 2, dtype=np.int32)
    topo = replace(star_topology(100, [1]), periphery_known_cores=[pcs])
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    invitations = Invitations(topo, 1.0, rng)
    assert invitations.draw([0, 0, 0]) == [pcs.tolist()] * 3
    assert rng.bit_generator.state == state


# (fraction, list sizes) of the invitation uniformity test: at 0.3 every
# list's invitation is drawn directly, 2 of 5 and of 6 and 3 of 10; at 0.55
# each is the complement of the cores it leaves out: 2 of 3 (k = pop - 1),
# 2 of 2 (k = pop), 6 of 10 (k = pop / 2 + 1), 4 of 6 and 3 of 5. A block
# interleaves a fraction's lists, so rows of different widths share each
# draw and redraw
SUBSET_CASES = [(0.3, [5, 6, 10]), (0.55, [3, 2, 10, 6, 5])]
SUBSET_ROWS = 3_000  # per list
# a chi-square p-value below this fails one list; 8e-4 for the eight lists
SUBSET_LEVEL = 1e-4


def test_block_sampler_is_uniform_over_k_subsets():
    for fraction, sizes in SUBSET_CASES:
        assert_uniform_invitations(fraction, sizes)


def assert_uniform_invitations(fraction, sizes):
    lists = [np.arange(pop, dtype=np.int32) for pop in sizes]
    topo = replace(star_topology(10, [1]), n_periphery=len(sizes), periphery_known_cores=lists)
    invitations = Invitations(topo, fraction, np.random.default_rng(9))
    drawn = invitations.draw(list(range(len(sizes))) * SUBSET_ROWS)
    for p, pop in enumerate(sizes):
        k = math.ceil(fraction * pop)
        assert (2 * k > pop) == (fraction > 0.5)
        rows = drawn[p::len(sizes)]
        assert all(len(row) == k for row in rows)
        assert (np.diff(rows, axis=1) > 0).all()  # ascending and distinct
        counts = Counter(map(tuple, rows))
        subsets = list(combinations(range(pop), k))
        assert set(counts) <= set(subsets)
        observed = [counts[s] for s in subsets]
        assert len(subsets) == 1 or chisquare(observed).pvalue > SUBSET_LEVEL, (pop, k)


def test_block_invitations_are_deterministic_per_block():
    # equal generators drawing equal blocks invite equal cores: each a
    # distinct subset of its list, of ceil(fraction * |pcs|) cores
    lists = [np.arange(0, 300, 3, dtype=np.int32), np.arange(40, dtype=np.int32),
             np.zeros(0, dtype=np.int32)]
    topo = replace(star_topology(300, [1]), n_periphery=3, periphery_known_cores=lists)
    blocks = [[0, 1, 2, 0], [1], [0, 0, 1, 2, 1, 0, 0]]
    runs = []
    for _ in range(2):
        invitations = Invitations(topo, 0.1, np.random.default_rng(21))
        runs.append([list(invitations.draw(block)) for block in blocks])
    assert runs[0] == runs[1]
    for block, invited in zip(blocks, runs[0]):
        for p, cores in zip(block, invited):
            assert len(cores) == len(set(cores)) == math.ceil(0.1 * len(lists[p]))
            assert set(cores) <= set(lists[p].tolist())


@cache
def preset_topology(name, seed):
    """The topology of a run of preset `name` at `seed`; `scale` is exp3 at
    N=200,000, as the benchmark runs it. Invitations read no primary
    contacts, whose draw comes last, so none are drawn."""
    p = preset("exp3" if name == "scale" else name)
    config = replace(p.topology, primary_contacts_per_core=0)
    if name == "scale":
        config = replace(config, n_core=200_000)
    return organize(config, derive_seeds(seed)[0])


def preset_fleet(name, seed):
    p = preset("exp3" if name == "scale" else name)
    topo = preset_topology(name, seed)
    return topo, init_servers(topo, p.engine, derive_seeds(seed)[1])


RUN_PRESETS = ("exp1-desk", "exp2-desk", "exp3-desk", "exp4-desk", "exp5", "exp6", "scale")


@pytest.mark.parametrize("name", RUN_PRESETS)
def test_each_preset_market_picks_its_sampler(name):
    # no preset invites more than half of any list, so every invitation is
    # drawn directly, none as the complement of the cores it leaves out:
    # the golden runs pin only the direct draw
    p = preset("exp3" if name == "scale" else name)
    for seed in (1, 3, 11):
        pops = preset_topology(name, seed).pcs_sizes()
        ks = np.ceil(p.market.invited_fraction * pops)
        assert (2 * ks <= pops).all()


def preset_stream(name, seed, n_requests):
    p = preset("exp3" if name == "scale" else name)
    config = replace(p.workload, n_requests=n_requests)
    return generate_stream(config, p.topology.n_periphery, derive_seeds(seed)[2])


PRESET_RUN_REQUESTS = 1500


@pytest.mark.parametrize("name", RUN_PRESETS)
def test_a_replayed_preset_run_decodes_every_invitation_in_blocks(monkeypatch, name):
    # a preset run's invitations are drawn a block at a time: the engine
    # hands the market one block per BLOCK_REQUESTS requests, each drawn in
    # one call
    p = preset("exp3" if name == "scale" else name)
    topo, fleet = preset_fleet(name, 1)
    blocks = []
    distinct_sorted_rows = market._distinct_sorted_rows

    def counted(gen, n_rows, k, pop):
        blocks.append(n_rows)
        return distinct_sorted_rows(gen, n_rows, k, pop)

    monkeypatch.setattr(market, "_distinct_sorted_rows", counted)
    sink = MetricsSink(MetricsConfig(bin_size=500, n_subsets=10))
    # with no primary contacts drawn, secondary fallbacks would scan the
    # whole fleet; they read no invitation
    config = replace(p.market, use_secondary_contacts=False)
    engine.run(topo, fleet, preset_stream(name, 1, PRESET_RUN_REQUESTS), config,
               sink, np.random.default_rng(derive_seeds(1)[3]))
    n_blocks = -(-PRESET_RUN_REQUESTS // BLOCK_REQUESTS)
    assert blocks == [BLOCK_REQUESTS] * (n_blocks - 1) + [
        PRESET_RUN_REQUESTS - BLOCK_REQUESTS * (n_blocks - 1)]


def test_published_scale_invitations_are_drawn_in_blocks(monkeypatch):
    # a periphery of the published exp1-exp4 knows ~83,886 cores and invites
    # 84 of them, which hold a duplicate in ~4% of rows: a block of such
    # invitations is one call of the sampler, each 84 distinct cores of the
    # list, ascending
    pcs = np.arange(0, 2 * 83_886, 2, dtype=np.int32)
    topo = replace(star_topology(10, [1]), periphery_known_cores=[pcs])
    calls = []
    distinct_sorted_rows = market._distinct_sorted_rows

    def counted(gen, n_rows, k, pop):
        calls.append(n_rows)
        return distinct_sorted_rows(gen, n_rows, k, pop)

    monkeypatch.setattr(market, "_distinct_sorted_rows", counted)
    invited = Invitations(topo, 0.001, np.random.default_rng(6)).draw([0] * BLOCK_REQUESTS)
    assert calls == [BLOCK_REQUESTS]
    listed = set(pcs.tolist())
    for cores in invited:
        assert len(cores) == 84 and set(cores) <= listed
        assert all(a < b for a, b in zip(cores, cores[1:]))


# -- the invitation queue ------------------------------------------------------

class RecordingSink(MetricsSink):
    def __init__(self):
        super().__init__(MetricsConfig(bin_size=100, n_subsets=10))
        self.outcomes = []

    def record_outcome(self, outcome, mode):
        self.outcomes.append(outcome)
        super().record_outcome(outcome, mode)


def outcome_rows(outcomes):
    return [(o.request_id, o.candidates_contacted,
             None if o.bid is None else (o.bid.coalition.member_ids.tolist(),
                                         o.bid.coalition.allocations.tolist(), o.bid.price))
            for o in outcomes]


@pytest.mark.parametrize("name", ["exp3-desk", "exp4-desk", "exp2-desk"])
def test_auctions_with_nothing_queued_match_the_engine_run(monkeypatch, name):
    # with no block handed over, every auction draws its own invitation as
    # a block of one: the outcomes are those of an engine run whose blocks
    # hold one request
    p = preset(name)
    topo = organize(p.topology, 5)
    monkeypatch.setattr(engine, "BLOCK_REQUESTS", 1)
    runs = []
    for unqueued in (False, True):
        if unqueued:
            monkeypatch.setattr(market.Market, "invite", lambda self, requests: None)
        sink = RecordingSink()
        stats = engine.run(topo, init_servers(topo, p.engine, 6),
                           preset_stream(name, 7, 1200), p.market, sink,
                           np.random.default_rng(8))
        runs.append((outcome_rows(sink.outcomes), stats.event_digest))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 1200


def test_an_invitation_queued_for_another_request_is_refused():
    topo = star_topology(50, [1])
    mkt = Market(topo, make_fleet([Mode.M1] * 50), MarketConfig("C1", 0.1),
                 np.random.default_rng(0))
    mkt.invite([make_request(rid=0), make_request(rid=1)])
    with pytest.raises(InternalConsistencyError, match="invitation of request 0"):
        mkt.run_auction(make_request(rid=1))


# -- leader election -----------------------------------------------------------

def test_elect_picks_lowest_unit_cost():
    fleet = make_fleet([Mode.M1] * 3, costs=[3.0, 1.5, 2.2])
    assert elect([0, 1, 2], fleet, make_request()) == 1


def test_elect_breaks_ties_by_lowest_id():
    fleet = make_fleet([Mode.M1] * 13, costs=[2.0] * 13)
    assert elect([12, 7], fleet, make_request()) == 7


def test_elect_none_when_no_candidate_eligible():
    fleet = make_fleet([Mode.M2, Mode.M3])
    assert elect([0, 1], fleet, make_request(Mode.M1)) is None


# -- coalition assembly ----------------------------------------------------------

def test_singleton_coalition_when_leader_covers_workload():
    topo = star_topology(4, [1, 2, 3])
    fleet = make_fleet([Mode.M1] * 4, committed=[5.0, 0, 0, 0])
    coalition = assemble(0, make_request(workload=4.0), topo, fleet)
    assert coalition.member_ids.tolist() == [0]
    assert coalition.allocations.tolist() == [4.0]
    assert coalition.member_ids[0] == 0


def test_leader_alone_covers_a_workload_at_the_trim_tolerance():
    # leader_free + _TRIM_EPS == need exactly, so the leader covers it
    topo = star_topology(4, [1, 2, 3])
    fleet = make_fleet([Mode.M1] * 4, committed=[6.0, 0, 0, 0])
    need = 4.0 + _TRIM_EPS
    coalition = assemble(0, make_request(workload=need), topo, fleet)
    assert coalition.member_ids.tolist() == [0]
    assert coalition.allocations.tolist() == [need]


def test_greedy_fill_eight_members_of_five_scu():
    topo = star_topology(8, [1, 2, 3, 4, 5, 6, 7])
    fleet = make_fleet([Mode.M1] * 8, costs=list(range(1, 9)),
                       committed=[5.0] * 8)
    coalition = assemble(0, make_request(workload=40.0), topo, fleet)
    assert coalition.size == 8
    assert coalition.member_ids.tolist() == list(range(8))
    assert coalition.allocations.tolist() == [5.0] * 8
    assert coalition.allocations.sum() == pytest.approx(40.0, abs=1e-9)


def test_assembly_fails_when_reachable_capacity_is_short():
    topo = star_topology(6, [1, 2, 3, 4, 5])
    fleet = make_fleet([Mode.M1] * 6, committed=[5.0] * 6)  # 30 SCU reachable
    assert assemble(0, make_request(workload=40.0), topo, fleet) is None


def test_last_member_allocation_is_trimmed():
    topo = star_topology(3, [1, 2])
    fleet = make_fleet([Mode.M1] * 3, costs=[1.0, 2.0, 3.0], committed=[7.0, 4.0, 4.0])
    coalition = assemble(0, make_request(workload=7.5), topo, fleet)
    # leader free 3.0, contact 1 free 6.0 trimmed to 4.5
    assert coalition.member_ids.tolist() == [0, 1]
    assert coalition.allocations.tolist() == [3.0, 4.5]


def test_contacts_join_in_cost_then_id_order():
    topo = star_topology(4, [3, 1, 2])
    fleet = make_fleet([Mode.M1] * 4, costs=[1.0, 5.0, 2.0, 2.0], committed=[8.0, 0, 0, 0])
    coalition = assemble(0, make_request(workload=23.0), topo, fleet)
    # order by (cost, id): 2 then 3 then 1
    assert coalition.member_ids.tolist() == [0, 2, 3, 1]
    assert coalition.allocations[-1] == 1.0


def test_secondary_contacts_extend_the_primary_pool():
    topo = star_topology(4, [1])  # secondary of core 0 = {1, 2, 3}
    fleet = make_fleet([Mode.M1] * 4, costs=[1.0, 2.0, 3.0, 4.0],
                       committed=[7.0, 8.0, 8.0, 8.0])
    request = make_request(workload=8.0)
    assert assemble(0, request, topo, fleet) is None
    coalition = assemble(0, request, topo, fleet, True)
    assert coalition.member_ids.tolist() == [0, 1, 2, 3]
    assert coalition.allocations.tolist() == [3.0, 2.0, 2.0, 1.0]


def test_secondary_tail_subtracts_the_pairwise_sum_of_the_primaries():
    # nine primary frees whose numpy (pairwise) sum and left-to-right sum
    # differ in the last bit; the vectorized assembly used numpy's
    primary_committed = [
        1.2728450074150763, 4.942850838157138, 5.954833740471239,
        0.28402118288225103, 1.4644682373168139, 9.189289127307658,
        0.6971637039265487, 1.2847620990530502, 9.388451687588573,
    ]
    frees = [10.0 - c for c in primary_committed]
    assert 100.0 - float(np.sum(frees)) != 100.0 - sum(frees)
    topo = star_topology(15, list(range(1, 10)))  # secondaries 10..14
    fleet = make_fleet([Mode.M1] * 15, committed=[9.0] + primary_committed + [0.0] * 5)
    coalition = assemble(0, make_request(workload=101.0), topo, fleet, True)
    assert coalition.member_ids.tolist() == list(range(15))
    assert coalition.allocations[-1] == (100.0 - float(np.sum(frees))) - 40.0


def test_every_allocation_fits_free_capacity():
    rng = np.random.default_rng(7)
    topo = organize(TopologyConfig(n_core=50, n_periphery=5,
                                   primary_contacts_per_core=10,
                                   periphery_per_core=2), 1)
    fleet = make_fleet(rng.integers(0, 4, size=50),
                       costs=rng.uniform(1, 10, size=50),
                       committed=rng.uniform(0, 10, size=50))
    free_before = fleet.capacity - fleet.committed
    for rid in range(40):
        mode = Mode(int(rng.integers(1, 4)))
        request = make_request(mode=mode, workload=float(rng.uniform(0.1, 40)), rid=rid)
        leader = elect(np.arange(50), fleet, request, topo)
        if leader is None:
            continue
        coalition = assemble(leader, request, topo, fleet, True)
        if coalition is None:
            continue
        assert coalition.allocations.sum() == pytest.approx(request.workload, abs=1e-9)
        ids = coalition.member_ids.tolist()
        assert len(set(ids)) == coalition.size
        for member, alloc in zip(ids, coalition.allocations.tolist()):
            assert alloc > 0
            assert alloc <= free_before[member] + 1e-9


# -- pricing --------------------------------------------------------------------

def test_price_is_allocation_weighted_cost():
    fleet = make_fleet([Mode.M1], costs=[2.0])
    coalition = Coalition(np.array([0]), np.array([4.0]))
    assert price_bid(coalition, fleet).price == pytest.approx(8.0)

    fleet2 = make_fleet([Mode.M1] * 2, costs=[1.0, 3.0])
    coalition2 = Coalition(np.array([0, 1]), np.array([3.0, 1.0]))
    assert price_bid(coalition2, fleet2).price == pytest.approx(6.0)


def test_price_matches_independent_dot_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        costs = rng.uniform(1, 10, size=8)
        fleet = make_fleet([Mode.M1] * 8, costs=costs)
        ids = rng.choice(8, size=n, replace=False)
        allocs = rng.uniform(0.1, 5.0, size=n)
        bid = price_bid(Coalition(ids, allocs), fleet)
        manual = sum(float(a) * costs[i] for i, a in zip(ids, allocs))
        assert bid.price == pytest.approx(manual, rel=1e-12)


def test_unknown_member_id_is_an_internal_error():
    from sococ.errors import InternalConsistencyError
    fleet = make_fleet([Mode.M1])
    with pytest.raises(InternalConsistencyError):
        price_bid(Coalition(np.array([5]), np.array([1.0])), fleet)


# -- Market.run_auction ---------------------------------------------------------

def test_unsatisfied_when_no_server_is_eligible():
    topo = star_topology(10, [1, 2])
    fleet = make_fleet([Mode.M2] * 10)
    config = MarketConfig("C2", invited_fraction=1.0)
    outcome = auction(make_request(Mode.M1), topo, fleet, config,
                      np.random.default_rng(0))
    assert outcome.bid is None
    assert outcome.candidates_contacted == 10


def test_greedy_result_is_cheapest_covering_prefix():
    # exhaustive check over every covering prefix of the sorted pool
    rng = np.random.default_rng(3)
    for trial in range(10):
        committed = rng.uniform(0, 9.5, size=20)
        costs = rng.uniform(1, 10, size=20)
        fleet = make_fleet([Mode.M1] * 20, costs=costs, committed=committed)
        topo = star_topology(20, [1])
        config = MarketConfig("C1", invited_fraction=1.0)
        workload = 12.0
        outcome = auction(make_request(workload=workload), topo, fleet,
                          config, np.random.default_rng(trial))
        order = sorted(range(20), key=lambda i: (costs[i], i))
        free = [10.0 - committed[i] for i in order]
        pool = [i for i, f in zip(order, free) if f >= 0.01]
        free = [10.0 - committed[i] for i in pool]
        best_price, best_members = None, None
        for k in range(1, len(pool) + 1):
            if sum(free[:k]) < workload - 1e-9:
                continue
            allocs = free[:k].copy()
            allocs[-1] = workload - sum(free[: k - 1])
            if allocs[-1] <= 0:
                continue
            price = sum(a * costs[i] for i, a in zip(pool[:k], allocs))
            if best_price is None or price < best_price:
                best_price, best_members = price, list(zip(pool[:k], allocs))
            break_after = sum(free[:k]) >= workload
            if break_after:
                # longer prefixes only add more expensive members
                pass
        assert outcome.bid is not None
        assert outcome.bid.price == pytest.approx(best_price, rel=1e-12)
        assert outcome.bid.coalition.member_ids.tolist() == [m for m, _ in best_members]
        assert outcome.bid.coalition.allocations.tolist() == pytest.approx(
            [a for _, a in best_members], abs=1e-9)


def test_fill_stops_at_the_covering_server():
    def servers():
        yield 1, 2.0
        yield 2, 3.0
        raise AssertionError("scanned past the covering server")

    ids, allocs = [], []
    assert _fill(servers(), 4.0, ids, allocs)
    assert ids == [1, 2]
    assert allocs == [2.0, 2.0]
    # a running sum of exactly need - _TRIM_EPS covers, as searchsorted's
    # side="left" did
    ids, allocs = [], []
    assert _fill(servers(), 5.0 + 1e-9, ids, allocs)
    assert allocs == [2.0, 3.0 + 1e-9]


def test_fill_reports_a_short_pool():
    ids, allocs = [], []
    assert not _fill(iter([(1, 2.0), (2, 3.0)]), 6.0, ids, allocs)
    assert ids == [1, 2]


# The auction as it was written with whole-list numpy filters, a cumsum and
# searchsorted; the lazy scan must reproduce it bit for bit.

def vectorized_eligible(fleet, ids, mode):
    if ids.size == 0:
        return ids
    modes = fleet.modes[ids]
    mask = (modes == int(mode)) | (modes == Mode.SLEEP)
    mask &= (fleet.capacity - fleet.committed[ids]) >= MIN_ALLOCATION
    return ids[mask]


def vectorized_fill(pool, free, need):
    if need <= 0:
        return np.zeros(0, np.int32), np.zeros(0)
    if pool.size == 0:
        return None
    cum = np.cumsum(free)
    if cum[-1] + 1e-9 < need:
        return None
    k = int(np.searchsorted(cum, need - 1e-9, side="left"))
    allocs = free[: k + 1].copy()
    allocs[k] = need - (cum[k - 1] if k > 0 else 0.0)
    return pool[: k + 1], allocs


def vectorized_auction(request, topo, fleet, config, rng, fallbacks):
    """(member ids, allocations) of the winning coalition, or None."""
    order = ContactOrder(topo, fleet)
    # the invitation as the market draws it: this reference is of the
    # auction, not of the draw
    [invited] = Invitations(topo, config.invited_fraction, rng).draw([request.entry_periphery])
    invited = np.array(invited, dtype=np.int32)
    if config.initiation == "C1":
        eligible = vectorized_eligible(fleet, invited, request.mode).tolist()
        pool = np.asarray(order.sort_ids(eligible), dtype=np.int32)
        return vectorized_fill(pool, fleet.capacity - fleet.committed[pool], request.workload)
    elig = vectorized_eligible(fleet, invited, request.mode)
    if elig.size == 0:
        return None
    leader = int(order.by_rank[order.rank[elig].min()])
    need = request.workload
    leader_free = float(fleet.capacity - fleet.committed[leader])
    if leader_free + 1e-9 >= need:
        return np.array([leader]), np.array([need])
    member_ids, member_allocs = [np.array([leader])], [np.array([leader_free])]
    remaining = need - leader_free
    pool = vectorized_eligible(fleet, order.primary_sorted[leader], request.mode)
    free = fleet.capacity - fleet.committed[pool]
    filled = vectorized_fill(pool, free, remaining)
    if filled is None and config.use_secondary_contacts:
        fallbacks.append(request.id)
        member_ids.append(pool)
        member_allocs.append(free)
        remaining -= float(free.sum())
        sec = vectorized_eligible(fleet, order.secondary(leader), request.mode)
        sec = sec[~np.isin(sec, pool)]
        filled = vectorized_fill(sec, fleet.capacity - fleet.committed[sec], remaining)
    if filled is None:
        return None
    member_ids.append(filled[0])
    member_allocs.append(filled[1])
    ids, allocs = np.concatenate(member_ids), np.concatenate(member_allocs)
    keep = allocs > 0.0
    return ids[keep], allocs[keep]


def test_lazy_auction_matches_the_vectorized_auction_bit_for_bit():
    rng = np.random.default_rng(12)
    fallbacks, won, lost = [], 0, 0
    for trial in range(300):
        n_core = int(rng.integers(20, 80))
        topo = organize(TopologyConfig(
            n_core=n_core, n_periphery=int(rng.integers(3, 8)),
            primary_contacts_per_core=int(rng.integers(2, 12)),
            periphery_per_core=2), trial)
        modes = rng.integers(0, 4, size=n_core)
        costs = rng.uniform(1, 10, size=n_core)
        committed = np.where(modes == 0, 0.0, rng.uniform(0, 10, size=n_core))
        committed[rng.random(n_core) < 0.1] = 9.995  # below the minimum quantum
        config = MarketConfig(
            "C1" if trial % 3 == 0 else "C2",
            invited_fraction=float(rng.uniform(0.05, 1.0)),
            use_secondary_contacts=bool(trial % 2),
        )
        request = make_request(Mode(int(rng.integers(1, 4))),
                               workload=float(rng.uniform(0.1, 60.0)),
                               entry=int(rng.integers(topo.n_periphery)), rid=trial)
        want = vectorized_auction(request, topo, make_fleet(modes, costs, committed),
                                  config, np.random.default_rng(trial), fallbacks)
        got = auction(request, topo, make_fleet(modes, costs, committed),
                      config, np.random.default_rng(trial)).bid
        assert (got is None) == (want is None), trial
        if got is None:
            lost += 1
            continue
        won += 1
        coalition = got.coalition
        assert coalition.member_ids.tolist() == want[0].tolist(), trial
        assert coalition.allocations.tobytes() == want[1].astype(np.float64).tobytes(), trial
        assert (coalition.allocations > 0.0).all(), trial
    assert won > 50 and lost > 50 and len(fallbacks) > 10, (won, lost, len(fallbacks))


def test_winner_is_invariant_under_cost_scaling():
    topo = organize(TopologyConfig(n_core=60, n_periphery=4,
                                   primary_contacts_per_core=12,
                                   periphery_per_core=2), 4)
    rng = np.random.default_rng(9)
    modes = rng.integers(0, 4, size=60)
    costs = rng.uniform(1, 10, size=60)
    committed = rng.uniform(2, 9, size=60)
    config = MarketConfig("C2", invited_fraction=0.2, use_secondary_contacts=True)
    request = make_request(Mode.M1, workload=25.0, entry=1)
    baseline = auction(request, topo, make_fleet(modes, costs, committed),
                       config, np.random.default_rng(21))
    assert baseline.bid is not None
    for k in (0.25, 3.7, 1000.0):
        scaled = auction(request, topo, make_fleet(modes, costs * k, committed),
                         config, np.random.default_rng(21))
        assert scaled.bid is not None
        got, want = scaled.bid.coalition, baseline.bid.coalition
        assert got.member_ids.tolist() == want.member_ids.tolist()
        assert got.allocations.tolist() == want.allocations.tolist()
        assert scaled.bid.price == pytest.approx(baseline.bid.price * k, rel=1e-9)


def test_secondary_reach_is_superset_of_primary_reach():
    # on a frozen state, enabling secondary contacts can only add feasibility
    rng = np.random.default_rng(14)
    topo = organize(TopologyConfig(n_core=40, n_periphery=6,
                                   primary_contacts_per_core=4,
                                   periphery_per_core=2), 2)
    for trial in range(30):
        fleet = make_fleet(rng.integers(0, 4, size=40),
                           costs=rng.uniform(1, 10, size=40),
                           committed=rng.uniform(5, 10, size=40))
        request = make_request(Mode(int(rng.integers(1, 4))),
                               workload=float(rng.uniform(5, 30)), rid=trial)
        leader = elect(np.arange(40), fleet, request, topo)
        if leader is None:
            continue
        primary_only = assemble(leader, request, topo, fleet)
        with_secondary = assemble(leader, request, topo, fleet, True)
        if primary_only is not None:
            assert with_secondary is not None


def test_auction_is_deterministic_per_state_and_seed():
    topo = organize(TopologyConfig(n_core=100, n_periphery=5,
                                   primary_contacts_per_core=10,
                                   periphery_per_core=2), 6)
    rng = np.random.default_rng(2)
    modes = rng.integers(0, 4, size=100)
    costs = rng.uniform(1, 10, size=100)
    committed = rng.uniform(0, 8, size=100)
    config = MarketConfig("C2", invited_fraction=0.05)
    request = make_request(Mode.M2, workload=15.0, entry=3)
    results = []
    for _ in range(2):
        fleet = make_fleet(modes, costs, committed)
        outcome = auction(request, topo, fleet, config, np.random.default_rng(77))
        results.append(outcome)
    assert (results[0].bid is None) == (results[1].bid is None)
    if results[0].bid is not None:
        a, b = results[0].bid.coalition, results[1].bid.coalition
        assert a.member_ids.tolist() == b.member_ids.tolist()
        assert a.allocations.tolist() == b.allocations.tolist()
        assert results[0].bid.price == results[1].bid.price


def test_c1_never_traverses_contact_lists():
    # the single invited core cannot cover the request even though its
    # primary contacts could; C1 must fail where C2 would succeed
    topo = star_topology(3, [1, 2])
    topo.periphery_known_cores[0] = np.array([0], dtype=np.int32)
    fleet = make_fleet([Mode.M1] * 3, committed=[9.0, 0.0, 0.0])
    request = make_request(workload=5.0)
    c1 = auction(request, topo, fleet, MarketConfig("C1", invited_fraction=1.0),
                 np.random.default_rng(0))
    assert c1.bid is None
    c2 = auction(request, topo, fleet,
                 MarketConfig("C2", invited_fraction=1.0),
                 np.random.default_rng(0))
    assert c2.bid is not None
    assert c2.bid.coalition.size == 2


def test_c1_leader_is_cheapest_member():
    topo = star_topology(6, [1])
    fleet = make_fleet([Mode.M1] * 6, costs=[9.0, 4.0, 2.0, 7.0, 5.0, 3.0],
                       committed=[8.0] * 6)
    config = MarketConfig("C1", invited_fraction=1.0)
    outcome = auction(make_request(workload=5.0), topo, fleet, config,
                      np.random.default_rng(1))
    assert outcome.bid is not None
    assert outcome.bid.coalition.member_ids[0] == 2
    assert outcome.bid.coalition.member_ids.tolist() == [2, 5, 1]


def test_contact_order_ranks_by_cost_then_id():
    fleet = make_fleet([Mode.M1] * 5, costs=[3.0, 1.0, 3.0, 0.5, 1.0])
    topo = star_topology(5, [1, 2, 3, 4])
    order = ContactOrder(topo, fleet)
    assert order.sort_ids(list(range(5))) == [3, 1, 4, 0, 2]

    # an organized topology with many tied costs, against plain Python
    topo = organize(TopologyConfig(n_core=60, n_periphery=8,
                                   primary_contacts_per_core=7,
                                   periphery_per_core=2), 4)
    drawn = topo.core_primary_contacts.copy()
    costs = np.random.default_rng(4).integers(1, 4, size=60).astype(float)
    order = ContactOrder(topo, make_fleet([Mode.M1] * 60, costs=costs))

    def by_cost(ids):
        return sorted(ids, key=lambda i: (costs[i], i))

    for c in range(60):
        assert order.primary_sorted[c].tolist() == by_cost(drawn[c].tolist())
        reach = {int(i) for p in topo.core_known_periphery[c]
                 for i in topo.periphery_known_cores[p]}
        assert order.secondary(c).tolist() == by_cost(reach - {c})


def test_sort_ids_matches_the_rank_gather_sort():
    # the numpy statement of the order: gather ranks, sort, map back; the
    # second fleet is numbered cheapest first, so its ids sort by value
    rng = np.random.default_rng(5)
    drawn = rng.integers(1, 6, size=300).astype(float)  # many ties
    for costs in (drawn, np.sort(drawn)):
        order = ContactOrder(star_topology(300, [1]), make_fleet([Mode.M1] * 300, costs=costs))
        for size in [0, 1, 1, 2, 3, 17, 60, 300]:
            ids = rng.permutation(300)[:size].astype(np.int32)
            want = order.by_rank[np.sort(order.rank[ids])]
            assert order.sort_ids(ids.tolist()) == want.tolist()
            assert want.tolist() == sorted(ids.tolist(), key=lambda i: (costs[i], i))


def test_contact_order_is_unchanged_across_chunk_boundaries(monkeypatch):
    # rows of 9 contacts, 4 rows to a chunk: 300 rows span 75 chunks
    monkeypatch.setattr(topology, "CHUNK_CELLS", 4 * 9)
    topo = organize(TopologyConfig(n_core=300, n_periphery=5,
                                   primary_contacts_per_core=9,
                                   periphery_per_core=2), 8)
    c = topo.core_primary_contacts.copy()
    costs = np.random.default_rng(8).integers(1, 20, size=300).astype(float)
    order = ContactOrder(topo, make_fleet([Mode.M1] * 300, costs=costs))
    rank = np.argsort(np.lexsort((np.arange(300), costs)))
    expected = np.take_along_axis(c, np.argsort(rank[c], axis=1), axis=1)
    assert np.array_equal(order.primary_sorted, expected)


@pytest.mark.parametrize("bad_id", [5, 1000])
def test_contact_order_rejects_a_contact_outside_the_fleet(bad_id):
    # ids are checked on both paths, the numbered fleet's (equal costs) and
    # the rank gather's (random costs): a wrapped or clipped gather, or no
    # check, would order a hand-built topology's stray id as some other
    # core; row 3 is [4, bad_id], ascending
    for costs in (None, [4.0, 2.0, 9.0, 1.0, 3.0]):
        topo = star_topology(5, [1, 2])
        topo.core_primary_contacts[3, 1] = bad_id
        with pytest.raises(IndexError):
            ContactOrder(topo, make_fleet([Mode.M1] * 5, costs=costs))


def test_contact_order_reuses_the_topology_matrix():
    # three fleets in turn on one topology: each order sorts the rows of the
    # topology's own matrix, whatever order the previous fleet left them in;
    # the third is numbered cheapest first, so its rows go back to id order
    topo = organize(TopologyConfig(n_core=80, n_periphery=6,
                                   primary_contacts_per_core=9,
                                   periphery_per_core=2), 6)
    drawn = topo.core_primary_contacts.copy()
    for seed in (6, 7, 8):
        costs = np.random.default_rng(seed).integers(1, 4, size=80).astype(float)
        if seed == 8:
            costs.sort()
        order = ContactOrder(topo, make_fleet([Mode.M1] * 80, costs=costs))
        assert np.shares_memory(order.primary_sorted, topo.core_primary_contacts)
        for c in range(80):
            assert order.primary_sorted[c].tolist() == sorted(
                drawn[c].tolist(), key=lambda i: (costs[i], i))
    assert np.array_equal(order.primary_sorted, drawn)


# -- contact tails -----------------------------------------------------------------

def cut_and_whole(monkeypatch, config, seed):
    """organize's topology, its rows cut to _KEPT_CONTACTS, and the same
    topology with every column kept."""
    cut = organize(config, seed)
    with monkeypatch.context() as whole:
        whole.setattr(topology, "_KEPT_CONTACTS", config.primary_contacts_per_core)
        return cut, organize(config, seed)


def count_tails(monkeypatch):
    """Spy on ContactTopology.contact_tail: one entry per call, the core."""
    calls, real = [], topology.ContactTopology.contact_tail

    def spy(topo, core):
        calls.append(core)
        return real(topo, core)

    monkeypatch.setattr(topology.ContactTopology, "contact_tail", spy)
    return calls


def test_a_scan_past_the_kept_contacts_draws_the_tail_once(monkeypatch):
    # the leader sleeps, so it is eligible for any mode; its 64 kept
    # contacts run M2, every other core M1 or sleeps: an M1 request the
    # leader cannot cover scans into the tail, and an M2 request that the
    # kept contacts cover never draws it
    config = TopologyConfig(n_core=3000, n_periphery=20, primary_contacts_per_core=200,
                            periphery_per_core=2)
    cut, whole = cut_and_whole(monkeypatch, config, 9)
    leader = 1234
    rng = np.random.default_rng(9)
    modes = rng.choice([Mode.SLEEP, Mode.M1], size=3000)
    modes[cut.core_primary_contacts[leader]] = Mode.M2
    modes[leader] = Mode.SLEEP
    committed = np.where(modes == Mode.SLEEP, 0.0, rng.uniform(0, 9, size=3000))
    costs = np.sort(rng.uniform(1, 10, size=3000))  # numbered cheapest first
    calls = count_tails(monkeypatch)
    for mode, workload, use_secondary, tails in [
            (Mode.M1, 30.0, False, 1),     # covered inside the tail
            (Mode.M1, 2000.0, True, 1),    # the row falls short: secondaries
            (Mode.M1, 10**5, True, 1),     # nothing covers it
            (Mode.M2, 15.0, False, 0)]:    # covered inside the kept columns
        request = make_request(mode, workload=workload)
        fleet = make_fleet(modes, costs, committed)
        got = assemble(leader, request, cut, fleet, use_secondary)
        assert len(calls) == tails and set(calls) <= {leader}
        calls.clear()
        want = assemble(leader, request, whole, fleet, use_secondary)
        assert not calls
        assert (got is None) == (want is None) == (workload == 10**5)
        if got is not None:
            assert got.member_ids.tolist() == want.member_ids.tolist()
            assert got.allocations.tobytes() == want.allocations.tobytes()
        if mode == Mode.M1 and not use_secondary:
            # the whole-row reference: the eligible contacts' free capacity,
            # filled by cumsum and searchsorted
            pool = vectorized_eligible(fleet, whole.core_primary_contacts[leader], mode)
            leader_free = fleet.capacity - fleet.committed[leader]
            filled = vectorized_fill(pool, fleet.capacity - fleet.committed[pool],
                                     workload - leader_free)
            assert got.member_ids.tolist() == [leader, *filled[0].tolist()]
            assert np.setdiff1d(filled[0], cut.core_primary_contacts[leader]).size


def test_cut_rows_need_a_fleet_numbered_cheapest_first(monkeypatch):
    # a cut row's tail may hold cheaper cores than its kept columns, so it
    # cannot be put in cost order; whole rows still take the rank path
    config = TopologyConfig(n_core=300, n_periphery=5, primary_contacts_per_core=65,
                            periphery_per_core=2)
    cut, whole = cut_and_whole(monkeypatch, config, 3)
    costs = np.random.default_rng(3).uniform(1, 10, size=300)
    with pytest.raises(ConfigurationError):
        ContactOrder(cut, make_fleet([Mode.M1] * 300, costs=costs))
    with pytest.raises(ConfigurationError):
        Market(cut, make_fleet([Mode.M1] * 300, costs=costs), MarketConfig(),
               np.random.default_rng(3))
    order = ContactOrder(whole, make_fleet([Mode.M1] * 300, costs=costs))
    assert order.primary_sorted[0].tolist() == sorted(
        order.primary_sorted[0].tolist(), key=lambda i: (costs[i], i))
    ContactOrder(cut, make_fleet([Mode.M1] * 300, costs=np.sort(costs)))


@pytest.mark.parametrize("kept", [8, 100])
def test_the_kept_width_changes_no_output(monkeypatch, tmp_path, kept):
    # exp3-desk draws 100 contacts a row; keeping 8 of them, its leaders
    # scan past the kept columns, and keeping all 100 they never draw a
    # tail: the report files are the same bytes either way, and the same
    # as at the default width
    p = preset("exp3-desk")
    p = replace(p, workload=replace(p.workload, n_requests=2000))
    default = run_experiment(p, 5, tmp_path / "default")
    monkeypatch.setattr(topology, "_KEPT_CONTACTS", kept)
    calls = count_tails(monkeypatch)
    report = run_experiment(p, 5, tmp_path / "kept")
    assert (len(calls) > 0) == (kept < p.topology.primary_contacts_per_core)
    assert report.event_digest == default.event_digest
    for name in ("bins.csv", "coalitions.csv", "summary.json"):
        assert (tmp_path / "kept" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes()


def test_setup_peak_memory_stays_near_the_kept_contact_matrix(monkeypatch):
    # organize holds the N x 64 kept matrix, the periphery lists and their
    # inverse, plus, while it draws, one block of contacts on each CPU: the
    # block's int32 cells and their sort, compare and shift temporaries, at
    # most 8 bytes a cell (~6 measured: 1.5 MiB a block), and 1 MiB for the
    # Python objects of the draw (the thread pool, the child generators,
    # the M list views); an N x n matrix, even a moment's, would not fit.
    # ContactOrder on a numbered fleet only checks the rows it holds
    # (tracemalloc sees numpy buffers)
    monkeypatch.setattr(topology.os, "sched_getaffinity", lambda pid: {0, 1})
    n_core, m = 100_000, 10
    tracemalloc.start()
    try:
        topo = organize(TopologyConfig(n_core=n_core, n_periphery=1000,
                                       primary_contacts_per_core=200,
                                       periphery_per_core=m), 1)
        organize_peak = tracemalloc.get_traced_memory()[1]
        fleet = make_fleet(np.ones(n_core, dtype=np.int8),
                           costs=np.sort(np.random.default_rng(1).uniform(1, 10, n_core)))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ContactOrder(topo, fleet)
        order_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = n_core * topology._KEPT_CONTACTS * 4
    assert topo.core_primary_contacts.nbytes == kept
    periphery = 2 * n_core * m * 4  # the lists and their inverse
    assert organize_peak <= kept + periphery + 2 * 8 * topology._BLOCK_CELLS + 2**20
    assert order_peak <= 0.25 * kept
