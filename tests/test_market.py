"""Auction mechanics: eligibility, election, greedy assembly, pricing."""

import tracemalloc

import numpy as np
import pytest

from sococ import topology
from sococ.engine import Fleet
from sococ.market import (
    MIN_ALLOCATION,
    Coalition,
    ContactOrder,
    Market,
    MarketConfig,
    _eligible_ids,
    assemble_coalition,
    elect_leader,
    invite_leader_candidates,
    price_bid,
)
from sococ.topology import ContactTopology, TopologyConfig, organize
from sococ.workload import Mode, ServiceRequest


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
    return elect_leader(np.asarray(candidates), fleet, request, ContactOrder(topo, fleet))


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
    """_eligible_ids over the whole fleet, checked against the plain rule."""
    got = _eligible_ids(fleet, np.arange(fleet.n), mode).tolist()
    assert got == [i for i in range(fleet.n) if eligible_by_rule(fleet, i, mode)]
    return got


def test_sleeping_server_is_eligible_for_any_mode():
    fleet = make_fleet([Mode.SLEEP])
    assert eligible_ids(fleet, Mode.M2) == [0]
    assert eligible_ids(fleet, Mode.M3) == [0]


def test_full_server_is_not_eligible():
    fleet = make_fleet([Mode.M1, Mode.M1], committed=[10.0, 9.5])
    assert eligible_ids(fleet, Mode.M1) == [1]


def test_mode_mismatch_is_not_eligible():
    fleet = make_fleet([Mode.M2])
    assert eligible_ids(fleet, Mode.M3) == []
    assert eligible_ids(fleet, Mode.M2) == [0]


def test_vectorized_eligibility_matches_scalar():
    rng = np.random.default_rng(0)
    modes = rng.integers(0, 4, size=200)
    committed = rng.uniform(0, 10, size=200)
    fleet = make_fleet(modes, committed=committed)
    ids = rng.permutation(200)
    for mode in (Mode.M1, Mode.M2, Mode.M3):
        fast = _eligible_ids(fleet, ids, mode).tolist()
        slow = [int(i) for i in ids if eligible_by_rule(fleet, i, mode)]
        assert fast == slow  # same set, input order kept
        assert 0 < len(fast) < 200


# -- leader invitation ---------------------------------------------------------

def test_invite_count_is_ceiling_of_fraction():
    topo = star_topology(2000, [1])
    config = MarketConfig("C2", leader_candidate_fraction=0.001)
    rng = np.random.default_rng(0)
    got = invite_leader_candidates(0, topo, config, rng)
    assert len(got) == 2  # ceil(0.001 * 2000)
    assert set(got.tolist()) <= set(range(2000))
    # at the published scale a periphery knows ~83,593 cores and the same
    # 0.1% rule invites 84 leader candidates
    import math
    assert math.ceil(config.leader_candidate_fraction * 83_593) == 84


def test_invite_single_known_core():
    topo = star_topology(1, [])
    config = MarketConfig("C2", leader_candidate_fraction=0.001)
    got = invite_leader_candidates(0, topo, config, np.random.default_rng(0))
    assert got.tolist() == [0]


def test_invite_is_reproducible_per_seed():
    topo = star_topology(2000, [1])
    config = MarketConfig("C2", leader_candidate_fraction=0.001)
    a = invite_leader_candidates(0, topo, config, np.random.default_rng(5))
    b = invite_leader_candidates(0, topo, config, np.random.default_rng(5))
    assert a.tolist() == b.tolist()


def test_invite_empty_pcs_yields_no_candidates():
    topo = star_topology(4, [1])
    topo.periphery_known_cores[0] = np.zeros(0, dtype=np.int32)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    got = invite_leader_candidates(0, topo, MarketConfig("C2"), rng)
    assert len(got) == 0
    assert rng.bit_generator.state == state  # no draw


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
    assert coalition.leader == 0


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


def test_every_allocation_fits_free_capacity():
    rng = np.random.default_rng(7)
    topo = organize(TopologyConfig(n_core=50, n_periphery=5,
                                   primary_contacts_per_core=10,
                                   periphery_per_core=2, seed=1))
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
    coalition = Coalition(0, np.array([0]), np.array([4.0]), 0)
    assert price_bid(coalition, fleet).price == pytest.approx(8.0)

    fleet2 = make_fleet([Mode.M1] * 2, costs=[1.0, 3.0])
    coalition2 = Coalition(0, np.array([0, 1]), np.array([3.0, 1.0]), 0)
    assert price_bid(coalition2, fleet2).price == pytest.approx(6.0)


def test_price_matches_independent_dot_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        costs = rng.uniform(1, 10, size=8)
        fleet = make_fleet([Mode.M1] * 8, costs=costs)
        ids = rng.choice(8, size=n, replace=False)
        allocs = rng.uniform(0.1, 5.0, size=n)
        bid = price_bid(Coalition(int(ids[0]), ids, allocs, 0), fleet)
        manual = sum(float(a) * costs[i] for i, a in zip(ids, allocs))
        assert bid.price == pytest.approx(manual, rel=1e-12)


def test_unknown_member_id_is_an_internal_error():
    from sococ.errors import InternalConsistencyError
    fleet = make_fleet([Mode.M1])
    with pytest.raises(InternalConsistencyError):
        price_bid(Coalition(5, np.array([5]), np.array([1.0]), 0), fleet)


# -- Market.run_auction ---------------------------------------------------------

def test_unsatisfied_when_no_server_is_eligible():
    topo = star_topology(10, [1, 2])
    fleet = make_fleet([Mode.M2] * 10)
    config = MarketConfig("C2", leader_candidate_fraction=1.0)
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
        config = MarketConfig("C1", invited_fraction_c1=1.0)
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


def test_winner_is_invariant_under_cost_scaling():
    topo = organize(TopologyConfig(n_core=60, n_periphery=4,
                                   primary_contacts_per_core=12,
                                   periphery_per_core=2, seed=4))
    rng = np.random.default_rng(9)
    modes = rng.integers(0, 4, size=60)
    costs = rng.uniform(1, 10, size=60)
    committed = rng.uniform(2, 9, size=60)
    config = MarketConfig("C2", leader_candidate_fraction=0.2, use_secondary_contacts=True)
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
                                   periphery_per_core=2, seed=2))
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
                                   periphery_per_core=2, seed=6))
    rng = np.random.default_rng(2)
    modes = rng.integers(0, 4, size=100)
    costs = rng.uniform(1, 10, size=100)
    committed = rng.uniform(0, 8, size=100)
    config = MarketConfig("C2", leader_candidate_fraction=0.05)
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
    c1 = auction(request, topo, fleet, MarketConfig("C1", invited_fraction_c1=1.0),
                 np.random.default_rng(0))
    assert c1.bid is None
    c2 = auction(request, topo, fleet,
                 MarketConfig("C2", leader_candidate_fraction=1.0),
                 np.random.default_rng(0))
    assert c2.bid is not None
    assert c2.bid.coalition.size == 2


def test_c1_leader_is_cheapest_member():
    topo = star_topology(6, [1])
    fleet = make_fleet([Mode.M1] * 6, costs=[9.0, 4.0, 2.0, 7.0, 5.0, 3.0],
                       committed=[8.0] * 6)
    config = MarketConfig("C1", invited_fraction_c1=1.0)
    outcome = auction(make_request(workload=5.0), topo, fleet, config,
                      np.random.default_rng(1))
    assert outcome.bid is not None
    assert outcome.bid.coalition.leader == 2
    assert outcome.bid.coalition.member_ids.tolist() == [2, 5, 1]


def test_contact_order_ranks_by_cost_then_id():
    fleet = make_fleet([Mode.M1] * 5, costs=[3.0, 1.0, 3.0, 0.5, 1.0])
    topo = star_topology(5, [1, 2, 3, 4])
    order = ContactOrder(topo, fleet)
    assert order.sort_ids(np.arange(5)).tolist() == [3, 1, 4, 0, 2]

    # an organized topology with many tied costs, against plain Python
    topo = organize(TopologyConfig(n_core=60, n_periphery=8,
                                   primary_contacts_per_core=7,
                                   periphery_per_core=2, seed=4))
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


def test_contact_order_is_unchanged_across_chunk_boundaries(monkeypatch):
    # rows of 9 contacts, 4 rows to a chunk: 300 rows span 75 chunks
    monkeypatch.setattr(topology, "CHUNK_CELLS", 4 * 9)
    topo = organize(TopologyConfig(n_core=300, n_periphery=5,
                                   primary_contacts_per_core=9,
                                   periphery_per_core=2, seed=8))
    c = topo.core_primary_contacts.copy()
    costs = np.random.default_rng(8).integers(1, 20, size=300).astype(float)
    order = ContactOrder(topo, make_fleet([Mode.M1] * 300, costs=costs))
    rank = np.argsort(np.lexsort((np.arange(300), costs)))
    expected = np.take_along_axis(c, np.argsort(rank[c], axis=1), axis=1)
    assert np.array_equal(order.primary_sorted, expected)


def test_contact_order_reuses_the_topology_matrix():
    # two fleets in turn on one topology: each order sorts the rows of the
    # topology's own matrix, whatever order the previous fleet left them in
    topo = organize(TopologyConfig(n_core=80, n_periphery=6,
                                   primary_contacts_per_core=9,
                                   periphery_per_core=2, seed=6))
    drawn = topo.core_primary_contacts.copy()
    for seed in (6, 7):
        costs = np.random.default_rng(seed).integers(1, 4, size=80).astype(float)
        order = ContactOrder(topo, make_fleet([Mode.M1] * 80, costs=costs))
        assert np.shares_memory(order.primary_sorted, topo.core_primary_contacts)
        for c in range(80):
            assert order.primary_sorted[c].tolist() == sorted(
                drawn[c].tolist(), key=lambda i: (costs[i], i))


def test_setup_peak_memory_stays_near_one_contact_matrix():
    # set-up holds one N x n contact matrix: organize may add a quarter of
    # it at its peak and ContactOrder, which sorts it in place, a quarter
    # (tracemalloc sees numpy buffers); a second matrix would not fit
    tracemalloc.start()
    try:
        topo = organize(TopologyConfig(n_core=100_000, n_periphery=1000,
                                       primary_contacts_per_core=200,
                                       periphery_per_core=10, seed=1))
        organize_peak = tracemalloc.get_traced_memory()[1]
        fleet = make_fleet(np.ones(100_000, dtype=np.int8),
                           costs=np.random.default_rng(1).uniform(1, 10, 100_000))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ContactOrder(topo, fleet)
        order_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    matrix = topo.core_primary_contacts.nbytes
    assert organize_peak <= 1.25 * matrix
    assert order_peak <= 0.25 * matrix
