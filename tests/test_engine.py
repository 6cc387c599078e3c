"""Fleet initialization, commit/release accounting and the event loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from sococ.engine import CAPACITY_TOL, EngineConfig, Fleet, init_servers, run
from sococ.errors import ConfigurationError, InternalConsistencyError
from sococ.harness import PRESET_NAMES, preset
from sococ.market import Coalition, Market, MarketConfig, _eligible
from sococ.metrics import MetricsConfig, MetricsSink, build_report
from sococ.topology import ContactTopology, TopologyConfig, organize
from sococ.workload import (
    DistributionSpec,
    Mode,
    ServiceRequest,
    WorkloadConfig,
    generate_stream,
)


def small_topology(n_core=20, n_periphery=2, m=2, contacts=5, seed=0):
    return organize(TopologyConfig(
        n_core=n_core, n_periphery=n_periphery,
        primary_contacts_per_core=min(contacts, n_core - 1),
        periphery_per_core=m,
    ), seed)


def make_fleet(modes, costs=None, background=None, capacity=10.0):
    n = len(modes)
    return Fleet(
        modes=np.array(modes, dtype=np.int8),
        capacity=capacity,
        background=np.array(background if background is not None else [0.0] * n),
        unit_cost=np.array(costs if costs is not None else list(range(1, n + 1)), dtype=float),
    )


def request(rid, t, mode=Mode.M1, workload=1.0, duration=1.0, entry=0):
    return ServiceRequest(id=rid, arrival_time=t, mode=mode, workload=workload,
                          duration=duration, entry_periphery=entry)


def run_requests(topology, fleet, requests, market_config=None, seed=0, bin_size=100):
    """Run the requests; return the engine stats and the run report."""
    sink = MetricsSink(MetricsConfig(bin_size=bin_size, n_subsets=10))
    config = market_config or MarketConfig("C2", invited_fraction=1.0)
    stats = run(topology, fleet, requests, config, sink, np.random.default_rng(seed))
    return stats, build_report(sink, fleet, stats, config_echo={}, seed=seed, preset="test")


def won(report):
    return report.n_requests - report.unsatisfied


# -- configuration -------------------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(capacity_scu=0.0)
    with pytest.raises(ConfigurationError):
        EngineConfig(initial_state_mix=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ConfigurationError):
        EngineConfig(initial_load_range=(0.5, 1.5))
    with pytest.raises(ConfigurationError):
        EngineConfig(cost_range=(0.0, 1.0))


# -- init_servers ----------------------------------------------------------------

def test_all_sleep_mix_gives_idle_fleet():
    fleet = init_servers(small_topology(), EngineConfig(initial_state_mix=(1, 0, 0, 0)), 0)
    assert (fleet.modes == Mode.SLEEP).all()
    assert (fleet.committed == 0.0).all()


def test_state_mix_matches_binomial_oracle_at_scale():
    topo = small_topology(n_core=1_000_000, n_periphery=2, m=1, contacts=0)
    fleet = init_servers(topo, EngineConfig(), 3)
    sleep_count = int((fleet.modes == Mode.SLEEP).sum())
    sigma = math.sqrt(0.2 * 0.8 * 1_000_000)
    assert abs(sleep_count - 200_000) <= 3 * sigma


def test_equal_thirds_mix_has_no_sleepers():
    third = 1.0 / 3.0
    topo = small_topology(n_core=3000)
    fleet = init_servers(topo, EngineConfig(initial_state_mix=(0.0, third, third, third)), 0)
    assert (fleet.modes != Mode.SLEEP).all()
    for mode in (Mode.M1, Mode.M2, Mode.M3):
        share = (fleet.modes == mode).mean()
        assert abs(share - third) < 0.05


def test_background_load_and_costs_respect_ranges():
    topo = small_topology(n_core=5000)
    config = EngineConfig(initial_load_range=(0.3, 0.8), cost_range=(1.0, 10.0))
    fleet = init_servers(topo, config, 0)
    running = fleet.modes != Mode.SLEEP
    assert (fleet.background[~running] == 0.0).all()
    assert (fleet.background[running] >= 3.0).all()
    assert (fleet.background[running] <= 8.0).all()
    assert (fleet.unit_cost >= 1.0).all() and (fleet.unit_cost <= 10.0).all()
    assert (fleet.committed == fleet.background).all()


def test_init_is_deterministic_per_seed():
    topo = small_topology()
    a = init_servers(topo, EngineConfig(), 5)
    b = init_servers(topo, EngineConfig(), 5)
    c = init_servers(topo, EngineConfig(), 6)
    assert (a.modes == b.modes).all() and (a.unit_cost == b.unit_cost).all()
    assert not ((a.modes == c.modes).all() and (a.unit_cost == c.unit_cost).all())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_init_servers_numbers_the_drawn_servers_cheapest_first(name):
    # each preset's fleet law, at no more than desk size: the columns come
    # out in cost order, and the (mode, cost, background) triples are the
    # servers drawn in the documented order, renumbered whole
    config = preset(name).engine
    n = min(preset(name).topology.n_core, 20_000)
    fleet = init_servers(SimpleNamespace(n_core=n), config, 7)
    assert (np.diff(fleet.unit_cost) >= 0).all()

    rng = np.random.default_rng(7)
    modes = rng.choice(4, size=n, p=list(config.initial_state_mix))
    costs = rng.uniform(*config.cost_range, size=n)
    loads = rng.uniform(*config.initial_load_range, size=n) * config.capacity_scu
    background = np.where(modes == Mode.SLEEP, 0.0, loads)
    drawn = zip(modes.tolist(), costs.tolist(), background.tolist())
    got = zip(fleet.modes.tolist(), fleet.unit_cost.tolist(), fleet.background.tolist())
    assert sorted(got) == sorted(drawn)
    assert (fleet.committed == fleet.background).all()


def five_ulps_above(c):
    for _ in range(5):
        c = np.nextafter(c, np.inf)
    return float(c)


@pytest.mark.parametrize("cost_range", [
    (3.0, 3.0),                    # every cost tied: one run spans the fleet
    (3.0, five_ulps_above(3.0)),   # six costs, thousands of servers each
])
def test_init_servers_keeps_tied_servers_in_drawn_order(cost_range):
    # the stable order of the costs, ties in drawn order; numpy's default
    # argsort leaves the partly tied draw's runs in another order
    config = EngineConfig(cost_range=cost_range)
    n = 20_000
    fleet = init_servers(SimpleNamespace(n_core=n), config, 7)

    rng = np.random.default_rng(7)
    modes = rng.choice(4, size=n, p=list(config.initial_state_mix))
    costs = rng.uniform(*config.cost_range, size=n)
    loads = rng.uniform(*config.initial_load_range, size=n) * config.capacity_scu
    stable = np.argsort(costs, kind="stable")
    assert np.array_equal(fleet.unit_cost, costs[stable])
    assert np.array_equal(fleet.modes, modes[stable])
    assert np.array_equal(fleet.background,
                          np.where(modes == Mode.SLEEP, 0.0, loads)[stable])


# -- commit / release accounting ---------------------------------------------------

def test_commit_and_release_roundtrip():
    from sococ.market import Coalition
    fleet = make_fleet([Mode.M1, Mode.SLEEP], background=[4.0, 0.0])
    coalition = Coalition(np.array([0, 1]), np.array([2.0, 3.0]))
    fleet.commit(request(7, 0.0, workload=5.0), coalition)
    assert fleet.committed.tolist() == [6.0, 3.0]
    assert fleet.modes[1] == Mode.M1          # sleeper woke into the request mode
    assert fleet.coalition_count.tolist() == [1, 1]
    fleet.check_conservation()
    fleet.release(7)
    assert fleet.committed.tolist() == [4.0, 0.0]
    assert fleet.modes[1] == Mode.SLEEP       # drained recruit sleeps again
    assert fleet.coalition_count.tolist() == [1, 1]


def test_a_recruit_drained_to_the_tolerance_goes_back_to_sleep():
    # a load of at most CAPACITY_TOL is float residue: here 2 * tol - tol,
    # exactly tol
    fleet = make_fleet([Mode.SLEEP], background=[CAPACITY_TOL])
    coalition = Coalition(np.array([0]), np.array([CAPACITY_TOL]))
    fleet.commit(request(0, 0.0, workload=CAPACITY_TOL), coalition)
    assert fleet.modes[0] == Mode.M1
    fleet.release(0)
    assert fleet.modes[0] == Mode.SLEEP
    assert fleet.committed[0] == 0.0


def test_release_of_unknown_request_is_fatal():
    fleet = make_fleet([Mode.M1])
    with pytest.raises(InternalConsistencyError):
        fleet.release(99)


def test_double_commit_is_fatal():
    from sococ.market import Coalition
    fleet = make_fleet([Mode.M1])
    coalition = Coalition(np.array([0]), np.array([1.0]))
    fleet.commit(request(1, 0.0), coalition)
    with pytest.raises(InternalConsistencyError):
        fleet.commit(request(1, 0.0), coalition)


def test_conservation_check_detects_corruption():
    fleet = make_fleet([Mode.M1], background=[2.0])
    fleet.check_conservation()
    fleet.committed[0] += 1.0  # no matching live allocation
    with pytest.raises(InternalConsistencyError):
        fleet.check_conservation()


def test_server_view_reflects_live_allocations():
    from sococ.market import Coalition
    fleet = make_fleet([Mode.M2], background=[3.0])
    fleet.commit(request(4, 0.0, mode=Mode.M2), Coalition(np.array([0]), np.array([2.5])))
    assert fleet.committed[0] == pytest.approx(5.5)
    assert fleet.capacity - fleet.committed[0] == pytest.approx(4.5)
    ids, allocs = fleet.live[4]
    assert list(fleet.live) == [4]
    assert ids == [0] and allocs == [2.5]


def test_scalar_views_and_numpy_columns_share_one_ledger():
    # the per-request path writes through memoryviews; the columns must show
    # every write, and every numpy write must reach the next scan and check
    fleet = make_fleet([Mode.SLEEP, Mode.M1, Mode.M1], background=[0.0, 2.0, 2.0])
    fleet.commit(request(1, 0.0, workload=5.0),
                 Coalition(np.array([0, 1]), np.array([3.0, 2.0])))
    assert fleet.committed.tolist() == [3.0, 4.0, 2.0]
    assert fleet.modes.tolist() == [Mode.M1, Mode.M1, Mode.M1]
    assert fleet.coalition_count.tolist() == [1, 1, 0]
    assert fleet.recruited_from_sleep.tolist() == [True, False, False]

    fleet.committed[2] = 9.995  # less than the minimum allocation left free
    fleet.modes[1] = Mode.M2
    assert [i for i, _ in _eligible(fleet, memoryview(np.arange(3)), Mode.M1)] == [0]
    assert [i for i, _ in _eligible(fleet, [0, 1, 2], Mode.M2)] == [1]
    with pytest.raises(InternalConsistencyError, match=r"servers \[2\]"):
        fleet.commit(request(2, 0.0), Coalition(np.array([0, 2]), np.array([1.0, 0.5])))

    fleet.committed[2] = 2.0
    fleet.recruited_from_sleep[0] = False  # server 0 now keeps its mode
    fleet.release(1)
    assert fleet.committed.tolist() == [0.0, 2.0, 2.0]
    assert fleet.modes.tolist() == [Mode.M1, Mode.M2, Mode.M1]


# -- event loop --------------------------------------------------------------------

def test_zero_requests_leave_state_untouched():
    topo = small_topology()
    fleet = init_servers(topo, EngineConfig(), 1)
    before = fleet.committed.copy()
    modes_before = fleet.modes.copy()
    _, report = run_requests(topo, fleet, [])
    assert report.n_requests == 0
    assert (fleet.committed == before).all()
    assert (fleet.modes == modes_before).all()


def test_single_request_lifecycle_conserves_capacity():
    topo = small_topology()
    fleet = make_fleet([Mode.M1] * 20, background=[4.0] * 20)
    stats, report = run_requests(topo, fleet, [request(0, 1.0, workload=2.0)])
    assert won(report) == 1
    assert stats.completed == 1
    assert (fleet.coalition_count.sum()) == 1  # singleton coalition
    assert np.allclose(fleet.committed, fleet.background)


def test_completion_frees_capacity_before_equal_time_arrival():
    # r1 can only be served by server 0, whose capacity is busy until
    # exactly r1's arrival instant; ties must process the completion first
    topo = small_topology(n_core=3)
    fleet = make_fleet([Mode.M1, Mode.M3, Mode.M3], background=[9.9, 0.0, 0.0])
    requests = [
        request(0, 1.0, workload=0.1, duration=1.0),
        request(1, 2.0, workload=0.1, duration=1.0),
    ]
    _, report = run_requests(topo, fleet, requests)
    assert won(report) == 2
    assert report.unsatisfied == 0


def test_ledger_balances_with_in_flight_requests():
    topo = small_topology()
    fleet = make_fleet([Mode.M1] * 20, background=[9.0] * 20)
    # durations far beyond the last arrival keep everything in flight
    requests = [request(i, float(i + 1), workload=0.5, duration=1000.0)
                for i in range(10)]
    stats, report = run_requests(topo, fleet, requests)
    assert report.n_requests == 10 == won(report) + report.unsatisfied
    assert won(report) == stats.completed_at_stream_end + stats.in_flight_at_stream_end
    assert stats.in_flight_at_stream_end == 10
    assert stats.completed_at_stream_end == 0
    # the post-stream drain completes everything and returns the fleet
    # to its background load
    assert stats.completed == 10
    assert np.allclose(fleet.committed, fleet.background)


def test_unsatisfied_requests_are_recorded_and_never_retried():
    topo = small_topology(n_core=4)
    fleet = make_fleet([Mode.M2] * 4, background=[0.0] * 4)
    requests = [request(0, 1.0, mode=Mode.M1), request(1, 2.0, mode=Mode.M2)]
    _, report = run_requests(topo, fleet, requests)
    assert report.unsatisfied == 1
    assert won(report) == 1
    assert report.totals["M1"].failed == 1
    assert report.totals["M2"].failed == 0


def test_originally_running_server_keeps_mode_after_drain():
    topo = small_topology(n_core=2)
    fleet = make_fleet([Mode.M2, Mode.M3], background=[1.0, 1.0])
    stats, _ = run_requests(topo, fleet, [request(0, 1.0, mode=Mode.M2, workload=1.0)])
    assert stats.completed == 1
    assert fleet.modes[0] == Mode.M2
    assert fleet.committed[0] == pytest.approx(1.0)


def test_multiplexing_increments_coalition_count_per_request():
    topo = small_topology(n_core=1, n_periphery=1, m=1, contacts=0)
    fleet = make_fleet([Mode.M1], background=[0.0])
    requests = [request(i, float(i + 1) * 0.001, workload=1.0, duration=50.0)
                for i in range(5)]
    _, report = run_requests(topo, fleet, requests)
    assert won(report) == 5
    assert fleet.coalition_count[0] == 5


def test_event_digest_is_deterministic_and_seed_sensitive():
    def one_run(seed):
        topo = small_topology(n_core=200, n_periphery=4, m=2, contacts=20, seed=1)
        fleet = init_servers(topo, EngineConfig(), 2)
        config = WorkloadConfig(
            interarrival=DistributionSpec("exponential", 1.0),
            service=DistributionSpec("exponential", 2.0),
            workload_range=(0.1, 20.0),
            mode_probabilities=(1 / 3, 1 / 3, 1 / 3),
            n_requests=500,
        )
        stream = generate_stream(config, 4, seed)
        market = MarketConfig("C2", invited_fraction=0.1,
                              use_secondary_contacts=True)
        _, report = run_requests(topo, fleet, stream, market_config=market, seed=seed)
        return report

    a, b, c = one_run(3), one_run(3), one_run(4)
    assert a.event_digest == b.event_digest
    assert won(a) == won(b)
    assert a.event_digest != c.event_digest


def test_invariant_checked_stress_run_stays_clean():
    # heavy multiplexing with sleepers and both protocols
    for initiation in ("C1", "C2"):
        topo = small_topology(n_core=100, n_periphery=3, m=2, contacts=10, seed=5)
        fleet = init_servers(
            topo, EngineConfig(initial_state_mix=(0.3, 0.3, 0.2, 0.2),
                               initial_load_range=(0.5, 0.9)), 6)
        config = WorkloadConfig(
            interarrival=DistributionSpec("exponential", 0.2),
            service=DistributionSpec("pareto", 2.0, 1.0),
            workload_range=(0.1, 30.0),
            mode_probabilities=(0.5, 0.25, 0.25),
            n_requests=2000,
        )
        market = MarketConfig(initiation, invited_fraction=0.3, use_secondary_contacts=True)
        stream = generate_stream(config, 3, 7)
        _, report = run_requests(topo, fleet, stream, market_config=market, seed=8)
        assert report.n_requests == 2000
        assert 0 < won(report) <= 2000
        assert np.allclose(fleet.committed, fleet.background, atol=1e-6)


# -- fault injection: every run checks the ledger -----------------------------------

def test_commit_rejects_a_server_listed_twice():
    fleet = make_fleet([Mode.M1, Mode.M1], background=[1.0, 1.0])
    coalition = Coalition(np.array([0, 0]), np.array([1.0, 1.0]))
    with pytest.raises(InternalConsistencyError, match="repeats a server"):
        fleet.commit(request(3, 0.0, workload=2.0), coalition)
    assert fleet.committed.tolist() == [1.0, 1.0]
    assert not fleet.live


def test_release_rejects_a_negative_load():
    fleet = make_fleet([Mode.M1], background=[1.0])
    fleet.commit(request(5, 0.0, workload=2.0), Coalition(np.array([0]), np.array([2.0])))
    fleet.committed[0] = 1.5  # releasing 2.0 SCU would leave -0.5
    with pytest.raises(InternalConsistencyError, match="negative load"):
        fleet.release(5)


def test_run_rejects_an_arrival_a_hair_before_the_last_event():
    topo = small_topology()
    fleet = make_fleet([Mode.M1] * 20)
    with pytest.raises(InternalConsistencyError, match="backwards"):
        run_requests(topo, fleet, [request(0, 5.0), request(1, 5.0 - 1e-6)])


def test_run_catches_a_write_to_an_untouched_server(monkeypatch):
    topo = small_topology(n_core=4)
    # every request is M1, so no coalition ever touches the M3 server 3
    fleet = make_fleet([Mode.M1, Mode.M1, Mode.M1, Mode.M3], background=[1.0] * 4)
    run_auction = Market.run_auction

    def run_auction_then_corrupt(mkt, req):
        if req.id == 1:
            fleet.committed[3] += 1.0
        return run_auction(mkt, req)

    monkeypatch.setattr(Market, "run_auction", run_auction_then_corrupt)
    with pytest.raises(InternalConsistencyError, match="allocation-sum mismatch"):
        run_requests(topo, fleet, [request(i, float(i + 1)) for i in range(3)])


def test_run_catches_allocations_mutated_before_release():
    topo = small_topology()
    fleet = make_fleet([Mode.M1] * 20, background=[4.0] * 20)
    commit = fleet.commit

    def commit_then_corrupt(req, coalition):
        commit(req, coalition)
        allocs = fleet.live[req.id][1]
        allocs[:] = [a * 0.5 for a in allocs]

    fleet.commit = commit_then_corrupt
    with pytest.raises(InternalConsistencyError, match="allocation-sum mismatch"):
        run_requests(topo, fleet, [request(0, 1.0, workload=2.0)])


def test_run_catches_a_won_request_missing_from_the_live_ledger():
    topo = small_topology()
    fleet = make_fleet([Mode.M1] * 20, background=[4.0] * 20)
    commit = fleet.commit

    def commit_then_forget(req, coalition):
        commit(req, coalition)
        del fleet.live[req.id]  # its completion is still pending

    fleet.commit = commit_then_forget
    with pytest.raises(InternalConsistencyError, match="in-flight ledger"):
        run_requests(topo, fleet, [request(0, 1.0, workload=2.0, duration=100.0)])


# -- random small topologies and streams ----------------------------------------------

def ledger_cases(n_cases=100):
    """A fixed table of random cases: (n_core, n_periphery, contact_share,
    initiation, use_secondary, fraction, mean_gap, n_requests, seed)."""
    rng = np.random.default_rng(2013)
    return [
        (int(rng.integers(1, 61)), int(rng.integers(1, 7)), float(rng.uniform(0.0, 1.0)),
         ("C1", "C2")[rng.integers(2)], bool(rng.integers(2)), float(rng.uniform(0.05, 1.0)),
         float(rng.uniform(0.01, 2.0)), int(rng.integers(1, 81)), int(rng.integers(0, 2**16 + 1)))
        for _ in range(n_cases)
    ]


def check_fleet_ledger(n_core, n_periphery, contact_share, initiation, use_secondary,
                       fraction, mean_gap, n_requests, seed):
    topo = organize(TopologyConfig(
        n_core=n_core, n_periphery=n_periphery,
        primary_contacts_per_core=round(contact_share * (n_core - 1)),
        periphery_per_core=1 + seed % n_periphery,
    ), seed)
    fleet = init_servers(topo, EngineConfig(), seed + 1)
    modes_before = fleet.modes.copy()
    peak = fleet.committed.copy()
    commit = fleet.commit
    commits = []

    def watched_commit(req, coalition):
        commit(req, coalition)
        commits.append(req.id)
        np.maximum(peak, fleet.committed, out=peak)

    fleet.commit = watched_commit
    stream = generate_stream(WorkloadConfig(
        interarrival=DistributionSpec("exponential", mean_gap),
        service=DistributionSpec("exponential", 5.0),
        workload_range=(0.1, 30.0),
        mode_probabilities=(1 / 3, 1 / 3, 1 / 3),
        n_requests=n_requests,
    ), n_periphery, seed + 2)
    config = MarketConfig(initiation, invited_fraction=fraction,
                          use_secondary_contacts=use_secondary)
    stats, report = run_requests(topo, fleet, stream, market_config=config, seed=seed + 3)

    assert report.n_requests == n_requests == won(report) + report.unsatisfied
    assert sum(t.requests for t in report.totals.values()) == n_requests
    assert sum(t.failed for t in report.totals.values()) == report.unsatisfied
    assert stats.completed == won(report) == len(commits)
    assert (peak <= fleet.capacity + CAPACITY_TOL).all()
    assert not fleet.live
    assert np.allclose(fleet.committed, fleet.background, rtol=0.0, atol=1e-9)
    assert (fleet.modes == modes_before).all()


def test_random_runs_keep_the_fleet_ledger():
    for case in ledger_cases():
        check_fleet_ledger(*case)
