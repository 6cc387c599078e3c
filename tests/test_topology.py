"""Contact-topology construction and its closed-form statistical oracles."""

import math
import os
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sococ import market, topology
from sococ.errors import ConfigurationError
from sococ.market import ContactOrder
from sococ.topology import (
    ContactTopology,
    TopologyConfig,
    _sample_rows_fisher_yates,
    _sample_rows_rejection,
    compute_stats,
    equal_width_histogram,
    expected_pcs_size,
    expected_secondary_fraction,
    organize,
    secondary_mask,
)


def make(n_core, n_periphery, m, n_contacts, seed=0):
    return organize(
        TopologyConfig(
            n_core=n_core,
            n_periphery=n_periphery,
            primary_contacts_per_core=n_contacts,
            periphery_per_core=m,
        ),
        seed,
    )


# -- configuration validation ------------------------------------------------

def test_config_rejects_m_larger_than_periphery_count():
    with pytest.raises(ConfigurationError):
        TopologyConfig(n_core=10, n_periphery=5, primary_contacts_per_core=2,
                       periphery_per_core=6)


def test_config_rejects_contact_count_at_fleet_size():
    with pytest.raises(ConfigurationError):
        TopologyConfig(n_core=10, n_periphery=5, primary_contacts_per_core=10,
                       periphery_per_core=2)


def test_config_rejects_empty_fleet():
    with pytest.raises(ConfigurationError):
        TopologyConfig(n_core=0, n_periphery=5, primary_contacts_per_core=0,
                       periphery_per_core=1)


# -- organize ----------------------------------------------------------------

def test_single_periphery_is_known_to_every_core():
    topo = make(4, 1, 1, 3)
    assert (topo.core_known_periphery == 0).all()
    assert sorted(topo.periphery_known_cores[0].tolist()) == [0, 1, 2, 3]


def test_lists_have_distinct_entries_and_exclude_owner():
    topo = make(500, 40, 7, 12, seed=3)
    for c in range(topo.n_core):
        periphery = topo.core_known_periphery[c]
        contacts = topo.core_primary_contacts[c]
        assert len(set(periphery.tolist())) == 7
        assert len(set(contacts.tolist())) == 12
        assert c not in contacts
        assert periphery.min() >= 0 and periphery.max() < 40
        assert contacts.min() >= 0 and contacts.max() < 500


def test_inverse_relation_is_exact():
    for seed in range(5):
        topo = make(300, 20, 5, 10, seed=seed)
        rebuilt = [[] for _ in range(20)]
        for c in range(topo.n_core):
            for p in topo.core_known_periphery[c]:
                rebuilt[p].append(c)
        for p in range(20):
            assert sorted(rebuilt[p]) == topo.periphery_known_cores[p].tolist()


def test_pcs_sizes_sum_is_exactly_n_times_m():
    for seed in range(5):
        topo = make(1000, 37, 9, 4, seed=seed)
        assert topo.pcs_sizes().sum() == 1000 * 9


def test_same_seed_reproduces_topology_different_seed_does_not():
    a = make(200, 20, 5, 10, seed=11)
    b = make(200, 20, 5, 10, seed=11)
    c = make(200, 20, 5, 10, seed=12)
    assert (a.core_known_periphery == b.core_known_periphery).all()
    assert (a.core_primary_contacts == b.core_primary_contacts).all()
    assert not (a.core_known_periphery == c.core_known_periphery).all()


def test_pcs_mean_matches_expectation_oracle():
    # the inverse relation makes the mean exact: sum(pcs sizes) = N*m
    topo = make(10_000, 100, 10, 50, seed=5)
    sizes = topo.pcs_sizes()
    mean = sizes.mean()
    assert mean == expected_pcs_size(10_000, 10, 100) == 1000.0
    stderr = sizes.std() / math.sqrt(len(sizes))
    assert abs(mean - 1000.0) <= 3 * stderr


def test_pcs_mean_exact_across_many_seeds():
    means = [make(10_000, 100, 10, 0, seed=s).pcs_sizes().mean() for s in range(30)]
    assert all(m == 1000.0 for m in means)


def test_large_population_contact_sampler_stays_uniform():
    # contacts drawn from ~100k cores exercise the rejection sampler; the
    # selection frequency of any single core should be ~ N*n/(N-1)
    topo = make(20_000, 10, 2, 40, seed=2)
    freq = np.bincount(topo.core_primary_contacts.ravel(), minlength=20_000)
    expected = 40.0
    # 3-sigma binomial band plus slack for the 20k simultaneous checks
    sigma = math.sqrt(expected)
    assert freq.mean() == pytest.approx(expected, abs=1e-9)
    assert freq.max() < expected + 6 * sigma
    assert freq.min() > expected - 6 * sigma


def reference_rejection(rng, n_rows, k, pop):
    """The rejection sampler stated over one int64 block: draw every row,
    then redraw whole each row that holds a duplicate, until none does."""
    out = rng.integers(0, pop, size=(n_rows, k), dtype=np.int64)
    pending = np.arange(n_rows)
    while pending.size:
        srt = np.sort(out[pending], axis=1)
        pending = pending[(srt[:, 1:] == srt[:, :-1]).any(axis=1)]
        if pending.size:
            out[pending] = rng.integers(0, pop, size=(pending.size, k), dtype=np.int64)
    return out


def test_rejection_sampler_is_unchanged_across_chunk_boundaries(monkeypatch):
    # ~50 draws from 2000 collide in ~45% of rows, forcing several redraw
    # rounds; 3 rows to a chunk makes every round cross chunk boundaries,
    # and k = 49 gives each chunk an odd number of draws
    for k in (49, 50):
        monkeypatch.setattr(topology, "CHUNK_CELLS", 3 * k)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = _sample_rows_rejection(rng, 1000, k, 2000)
        assert got.dtype == np.int32
        assert np.array_equal(got, reference_rejection(ref_rng, 1000, k, 2000))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_fisher_yates(rng, n_rows, k, pop, draw_rows):
    """The partial Fisher-Yates shuffle on one full scratch matrix per block
    of `draw_rows` rows, drawing each step's swap targets as it goes."""
    out = np.empty((n_rows, k), dtype=np.int32)
    for lo in range(0, n_rows, draw_rows):
        c = min(draw_rows, n_rows - lo)
        base = np.tile(np.arange(pop), (c, 1))
        ridx = np.arange(c)
        for s in range(k):
            j = rng.integers(s, pop, size=c)
            picked = base[ridx, j].copy()
            base[ridx, j] = base[:, s]
            base[:, s] = picked
        out[lo : lo + c] = base[:, :k]
    return out


@pytest.mark.parametrize("k", [20, 50])
@pytest.mark.parametrize("draw_rows", [None, 7])
def test_fisher_yates_sampler_is_unchanged_across_scratch_blocks(monkeypatch, k, draw_rows):
    # 3-row scratch blocks, against draw blocks of all rows (the default
    # at this size) or of 7 rows, so the two never line up; k == pop is a
    # full permutation of each row
    pop = 50
    monkeypatch.setattr(topology, "CHUNK_CELLS", 3 * pop)
    if draw_rows is None:
        draw_rows = topology._FY_DRAW_CELLS // pop
    else:
        monkeypatch.setattr(topology, "_FY_DRAW_CELLS", draw_rows * pop)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = _sample_rows_fisher_yates(rng, 1000, k, pop)
    assert got.dtype == np.int32
    assert np.array_equal(got, reference_fisher_yates(ref_rng, 1000, k, pop, draw_rows))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- chunks on several threads ----------------------------------------------

def report_cpus(monkeypatch, n):
    monkeypatch.setattr(topology.os, "sched_getaffinity", lambda pid: set(range(n)))


def threads_per_call(monkeypatch):
    """Spy on for_row_chunks, in topology and in market: one entry per call,
    (chunks, threads that ran one). In a call of several chunks the first
    chunk each thread takes waits for the other thread's first chunk, so
    the call breaks, not passes, if its chunks all run on one thread."""
    calls = []
    real = topology.for_row_chunks

    def spy(fn, n_rows, row_cells):
        chunks = len(list(topology.row_chunks(n_rows, row_cells)))
        ran, lock = set(), threading.Lock()
        meet = threading.Barrier(2, timeout=10)

        def counted(rows):
            with lock:
                first = threading.get_ident() not in ran
                ran.add(threading.get_ident())
            if first and chunks > 1:
                meet.wait()
            fn(rows)

        real(counted, n_rows, row_cells)
        calls.append((chunks, len(ran)))

    monkeypatch.setattr(topology, "for_row_chunks", spy)
    monkeypatch.setattr(market, "for_row_chunks", spy)
    return calls


def test_set_up_is_unchanged_on_two_threads(monkeypatch):
    # N - 1 > _FY_POP_LIMIT sends the contacts through the rejection
    # sampler; 4 rows to a chunk gives its first duplicate check, the
    # contact shift and the cost ordering hundreds of chunks each
    monkeypatch.setattr(topology, "CHUNK_CELLS", 4 * 9)
    n = 5000
    config = TopologyConfig(n_core=n, n_periphery=20,
                            primary_contacts_per_core=9, periphery_per_core=3)
    fleet = SimpleNamespace(
        unit_cost=np.random.default_rng(4).integers(1, 20, size=n).astype(float))

    def set_up(cpus):
        report_cpus(monkeypatch, cpus)
        topo = organize(config, 4)
        drawn = topo.core_primary_contacts.copy()
        order = ContactOrder(topo, fleet)
        rng = np.random.default_rng(6)
        rows = _sample_rows_rejection(rng, 1000, 50, 2000)
        return drawn, order.primary_sorted, rows, rng.bit_generator.state

    drawn, ordered, rows, state = set_up(1)
    calls = threads_per_call(monkeypatch)
    two = set_up(2)
    assert np.array_equal(two[0], drawn)
    assert np.array_equal(two[1], ordered)
    assert np.array_equal(two[2], rows)
    assert two[3] == state
    # at least organize's first duplicate check, its shift, the ordering
    # and the sampler's first check above
    assert sum(1 for chunks, _ in calls if chunks > 100) >= 4
    assert all(ran == min(2, chunks) for chunks, ran in calls)


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_a_chunk_that_raises_raises_in_the_caller(monkeypatch, raiser):
    # 10 chunks; each thread's first chunk waits for the other's, then the
    # other thread holds its second chunk until the raiser, which takes the
    # chunks in between, has raised on the middle one
    report_cpus(monkeypatch, 2)
    monkeypatch.setattr(topology, "CHUNK_CELLS", 10)
    caller = threading.get_ident()
    meet = threading.Barrier(2, timeout=10)
    raised = threading.Event()
    started = set()

    def fn(rows):
        me = threading.get_ident()
        if me not in started:
            started.add(me)
            meet.wait()
        elif (me == caller) != (raiser == "caller"):
            raised.wait(10)
        elif rows.start == 50:
            raised.set()
            raise ValueError(rows)

    before = threading.active_count()
    with pytest.raises(ValueError, match=r"slice\(50, 60"):
        topology.for_row_chunks(fn, 100, 1)
    assert raised.is_set()
    assert threading.active_count() == before


def test_a_c1_run_imports_no_thread_pool(tmp_path):
    # C1 draws no contacts, so no set-up loop has a second chunk and the
    # thread pool's import, ~0.6 MB of RSS, never happens; four CPUs are
    # reported so the test holds on a one-CPU host
    script = f"""
import os, sys
from dataclasses import replace
os.sched_getaffinity = lambda pid: set(range(4))
from sococ.harness import preset, run_experiment
p = preset("exp4-desk")
p = replace(p, workload=replace(p.workload, n_requests=300))
report = run_experiment(p, 1, {str(tmp_path)!r})
assert report.n_requests == 300, report.n_requests
assert "concurrent.futures" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(topology.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr


# -- compute_stats -----------------------------------------------------------

def test_single_shared_periphery_gives_full_secondary_reach():
    topo = make(50, 1, 1, 3)
    stats = compute_stats(topo)
    assert (stats.secondary_counts == 49).all()


def test_secondary_counts_match_pairwise_enumeration():
    topo = make(300, 25, 4, 6, seed=9)
    stats = compute_stats(topo)
    sets = [set(row.tolist()) for row in topo.core_known_periphery]
    for c in range(300):
        expected = [
            other for other in range(300)
            if other != c and sets[c] & sets[other]
        ]
        assert np.flatnonzero(secondary_mask(topo, c)).tolist() == expected
        assert stats.secondary_counts[c] == len(expected)


def test_sampled_secondary_fraction_matches_hypergeometric_oracle():
    rng = np.random.default_rng(42)
    for m in (2, 10, 50):
        topo = make(2000, 100, m, 5, seed=m)
        stats = compute_stats(topo, sample_size=1000, rng=rng)
        frac = stats.secondary_counts / 1999
        oracle = expected_secondary_fraction(100, m)
        stderr = frac.std() / math.sqrt(len(frac))
        assert abs(frac.mean() - oracle) <= max(3 * stderr, 1e-12), (m, frac.mean(), oracle)


def test_stats_reject_bad_sample_size():
    topo = make(10, 2, 1, 2)
    with pytest.raises(ConfigurationError):
        compute_stats(topo, sample_size=0)
    with pytest.raises(ConfigurationError):
        compute_stats(topo, sample_size=11)
    # a sample is drawn from the caller's generator, never a hidden one
    with pytest.raises(ConfigurationError, match="rng"):
        compute_stats(topo, sample_size=5)


def test_stats_reject_empty_topology():
    topo = ContactTopology(
        n_core=0, n_periphery=0,
        core_known_periphery=np.zeros((0, 0), np.int32),
        core_primary_contacts=np.zeros((0, 0), np.int32),
        periphery_known_cores=[],
    )
    with pytest.raises(ConfigurationError):
        compute_stats(topo)


# -- analytic oracles --------------------------------------------------------

def test_expected_pcs_size_values():
    assert expected_pcs_size(8_388_608, 5, 1000) == pytest.approx(41_943.04)
    # published measurement for the same draw
    assert abs(expected_pcs_size(8_388_608, 5, 1000) - 41_859) / 41_859 < 0.003
    assert expected_pcs_size(123, 7, 7) == 123.0
    assert expected_pcs_size(1000, 2, 10) == 200.0
    with pytest.raises(ConfigurationError):
        expected_pcs_size(10, 5, 4)


def test_expected_secondary_fraction_brute_force():
    # exact enumeration over all C(10,2)^2 ordered pairs of draws
    M, m = 10, 2
    pairs = list(combinations(range(M), m))
    hits = sum(bool(set(a) & set(b)) for a in pairs for b in pairs)
    assert expected_secondary_fraction(M, m) == pytest.approx(hits / len(pairs) ** 2)
    assert expected_secondary_fraction(M, m) == pytest.approx(1 - 56 / 90)


def test_expected_secondary_fraction_edges():
    assert expected_secondary_fraction(7, 7) == 1.0
    assert expected_secondary_fraction(10, 6) == 1.0  # 2m > M forces overlap
    assert expected_secondary_fraction(1000, 5) == pytest.approx(0.0248, abs=2e-4)
    with pytest.raises(ConfigurationError):
        expected_secondary_fraction(10, 11)
    with pytest.raises(ConfigurationError):
        expected_secondary_fraction(10, 0)


def test_expected_secondary_fraction_monotone_until_saturation():
    # strictly increasing in m while below 1, then pinned at exactly 1
    M = 60
    values = [expected_secondary_fraction(M, m) for m in range(1, M + 1)]
    for prev, cur in zip(values, values[1:]):
        assert cur > prev or prev == cur == 1.0
    assert values[-1] == 1.0


# -- histograms ---------------------------------------------------------------

def test_histogram_single_value_collapses_to_one_bucket():
    buckets = equal_width_histogram(np.array([7, 7, 7]), 4)
    assert buckets == [(7.0, 7.0, 3)]


def test_histogram_boundary_rule_upper_edge_exclusive_except_last():
    buckets = equal_width_histogram(np.array([0, 5, 10]), 2)
    assert buckets == [(0.0, 5.0, 1), (5.0, 10.0, 2)]


def test_histogram_counts_sum_to_sample_size():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1000, size=500)
    for buckets in (equal_width_histogram(values, 7), equal_width_histogram(values, 20)):
        assert sum(c for _, _, c in buckets) == 500


def test_histogram_rejects_zero_buckets():
    with pytest.raises(ConfigurationError):
        equal_width_histogram(np.array([1, 2]), 0)


def test_secondary_histogram_mode_sits_near_the_mean():
    topo = make(2000, 100, 10, 5, seed=1)
    stats = compute_stats(topo)
    buckets = equal_width_histogram(stats.secondary_counts, 20)
    assert sum(c for _, _, c in buckets) == 2000
    modal = max(buckets, key=lambda b: b[2])
    # distribution concentrates around its mean
    assert modal[0] <= stats.secondary_mean <= modal[1] or (
        abs(modal[0] - stats.secondary_mean) < 0.1 * stats.secondary_mean
        or abs(modal[1] - stats.secondary_mean) < 0.1 * stats.secondary_mean
    )
