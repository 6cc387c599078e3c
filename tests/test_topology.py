"""Contact-topology construction and its closed-form statistical oracles."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

from sococ import market, topology
from sococ.errors import ConfigurationError
from sococ.market import ContactOrder
from sococ.topology import (
    ContactTopology,
    TopologyConfig,
    _invert_selection,
    _sample_rows,
    compute_stats,
    row_chunks,
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


def argsort_inverse(known_periphery):
    """The cores of each periphery list by a stable argsort of the whole
    matrix: the inversion's reference."""
    m = known_periphery.shape[1]
    return (np.argsort(known_periphery.ravel(), kind="stable") // m).astype(np.int32)


@pytest.mark.parametrize("n_core, m, n_periphery", [
    (20_000, 3, 5),           # uint8 keys; every list in every chunk
    (9_000, 7, 256),          # uint8, the largest M
    (9_000, 7, 257),          # uint16
    (6_000, 10, 65_536),      # uint16, the largest M
    (6_000, 10, 65_537),      # uint32
    (3_000, 30, 1_000_000),   # uint32, most lists empty
])
def test_counting_sort_inversion_matches_a_stable_argsort(monkeypatch, n_core, m, n_periphery):
    # 60,000 cells or more, so the counting sort's lists span several
    # chunks, and its counts six or more chunks of 10,000 cells; rows drawn
    # with replacement may name a server twice
    monkeypatch.setattr(topology, "CHUNK_CELLS", 10_000)
    known = np.random.default_rng(n_periphery).integers(
        0, n_periphery, size=(n_core, m), dtype=np.int32)
    owners, starts = _invert_selection(known, n_periphery)
    assert owners.dtype == np.int32
    assert np.array_equal(owners, argsort_inverse(known))
    counts = np.bincount(known.ravel(), minlength=n_periphery)
    assert np.array_equal(starts, np.concatenate(([0], np.cumsum(counts))))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What `_invert_selection` may hold beside its result: a placing chunk's
# temporaries (~0.25 MiB at _INVERT_CELLS) and the counts and cursors (8
# bytes a list each). A counting chunk's int64 copy (8 bytes a cell, 2 MiB
# at CHUNK_CELLS) is freed before the result is made; the whole matrix's
# copy, 15.3 MiB at N*m = 2*10^6, would break the bound.
INVERT_ALLOWANCE = 1 << 20


@pytest.mark.parametrize("n_core", [10_000, 200_000])
def test_counting_sort_inversion_peaks_no_higher_than_the_argsort(n_core):
    # m=10 of M=1000 at N*m = 10^5 (perfbench c1-pool) and 2*10^6 (scale);
    # both peaks include the int32 result (tracemalloc sees numpy buffers),
    # and at scale the counting sort holds no more than its result and one
    # chunk's allowance
    known = np.random.default_rng(3).integers(0, 1000, size=(n_core, 10), dtype=np.int32)
    counting = traced_peak(lambda: _invert_selection(known, 1000))
    assert counting <= traced_peak(lambda: argsort_inverse(known))
    if n_core == 200_000:
        owners, starts = _invert_selection(known, 1000)
        assert counting <= owners.nbytes + starts.nbytes + INVERT_ALLOWANCE


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
    # contacts drawn from 20,000 cores through the block sampler; the
    # selection frequency of any single core should be ~ N*n/(N-1)
    topo = make(20_000, 10, 2, 40, seed=2)
    freq = np.bincount(topo.core_primary_contacts.ravel(), minlength=20_000)
    expected = 40.0
    # 3-sigma binomial band plus slack for the 20k simultaneous checks
    sigma = math.sqrt(expected)
    assert freq.mean() == pytest.approx(expected, abs=1e-9)
    assert freq.max() < expected + 6 * sigma
    assert freq.min() > expected - 6 * sigma


def reference_rejection(rng, n_rows, k, pop, block_rows):
    """The block sampler stated serially: each block of `block_rows` rows
    draws from its own child generator, in turn. A block draws every row,
    then round after round sorts its rows and redraws each cell that
    repeats the cell before it, in row order, until no row holds one. Where
    k > pop / 2 the rows draw the pop - k values they leave out."""
    flip = 2 * k > pop
    drawn = pop - k if flip else k
    starts = range(0, n_rows, block_rows)
    out = []
    for lo, gen in zip(starts, rng.spawn(len(starts))):
        rows = gen.integers(0, pop, size=(min(block_rows, n_rows - lo), drawn),
                            dtype=np.int32).tolist()
        while True:
            for row in rows:
                row.sort()
            repeats = [(row, c) for row in rows for c in range(1, drawn) if row[c] == row[c - 1]]
            if not repeats:
                break
            redrawn = gen.integers(0, pop, size=len(repeats), dtype=np.int32).tolist()
            for (row, c), value in zip(repeats, redrawn):
                row[c] = value
        if flip:
            rows = [sorted(set(range(pop)) - set(row)) for row in rows]
        out += rows
    return np.array(out, dtype=np.int32).reshape(n_rows, k)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chunk_rows", [3, None])
@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("k, pop", [(49, 2000), (4, 9), (6, 9)])
def test_rejection_sampler_matches_its_serial_reference(
        monkeypatch, cpus, chunk_rows, block_rows, k, pop):
    # 49 draws from 2000 repeat a value in ~45% of rows, forcing several
    # redraw rounds; 4 of 9 puts equal values at the ends of adjacent rows,
    # which are not duplicates; 6 of 9 draws the 3 values it leaves out.
    # Blocks of 1 or 7 rows, or of the default size (every row), run in
    # chunks of 3 blocks or of the default size.
    report_cpus(monkeypatch, cpus)
    if block_rows is None:
        block_rows = topology._BLOCK_CELLS // k
    else:
        monkeypatch.setattr(topology, "_BLOCK_CELLS", block_rows * k)
    if chunk_rows is not None:
        monkeypatch.setattr(topology, "CHUNK_CELLS", chunk_rows * block_rows * k)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = _sample_rows(rng, 1000, k, pop)
    assert got.dtype == np.int32
    assert np.array_equal(got, reference_rejection(ref_rng, 1000, k, pop, block_rows))
    # each block draws from its own child: the parent draws nothing
    assert rng.bit_generator.state == ref_rng.bit_generator.state == \
        np.random.default_rng(11).bit_generator.state


@pytest.mark.parametrize("k, pop", [(3, 7), (4, 9), (7, 7), (6, 7), (5, 8)])
def test_rejection_sampler_is_uniform_over_k_subsets(k, pop):
    # rows of 3 of 7 and 4 of 9 hold a duplicate ~30% and ~45% of the time,
    # and the ends of adjacent rows are often equal; 7 of 7, 6 of 7 and 5
    # of 8 (k = pop, pop - 1, pop / 2 + 1) are complements of the 0, 1 and
    # 3 values left out
    subsets = list(combinations(range(pop), k))
    rows = _sample_rows(np.random.default_rng(8), 1000 * len(subsets), k, pop)
    assert (np.diff(rows, axis=1) > 0).all()  # ascending and distinct
    assert rows.min() >= 0 and rows.max() < pop
    counts = Counter(map(tuple, rows.tolist()))
    if len(subsets) == 1:
        assert counts == {subsets[0]: len(rows)}
    else:
        assert chisquare([counts[s] for s in subsets]).pvalue > 1e-4


@pytest.mark.parametrize("skip_own", [False, True])
@pytest.mark.parametrize("prefix", [2, 3])
def test_split_rows_are_uniform_over_k_subsets(monkeypatch, prefix, skip_own):
    # 5 of 12 splits range(12) at T = 5 (prefix 2) or 8 (prefix 3): a row's
    # count c below T is hypergeometric, and each stratum is drawn directly
    # or as the complement of what it leaves out. Every row with c < 5
    # makes its block draw the second stratum; kept to 3 columns, a row is
    # its 3 lowest values, whether c < 3 or not. With skip_own, 13-row
    # blocks owned by cores 0..12, each from a fresh generator: row r
    # leaves out r, and taking each value above r down one maps it onto
    # range(12).
    monkeypatch.setattr(topology, "_PREFIX_CONTACTS", prefix)
    k, pop = 5, 12
    subsets = list(combinations(range(pop), k))
    if skip_own:
        block = slice(0, 13)
        seeds = np.random.SeedSequence(8).spawn(20 * len(subsets) // block.stop)
        rows = np.concatenate([
            topology._draw_block(np.random.default_rng(s), block, k, pop, True, kept=k)
            for s in seeds])
        owners = np.tile(np.arange(block.stop), len(seeds))[:, None]
        assert not (rows == owners).any()
        rows -= rows > owners
    else:
        n_rows = 100 * len(subsets)
        rows = _sample_rows(np.random.default_rng(8), n_rows, k, pop, kept=k)
        cut = _sample_rows(np.random.default_rng(8), n_rows, k, pop, kept=3)
        assert np.array_equal(cut, rows[:, :3])
    assert (np.diff(rows, axis=1) > 0).all()  # ascending and distinct
    assert rows.min() >= 0 and rows.max() < pop
    counts = Counter(map(tuple, rows.tolist()))
    assert chisquare([counts[s] for s in subsets]).pvalue > 1e-4


@pytest.mark.parametrize("n_core", [300, 5000])
def test_contact_rows_are_ascending_distinct_and_skip_their_owner(n_core):
    # 60 of 299 repeat a value in ~99.7% of rows, 60 of 4999 in ~30%
    contacts = make(n_core, 20, 3, 60, seed=7).core_primary_contacts
    assert contacts.shape == (n_core, 60)
    assert (np.diff(contacts, axis=1) > 0).all()
    assert contacts.min() >= 0 and contacts.max() < n_core
    assert not (contacts == np.arange(n_core)[:, None]).any()


@pytest.mark.parametrize("n_core, n_contacts", [(5000, 60), (40, 30), (12, 11)])
def test_the_fused_owner_shift_is_the_separate_shift_of_the_same_draws(
        monkeypatch, n_core, n_contacts):
    # blocks of 7 rows, so a row's owner is not its place in its block;
    # 30 of 39 and 11 of 11 are drawn as complements
    monkeypatch.setattr(topology, "_BLOCK_CELLS", 7 * n_contacts)
    config = TopologyConfig(n_core=n_core, n_periphery=20,
                            primary_contacts_per_core=n_contacts, periphery_per_core=3)
    rng = np.random.default_rng(5)
    _sample_rows(rng, n_core, 3, 20)  # the periphery lists come first
    drawn = _sample_rows(rng, n_core, n_contacts, n_core - 1)
    drawn += drawn >= np.arange(n_core, dtype=np.int32)[:, None]
    assert np.array_equal(organize(config, 5).core_primary_contacts, drawn)


def organize_whole_rows(monkeypatch, config, seed):
    """organize with every contact column kept, as it drew rows before it
    kept only _KEPT_CONTACTS of them."""
    with monkeypatch.context() as whole:
        whole.setattr(topology, "_KEPT_CONTACTS", config.primary_contacts_per_core)
        return organize(config, seed)


@pytest.mark.parametrize("n_contacts", [65, 200])
@pytest.mark.parametrize("block_rows", [7, None])
def test_kept_columns_and_the_tail_are_the_whole_draw(monkeypatch, n_contacts, block_rows):
    # blocks of 7 rows (43 blocks), every row checked; or of the default
    # 2^18 cells (two whole blocks and one of 17 rows), the rows at each
    # block's edges
    n_core = 300 if block_rows else 2 * (topology._BLOCK_CELLS // n_contacts) + 17
    if block_rows:
        monkeypatch.setattr(topology, "_BLOCK_CELLS", block_rows * n_contacts)
    config = TopologyConfig(n_core=n_core, n_periphery=20,
                            primary_contacts_per_core=n_contacts, periphery_per_core=3)
    whole = organize_whole_rows(monkeypatch, config, 4)
    cut = organize(config, 4)
    assert whole.contact_blocks is None
    assert cut.core_primary_contacts.shape == (n_core, topology._KEPT_CONTACTS)
    assert np.array_equal(cut.core_known_periphery, whole.core_known_periphery)
    blocks = list(row_chunks(n_core, n_contacts, topology._BLOCK_CELLS))
    assert len(blocks) >= 3
    if block_rows:
        rows = range(n_core)
    else:
        rows = sorted({r for b in blocks for r in (b.start, b.start + 1, b.stop - 1)})
    for c in rows:
        tail = cut.contact_tail(c)
        assert tail.dtype == np.int32
        assert np.array_equal(np.concatenate((cut.core_primary_contacts[c], tail)),
                              whole.core_primary_contacts[c]), c


@pytest.mark.parametrize("n_contacts", [0, 9, 64])
def test_whole_rows_keep_no_tail_state(n_contacts):
    topo = make(500, 20, 3, n_contacts, seed=2)
    assert topo.core_primary_contacts.shape == (500, n_contacts)
    assert topo.contact_blocks is None
    assert topo.contact_tail(17).size == 0


@pytest.mark.parametrize("m, n_contacts", [(200, 100), (600, 100), (10, 500)],
                         ids=["200", "600", "split"])
def test_organize_is_unchanged_across_cpus_and_chunk_sizes(monkeypatch, m, n_contacts):
    # 3,000 cores knowing 200 or 600 of 1,000 periphery servers, the second
    # as complements: either periphery draw spans three or more blocks. Or
    # 500 contacts a row, drawn in two strata over six blocks: the rows
    # kept whole check the second stratum, which the cut rows never draw
    n = 3000
    assert len(list(row_chunks(n, max(m, n_contacts), topology._BLOCK_CELLS))) >= 3
    config = TopologyConfig(n_core=n, n_periphery=1000,
                            primary_contacts_per_core=n_contacts, periphery_per_core=m)

    def arrays():
        topo = organize(config, 12)
        return (topo.core_known_periphery, topo.core_primary_contacts,
                topo.known_cores, topo.known_core_starts,
                organize_whole_rows(monkeypatch, config, 12).core_primary_contacts)

    report_cpus(monkeypatch, 1)
    want = arrays()
    report_cpus(monkeypatch, 2)
    two = arrays()
    monkeypatch.setattr(topology, "CHUNK_CELLS", 5000)
    for got in (two, arrays()):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_set_up_draws_only_the_first_stratum_of_each_contact_row(monkeypatch):
    # 20,000 rows of 500 contacts: a whole draw takes 500 values a row, the
    # first stratum about _PREFIX_CONTACTS; the 10 periphery values a row
    # are counted too. No row holds fewer than the kept 64 values in its
    # first stratum here, so no block draws its second
    drawn, real = [], topology._distinct_sorted_rows

    def counted(gen, n_rows, k, pop):
        drawn.append(int(np.broadcast_to(k, n_rows).sum()))
        return real(gen, n_rows, k, pop)

    monkeypatch.setattr(topology, "_distinct_sorted_rows", counted)
    n = 20_000
    topo = organize(TopologyConfig(n_core=n, n_periphery=1000,
                                   primary_contacts_per_core=500, periphery_per_core=10), 1)
    assert topo.core_primary_contacts.shape == (n, topology._KEPT_CONTACTS)
    assert topology._PREFIX_CONTACTS * n <= sum(drawn) <= 1.5 * topology._PREFIX_CONTACTS * n


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
    # 4 rows of contacts to a block and to a chunk gives the contact draw
    # and the cost ordering hundreds of chunks each, and the periphery
    # draw 12 rows to a block
    monkeypatch.setattr(topology, "CHUNK_CELLS", 4 * 9)
    monkeypatch.setattr(topology, "_BLOCK_CELLS", 4 * 9)
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
        rows = _sample_rows(rng, 1000, 50, 2000)
        return drawn, order.primary_sorted, rows, rng.bit_generator.state

    drawn, ordered, rows, state = set_up(1)
    calls = threads_per_call(monkeypatch)
    two = set_up(2)
    assert np.array_equal(two[0], drawn)
    assert np.array_equal(two[1], ordered)
    assert np.array_equal(two[2], rows)
    assert two[3] == state
    # at least organize's two block loops, the ordering and the sampler's
    # block loop above (1,000 blocks of one row)
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
