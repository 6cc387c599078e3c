"""The run's random draws against numpy's scalar calls, which are the oracle.

The request stream (`workload`) draws B x 4 doubles and B entries per block
of B requests, and the market draws a block's invitation positions through
the topology's sampler of distinct values (`topology._distinct_sorted_rows`):
one `rng.integers` call for the first draws, and one for each round of
redraws. numpy's block calls read the generator as its scalar calls do, one
draw after the other, so each block draw must equal a scalar reference
drawn on a twin generator, and leave the twin's state. A sample holds what
rng.choice's does: k distinct members of the list. Uniformity over
k-subsets is `test_market`'s and `test_topology`'s."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sococ import workload
from sococ.harness import PRESET_NAMES, derive_seeds, preset
from sococ.market import Invitations
from sococ.topology import ContactTopology, _distinct_sorted_rows, organize
from sococ.workload import (
    REQUEST_MODES,
    DistributionSpec,
    Mode,
    ServiceRequest,
    WorkloadConfig,
    generate_stream,
)


def hold_a_half(*generators):
    """Leave each generator holding the high half of a word."""
    for g in generators:
        g.integers(2**32, dtype=np.uint32)


def assert_same_state(rng, twin):
    assert rng.bit_generator.state == twin.bit_generator.state


def drew_exactly(rng, seed, halves):
    """Whether `rng`, seeded with `seed`, has read exactly `halves` 32-bit
    halves: none of its bounded draws met a Lemire redraw."""
    ahead = np.random.default_rng(seed)
    ahead.integers(2**32, size=halves, dtype=np.uint32)
    return rng.bit_generator.state == ahead.bit_generator.state


# -- samples of k of a list ------------------------------------------------------

def scalar_positions(rng, pops, ks):
    """The sampler in scalar calls: each row draws min(k, pop - k)
    positions in turn, with replacement; then, round after round, with
    every row sorted, each position that repeats the one before it is drawn
    again, in row order, until no row holds a repeat. A row of k > pop / 2
    has drawn the positions it leaves out, and holds the others. Rows
    ascending, of k positions each."""
    flips = [2 * k > pop for pop, k in zip(pops, ks)]
    rows = [[int(rng.integers(pop)) for _ in range(pop - k if flip else k)]
            for pop, k, flip in zip(pops, ks, flips)]
    while True:
        for row in rows:
            row.sort()
        repeats = [(row, c, pop) for row, pop in zip(rows, pops)
                   for c in range(1, len(row)) if row[c] == row[c - 1]]
        if not repeats:
            break
        for row, c, pop in repeats:
            row[c] = int(rng.integers(pop))
    return [sorted(set(range(pop)) - set(row)) if flip else row
            for row, pop, flip in zip(rows, pops, flips)]


def flat_topology(sizes):
    """A topology whose known-core lists have `sizes`, laid out as
    `organize` lays them out: views of one int32 array of distinct ids."""
    starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    known = np.arange(0, 3 * starts[-1], 3, dtype=np.int32)
    return ContactTopology(
        n_core=max(1, 3 * int(starts[-1])), n_periphery=len(sizes),
        core_known_periphery=np.zeros((0, 1), np.int32),
        core_primary_contacts=np.zeros((0, 0), np.int32),
        periphery_known_cores=np.split(known, starts[1:-1]),
        known_cores=known, known_core_starts=starts)


def population(pop):
    """pcs-like ids: ascending, spread out, int32; the ids of the one list
    of `flat_topology([pop])`."""
    return np.arange(0, 3 * pop, 3, dtype=np.int32)


def fraction_of(pop, k):
    """An invited fraction that invites k of a list of pop."""
    fraction = k / pop if pop else 0.0
    while math.ceil(fraction * pop) > k:
        fraction = np.nextafter(fraction, 0.0)
    return fraction


# rows drawn directly and as complements (k > pop / 2), the edges among
# them: nothing drawn, everything drawn, one element
SAMPLE_TABLE = [
    (0, 0), (1, 0), (1, 1), (2, 2), (7, 0), (7, 7), (100, 100), (3000, 80),
    (10000, 201), (10000, 10000),
    (10001, 200), (10001, 201), (10001, 10001),
    (20000, 400), (20000, 401), (20000, 20000),
    (50000, 1000), (50000, 1001),
]

# The calls a sample can be drawn by, each against the scalar reference on
# a twin generator: `default` is the market's (`Invitations.draw`), `python`
# the sampler given per-row arrays of k and pop, as the market calls it, and
# `numpy` the sampler given one k and one pop for all its rows, as
# `organize` calls it, whose every draw is one numpy call with a scalar
# bound into an int32 block.
SIDES = ("default", "python", "numpy")


def samplers(side, rng, twin, pop, k):
    """(sample, oracle): functions of no argument that draw one k-sample
    of population(pop), the side's on `rng` and the reference on `twin`."""
    ids = population(pop)

    def by_reference():
        return ids[scalar_positions(twin, [pop], [k])[0]].tolist()

    if side == "numpy":
        return (lambda: ids[_distinct_sorted_rows(rng, 1, k, pop)[0]].tolist()), by_reference
    if side == "python":
        pops, ks = np.array([pop]), np.array([k])
        return (lambda: ids[_distinct_sorted_rows(rng, 1, ks, pops)[0, :k]].tolist()), by_reference
    invitations = Invitations(flat_topology([pop]), fraction_of(pop, k), rng)
    return (lambda: invitations.draw([0])[0]), by_reference


def assert_like_choice(got, ids, k):
    """`got` holds what rng.choice(ids, size=k, replace=False) does."""
    assert len(got) == len(set(got)) == k
    assert set(got) <= set(ids.tolist())


@pytest.mark.parametrize("side,pop,k", [(side, pop, k) for side in SIDES for pop, k in SAMPLE_TABLE])
def test_sample_matches_rng_choice_on_the_table(side, pop, k):
    for seed in range(3):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        sample, oracle = samplers(side, rng, twin, pop, k)
        for _ in range(3):
            got = sample()
            assert got == oracle(), (seed, pop, k)
            assert_like_choice(got, population(pop), k)
        assert_same_state(rng, twin)


@pytest.mark.parametrize("side", SIDES)
def test_sample_matches_rng_choice_on_random_sizes(side):
    sizes = random.Random(15)
    rng, twin = np.random.default_rng(15), np.random.default_rng(15)
    for _ in range(500):
        pop = sizes.randint(1, 3000)
        k = sizes.randint(0, min(80, pop))
        sample, oracle = samplers(side, rng, twin, pop, k)
        got = sample()
        assert got == oracle()
        assert_like_choice(got, population(pop), k)
    assert_same_state(rng, twin)


def test_sample_past_32_bits_is_left_to_numpy():
    # numpy draws 64-bit integers for positions past 2**32 - 1, and the
    # sampler given per-row bounds hands them to it as they are
    pops, ks = np.array([2**32 + 5] * 3), np.array([2] * 3)
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    got = _distinct_sorted_rows(rng, 3, ks, pops)
    assert got.tolist() == scalar_positions(twin, pops.tolist(), ks.tolist())
    assert_same_state(rng, twin)


@pytest.mark.parametrize("hi", [0, 1, 999, 2**31 + 1, 2**32 - 2, 2**32 - 1])
def test_bounded_matches_rng_integers(hi):
    # the stream's entries and the block sampler's samples of 1 of hi + 1
    # are rng.integers(hi + 1) draws; at hi = 2**31 + 1 half of them meet
    # a Lemire redraw, at the others none does
    config = replace(WORKLOAD, n_requests=2000)
    _, entry_rng = stream_generators(3)
    want = [int(entry_rng.integers(hi + 1)) for _ in range(2000)]
    assert [r.entry_periphery for r in generate_stream(config, hi + 1, 3)] == want
    rng, twin = np.random.default_rng(hi), np.random.default_rng(hi)
    got = _distinct_sorted_rows(rng, 2000, np.array([1] * 2000), np.array([hi + 1] * 2000))[:, 0]
    assert got.tolist() == [int(twin.integers(hi + 1)) for _ in range(2000)]
    assert_same_state(rng, twin)
    assert drew_exactly(rng, hi, 0 if hi == 0 else 2000) == (hi != 2**31 + 1)


def test_bounded_zero_takes_no_draw():
    # samples of nothing and of 1 of 1 draw nothing, and take no word
    rng = np.random.default_rng(3)
    start = rng.bit_generator.state
    got = _distinct_sorted_rows(rng, 4, np.array([1, 0, 0, 1]), np.array([1, 0, 7, 1]))
    assert got[[0, 3], 0].tolist() == [0, 0]
    assert rng.bit_generator.state == start
    invitations = Invitations(flat_topology([0, 1, 4]), 0.0, rng)
    assert list(invitations.draw([0, 1, 2, 0])) == [[], [], [], []]
    assert rng.bit_generator.state == start


def test_draws_fetch_lazily_in_bounded_blocks():
    # a market's invitations take no word until a block is drawn, and a
    # block reads only its own draws: 4 of 100, with no duplicate to draw
    # again, read four 32-bit halves
    rng = np.random.default_rng(2)
    start = rng.bit_generator.state
    invitations = Invitations(flat_topology([100]), 0.04, rng)
    assert rng.bit_generator.state == start
    [invited] = invitations.draw([0])
    assert len(set(invited)) == 4
    assert drew_exactly(rng, 2, 4)


@pytest.mark.parametrize("side,first", [
    (side, first) for side in SIDES for first in ("unit", "bounded", "sample", "large sample")])
def test_a_half_held_by_the_generator_is_served_first(monkeypatch, side, first):
    if first == "unit":
        # the stream's entry generator holds a half after a block of an odd
        # number of 32-bit entries, and the next block's first entry reads
        # it, as the next scalar draw would: at every side
        monkeypatch.setattr(workload, "BLOCK_REQUESTS", 3)
        config = replace(WORKLOAD, n_requests=8)
        assert list(generate_stream(config, 50, 8)) == list(scalar_requests(config, 50, 8))
        return
    pop, k = {"bounded": (1000, 1), "sample": (100, 3), "large sample": (2000, 60)}[first]
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    hold_a_half(rng, twin)
    sample, oracle = samplers(side, rng, twin, pop, k)
    assert sample() == oracle()
    assert_same_state(rng, twin)


@pytest.mark.parametrize("side", SIDES)
def test_interleaved_doubles_and_integers_match(side):
    # as in a run: the stream draws doubles and entries from its two
    # generators, here at a bound where half the entries meet a redraw, and
    # the side's sampler draws each request's invitation from a third, of
    # a size the entry picks
    config = replace(WORKLOAD, n_requests=300)
    want = scalar_requests(config, WIDE, 21)
    rng, twin = np.random.default_rng(22), np.random.default_rng(22)
    for got, expected in zip(generate_stream(config, WIDE, 21), want, strict=True):
        assert got == expected
        pop, k = (105, 4) if got.entry_periphery % 2 else (1900, 57)
        sample, oracle = samplers(side, rng, twin, pop, k)
        assert sample() == oracle()
    assert_same_state(rng, twin)


class HalvesRead:
    """A generator's scalar `integers` calls, counting the 32-bit halves
    they would read if none met a Lemire redraw: one per draw whose bound
    is over 1 and at most 2**32."""

    def __init__(self, rng):
        self.rng, self.halves = rng, 0

    def integers(self, high):
        self.halves += high > 1
        return self.rng.integers(high)


# a bound near 2**31, where half the 32-bit draws meet a Lemire redraw
WIDE = 2**31 + 1


@pytest.mark.parametrize("draw", ["bounded", "sample"])
def test_lemire_redraws_a_biased_low_word(draw):
    # at bounds near 2**31 a quarter to a half of the 32-bit draws meet a
    # Lemire redraw, which numpy's block calls make as its scalar calls
    # do: the stream's entries at M = 3 * 2**30 and 2**31 + 1, and blocks
    # of samples near 2**31 mixed with small ones, with and without a half
    # held. Each case reads more halves than it has draws
    if draw == "bounded":
        config = replace(WORKLOAD, n_requests=1500)
        for n_periphery in (3 * 2**30, WIDE):
            got = list(generate_stream(config, n_periphery, 17))
            assert got == list(scalar_requests(config, n_periphery, 17))
            _, entry_rng = stream_generators(17)
            entry_rng.integers(n_periphery, size=1500)
            assert not drew_exactly(entry_rng, np.random.SeedSequence(17).spawn(2)[1], 1500)
        return
    shapes = random.Random(17)
    for held in (False, True):
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        if held:
            hold_a_half(rng, twin)
        counted = HalvesRead(twin)
        for _ in range(40):
            samples = [shapes.choice([(WIDE, 3), (3 * 2**30, 4), (2**31, 2), (100, 4),
                                      (7, 2), (2, 1), (0, 0)])
                       for _ in range(shapes.randint(1, 30))]
            pops, ks = map(np.array, zip(*samples))
            rows = _distinct_sorted_rows(rng, len(ks), ks, pops).tolist()
            want = scalar_positions(counted, pops.tolist(), ks.tolist())
            assert [row[:k] for row, k in zip(rows, ks)] == want
        assert_same_state(rng, twin)
        assert not drew_exactly(rng, 17, int(held) + counted.halves)


# -- the request stream --------------------------------------------------------

def stream_generators(seed):
    """The stream's generators of `seed`: (doubles, entries)."""
    return tuple(map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2)))


def scalar_requests(config, n_periphery, seed):
    """The request stream of `seed` in numpy's scalar calls: per request,
    four doubles (gap, mode, workload, duration), each u = 1 - random() on
    (0, 1], then its entry. A value is `transform`'s at its own draw, as
    numpy's array and scalar powers may differ in the last bit."""
    units, entries = stream_generators(seed)

    def draw(dist):
        return float(workload.transform(dist, np.array([1.0 - units.random()]))[0])

    p1, p2, _ = config.mode_probabilities
    workload_range = DistributionSpec("uniform", *config.workload_range)
    t = 0.0
    for i in range(config.n_requests):
        t += draw(config.interarrival)
        u = 1.0 - units.random()
        mode = REQUEST_MODES[0 if u < p1 else 1 if u < p1 + p2 else 2]
        size = draw(workload_range)
        duration = draw(config.service)
        yield ServiceRequest(i, t, mode, size, duration, int(entries.integers(n_periphery)))


WORKLOAD = replace(preset("exp4-desk").workload, n_requests=600)
STREAM_REQUESTS = 3000


def stream_cases():
    for name in PRESET_NAMES:
        p = preset(name)
        yield name, p.workload, p.topology.n_periphery
    base = preset("exp1-desk").workload
    yield "uniform-pareto", replace(
        base,
        interarrival=DistributionSpec("uniform", 0.0, 2.0),
        service=DistributionSpec("pareto", 2.5, 0.5),
        mode_probabilities=(0.5, 0.2, 0.3),
    ), 7
    yield "one-periphery", base, 1
    yield "widest-periphery", base, 2**32


@pytest.mark.parametrize("name,config,n_periphery", list(stream_cases()),
                         ids=[c[0] for c in stream_cases()])
def test_stream_matches_the_scalar_reference(name, config, n_periphery):
    config = replace(config, n_requests=STREAM_REQUESTS)
    seed = derive_seeds(len(name))[2]
    got = list(generate_stream(config, n_periphery, seed))
    assert got == list(scalar_requests(config, n_periphery, seed))


@pytest.mark.parametrize("name", ["exp1-desk", "exp4-desk"])
def test_a_preset_stream_draws_no_request_through_draws(monkeypatch, name):
    # every request of a preset stream is drawn in a block pass, none by a
    # draw of its own
    p = preset(name)
    passes = []
    requests_from = workload._requests_from

    def counted(config, first, t, units, entries):
        passes.append(len(entries))
        return requests_from(config, first, t, units, entries)

    monkeypatch.setattr(workload, "_requests_from", counted)
    config = replace(p.workload, n_requests=STREAM_REQUESTS)
    assert len(list(generate_stream(config, p.topology.n_periphery, 1))) == STREAM_REQUESTS
    full, rest = divmod(STREAM_REQUESTS, workload.BLOCK_REQUESTS)
    assert passes == [workload.BLOCK_REQUESTS] * full + [rest] * bool(rest)


def test_a_mode_draw_on_a_threshold_takes_the_next_mode():
    # the scalar rule is u < p1 for M1 and u < p1 + p2 for M2: a draw equal
    # to a threshold is not below it
    config = preset("exp1-desk").workload
    p1, p2, _ = config.mode_probabilities
    units = np.array([[0.5, p1, 0.5, 0.5], [0.5, p1 + p2, 0.5, 0.5]])
    requests, _ = workload._requests_from(config, 0, 0.0, units, [0, 0])
    assert [r.mode for r in requests] == [Mode.M2, Mode.M3]


def distributions(low):
    """DistributionSpecs of every kind; uniform bounds are at least `low`."""
    scale = st.floats(1e-3, 1e3)
    return st.one_of(
        st.builds(DistributionSpec, st.just("exponential"), scale),
        st.builds(DistributionSpec, st.just("pareto"), st.floats(1.01, 10.0), scale),
        st.lists(st.floats(low, 1e3), min_size=2, max_size=2).map(
            lambda bounds: DistributionSpec("uniform", *sorted(bounds))),
    )


@st.composite
def workloads(draw):
    p1 = draw(st.floats(0.0, 1.0))
    p2 = draw(st.floats(0.0, 1.0 - p1))
    lo, hi = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2)))
    return WorkloadConfig(
        interarrival=draw(distributions(0.0)),
        service=draw(distributions(1e-3)),
        workload_range=(lo, hi),
        mode_probabilities=(p1, p2, 1.0 - p1 - p2),
        n_requests=draw(st.integers(1, 600)),
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(config=workloads(), n_periphery=st.integers(1, 2**40), seed=st.integers(0, 2**64))
def test_stream_matches_the_scalar_reference_on_any_workload(config, n_periphery, seed):
    got = list(generate_stream(config, n_periphery, seed))
    assert got == list(scalar_requests(config, n_periphery, seed))


# -- invitations drawn in blocks ---------------------------------------------------

def in_blocks(items, lengths):
    """`items` cut into consecutive blocks of the given lengths, in turn."""
    at, turn = 0, 0
    while at < len(items):
        length = lengths[turn % len(lengths)]
        yield items[at:at + length]
        at, turn = at + length, turn + 1


@st.composite
def invitation_runs(draw):
    """(list sizes, fraction, entry peripheries, block lengths) of a run;
    lists of up to ~12 / fraction cores keep invitations small, and a
    fraction over 1/2 draws every invitation of a list of two or more as
    the complement of the cores it leaves out."""
    fraction = draw(st.one_of(st.sampled_from([1.0, 0.5, 0.03, 0.001]), st.floats(0.001, 1.0)))
    cap = min(3000, int(12 / fraction) + 1)
    sizes = draw(st.lists(st.one_of(st.sampled_from([0, 1, cap]), st.integers(0, cap)),
                          min_size=1, max_size=8))
    # hypothesis keeps drawn lists short, so long runs come from a seed
    n_requests = draw(st.one_of(st.sampled_from([1, 1200]), st.integers(1, 1200)))
    picks = random.Random(draw(st.integers(0, 2**32)))
    entries = [picks.randrange(len(sizes)) for _ in range(n_requests)]
    lengths = draw(st.lists(st.one_of(st.sampled_from([1, 512]), st.integers(1, 700)),
                            min_size=1, max_size=4))
    return sizes, fraction, entries, lengths


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(run=invitation_runs(), seed=st.integers(0, 2**64), held=st.booleans())
def test_block_invitations_match_rng_choice(run, seed, held):
    # a run's invitations are each block's scalar reference, and each holds
    # what rng.choice's does
    sizes, fraction, entries, lengths = run
    topo = flat_topology(sizes)
    lists = topo.periphery_known_cores
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if held:  # the generator holds a half, which is served first
        hold_a_half(rng, twin)
    invitations = Invitations(topo, fraction, rng)
    for block in in_blocks(entries, lengths):
        ks = [math.ceil(fraction * sizes[p]) for p in block]
        rows = scalar_positions(twin, [sizes[p] for p in block], ks)
        want = [lists[p][row].tolist() for p, row in zip(block, rows)]
        got = invitations.draw(block)
        assert got == want
        for p, k, invited in zip(block, ks, got):
            assert_like_choice(invited, lists[p], k)
    assert_same_state(rng, twin)


class Planted:
    """A generator whose first `integers` call returns `first`, the first
    round of a block's positions; it records the bounds of every call."""

    def __init__(self, rng, first):
        self.rng, self.first, self.bounds = rng, first, []

    def integers(self, low, high, size=None, dtype=np.int64):
        self.bounds.append(np.asarray(high).tolist())
        if len(self.bounds) == 1:
            return self.first
        return self.rng.integers(low, high, size=size, dtype=dtype)


def plant_duplicates(rng, pops, ks, rows):
    """A first round of positions for a block of (pops, ks), drawn by
    `rng`, in which each of `rows` repeats its first position, and the
    offsets of each row's draws in it. A row of k > pop / 2 draws the pop -
    k positions it leaves out."""
    drawn = np.where(2 * ks > pops, pops - ks, ks)
    first = rng.integers(np.repeat(pops, drawn))
    at = np.concatenate(([0], np.cumsum(drawn)))
    for r in rows:
        assert drawn[r] >= 2
        first[at[r] + 1] = first[at[r]]
    return first, at


def assert_redraws_exactly(planted, first, at, pops, ks, rows, drawn):
    """The block drawn from `first` redrew exactly the surplus positions of
    the first round, those of `rows` among them, in row order, and kept the
    rows that held none as drawn."""
    firsts = [sorted(first[at[r]:at[r + 1]].tolist()) for r in range(len(ks))]
    surplus = [r for r, row in enumerate(firsts) for c in range(1, len(row))
               if row[c] == row[c - 1]]
    assert set(rows) <= set(surplus)
    assert planted.bounds[1] == pops[surplus].tolist()
    for r, row in enumerate(firsts):
        if r not in surplus:
            kept = sorted(set(range(pops[r])) - set(row)) if 2 * ks[r] > pops[r] else row
            assert drawn[r] == kept
        assert len(set(drawn[r])) == ks[r]


# (pop, k) of the samples in turn, and the rows of a block of 27 in which
# a planted duplicate sends a sample through the draws again
SPOT_SAMPLES = [(100, 4), (37, 3), (60, 5), (2, 2), (0, 0), (9, 2), (1, 1)]
SPOTS = {"first of a block": [0], "last of a block": [26], "two in a row": [7, 8]}


@pytest.mark.parametrize("spot", list(SPOTS))
def test_a_redraw_sends_exactly_its_sample_through_draws(spot):
    pops, ks = map(np.array, zip(*[SPOT_SAMPLES[r % len(SPOT_SAMPLES)] for r in range(27)]))
    first, at = plant_duplicates(np.random.default_rng(31), pops, ks, SPOTS[spot])
    planted = Planted(np.random.default_rng(32), first)
    rows = _distinct_sorted_rows(planted, len(ks), ks, pops).tolist()
    drawn = [row[:k] for row, k in zip(rows, ks)]
    assert_redraws_exactly(planted, first, at, pops, ks, SPOTS[spot], drawn)


def test_a_planted_redraw_sends_exactly_its_invitation_through_draws():
    # exp4-desk's market, seed 1: a duplicate planted in the 41st of a
    # block's invitations sends that invitation through the draws again
    p = preset("exp4-desk")
    seeds = derive_seeds(1)
    topo = organize(replace(p.topology, primary_contacts_per_core=0), seeds[0])
    config = replace(p.workload, n_requests=workload.BLOCK_REQUESTS)
    entries = [r.entry_periphery for r in generate_stream(config, p.topology.n_periphery, seeds[2])]
    invitations = Invitations(topo, p.market.invited_fraction, None)
    at = np.array(entries)
    pops, ks = topo.pcs_sizes()[at], invitations._ks[at]
    first, starts = plant_duplicates(np.random.default_rng(seeds[3]), pops, ks, [40])
    invitations._rng = planted = Planted(np.random.default_rng(seeds[3] + 1), first)
    lists = topo.periphery_known_cores
    drawn = [np.searchsorted(lists[e], invited).tolist()
             for e, invited in zip(entries, invitations.draw(entries))]
    assert_redraws_exactly(planted, first, starts, pops, ks, [40], drawn)
