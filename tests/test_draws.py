"""Block-served draws against numpy's own scalar calls, which are the oracle:
every value and every consumed word must match, so runs stay byte-identical."""

import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sococ import draws as draws_module
from sococ import workload
from sococ.draws import BLOCK_WORDS, Draws, FloydSamples
from sococ.errors import ConfigurationError
from sococ.harness import PRESET_NAMES, derive_seeds, preset
from sococ.market import Invitations, _choice, _replays
from sococ.topology import ContactTopology, organize
from sococ.workload import (
    REQUEST_MODES,
    DistributionSpec,
    Mode,
    ServiceRequest,
    WorkloadConfig,
    generate_stream,
)


def pair(seed):
    """A generator and a Draws over an identical twin of it."""
    return np.random.default_rng(seed), Draws(np.random.default_rng(seed))


def assert_in_step(rng, draws):
    """The next double and the next 32-bit draw agree, so both sides
    consumed the same words and hold the same kept half."""
    assert draws.unit() == rng.random()
    assert draws.bounded(2**31) == int(rng.integers(2**31 + 1))
    assert draws.unit() == rng.random()


# Floyd's algorithm below pop // 50, the tail shuffle above it once
# pop > 10,000, and the edges: nothing drawn, everything drawn, one element
SAMPLE_TABLE = [
    (0, 0), (1, 0), (1, 1), (2, 2), (7, 0), (7, 7), (100, 100), (3000, 80),
    (10000, 201), (10000, 10000),
    (10001, 200), (10001, 201), (10001, 10001),
    (20000, 400), (20000, 401), (20000, 20000),
    (50000, 1000), (50000, 1001),
]


def population(pop):
    """pcs-like ids: ascending, spread out, int32."""
    return np.arange(0, 3 * pop, 3, dtype=np.int32)


def is_tail_shuffle(pop, k):
    """Whether rng.choice shuffles the population's tail instead of running
    Floyd's algorithm."""
    return pop > 10000 and k > pop // 50


class BlockSampler:
    """FloydSamples as a (population, k) sampler: one sample per block."""

    def __init__(self, rng):
        self.floyd = FloydSamples(rng)

    def __call__(self, population, k):
        return population[self.floyd.positions([len(population)], [k])[0, :k]].tolist()


# The samplers a sample can be drawn by: `python` replays it with
# Draws.sample, `numpy` leaves it to rng.choice, and `default` is the way
# the market picks for a run whose largest invitation draws k of pop: a
# FloydSamples block decoder or rng.choice.
SIDES = ("default", "python", "numpy")


def sampler(side, rng, pop, k):
    if side == "python":
        return Draws(rng).sample
    if side == "numpy" or not _replays(pop, k):
        return partial(_choice, rng)
    return BlockSampler(rng)


# a Floyd sample of 3 whose draws have bounds near 2**31, so no two
# misaligned draws agree by chance
WIDE = 2**31 + 1


def assert_same_stream(rng, twin, sample):
    """`sample`, over `twin`, consumed the words rng's own calls did."""
    draws = getattr(sample, "__self__", None)
    if isinstance(draws, Draws):
        assert_in_step(rng, draws)
    elif isinstance(sample, BlockSampler):
        # it holds fetched words, so only its next draws can show it
        for _ in range(3):
            got = sample.floyd.positions([WIDE], [3])[0].tolist()
            assert got == rng.choice(WIDE, size=3, replace=False).tolist()
    else:
        assert twin.bit_generator.state == rng.bit_generator.state


# Draws replays Floyd's algorithm only: a tail shuffle draws k > 200 times,
# so the market leaves it to rng.choice
@pytest.mark.parametrize("side,pop,k", [
    (side, pop, k) for side in SIDES for pop, k in SAMPLE_TABLE
    if side != "python" or not is_tail_shuffle(pop, k)])
def test_sample_matches_rng_choice_on_the_table(side, pop, k):
    ids = population(pop)
    for seed in range(3):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        sample = sampler(side, twin, pop, k)
        for _ in range(3):
            got = sample(ids, k)
            assert got == rng.choice(ids, size=k, replace=False).tolist(), (seed, pop, k)
        assert_same_stream(rng, twin, sample)


@pytest.mark.parametrize("pop,k", [row for row in SAMPLE_TABLE if is_tail_shuffle(*row)])
def test_sample_refuses_a_tail_shuffle(pop, k):
    rng, draws = pair(0)
    with pytest.raises(ConfigurationError, match="Floyd samples only"):
        draws.sample(population(pop), k)
    assert_in_step(rng, draws)  # and took no draw


def test_sample_past_32_bits_is_left_to_numpy():
    # numpy draws 64-bit integers for slots past 2**32 - 1; a zero-stride
    # array stands in for so large a population. Draws refuses it, and the
    # market's rng.choice sampler serves it
    ids = np.broadcast_to(np.int64(5), (2**32 + 5,))
    rng, draws = pair(9)
    with pytest.raises(ConfigurationError, match="Floyd samples only"):
        draws.sample(ids, 2)
    assert_in_step(rng, draws)
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    assert sampler("numpy", twin, len(ids), 2)(ids, 2) == [5, 5]
    rng.choice(len(ids), size=2, replace=False)
    assert twin.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("side", SIDES)
def test_sample_matches_rng_choice_on_random_sizes(side):
    sizes = random.Random(15)
    rng, twin = np.random.default_rng(15), np.random.default_rng(15)
    sample = sampler(side, twin, 3000, 80)
    for _ in range(1000):
        ids = population(sizes.randint(1, 3000))
        k = sizes.randint(0, min(80, len(ids)))
        assert sample(ids, k) == rng.choice(ids, size=k, replace=False).tolist()
    assert_same_stream(rng, twin, sample)


@pytest.mark.parametrize("hi", [0, 1, 999, 2**31 + 1, 2**32 - 2, 2**32 - 1])
def test_bounded_matches_rng_integers(hi):
    rng, draws = pair(hi)
    for _ in range(2000):
        assert draws.bounded(hi) == int(rng.integers(hi + 1))
    assert_in_step(rng, draws)


def test_bounded_zero_takes_no_draw():
    rng, draws = pair(3)
    assert [draws.bounded(0) for _ in range(10)] == [0] * 10
    assert_in_step(rng, draws)


@pytest.mark.parametrize("side,first", [
    (side, first) for side in SIDES for first in ("unit", "bounded", "sample", "large sample")])
def test_a_half_held_by_the_generator_is_served_first(side, first):
    # doubles and integers are always a Draws's: only samples have sides
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    for g in (rng, twin):
        g.integers(2**32, dtype=np.uint32)  # leaves the high half held
    if first == "unit":
        draws = Draws(twin)
        assert draws.unit() == rng.random()
        assert_in_step(rng, draws)
    elif first == "bounded":
        draws = Draws(twin)
        assert draws.bounded(999) == int(rng.integers(1000))
        assert_in_step(rng, draws)
    else:
        pop, k = (100, 3) if first == "sample" else (2000, 60)
        ids = population(pop)
        sample = sampler(side, twin, pop, k)
        assert sample(ids, k) == rng.choice(ids, size=k, replace=False).tolist()
        assert_same_stream(rng, twin, sample)


@pytest.mark.parametrize("side", SIDES)
def test_interleaved_doubles_and_integers_match(side):
    # a 32-bit draw keeps a word's high half; doubles drawn meanwhile take
    # whole words and leave it kept, across block boundaries. On the python
    # side the same Draws serves the samples; on the others, as in a run,
    # they come from a generator of their own
    rng, draws = pair(21)
    if side == "python":
        picks, sample = rng, draws.sample
    else:
        picks, twin = np.random.default_rng(22), np.random.default_rng(22)
        sample = sampler(side, twin, 1900, 57)
    steps = random.Random(21)
    small, large = population(105), population(1900)
    for _ in range(20 * BLOCK_WORDS):
        step = steps.randrange(4)
        if step == 0:
            assert draws.unit() == rng.random()
        elif step == 1:
            hi = steps.choice([1, 6, 999, 2**31 + 1])
            assert draws.bounded(hi) == int(rng.integers(hi + 1))
        elif step == 2:
            assert sample(small, 4) == picks.choice(small, size=4, replace=False).tolist()
        else:
            assert sample(large, 57) == picks.choice(large, size=57, replace=False).tolist()
    assert_in_step(rng, draws)
    if side != "python":
        assert_same_stream(picks, twin, sample)


class ZeroWord(np.random.PCG64):
    """PCG64 whose word `zero_at` of the first block fetched in bulk is 0.
    A Draws over it sees the zero where numpy's scalar calls on a plain
    PCG64 see that word."""

    zero_at = 0

    def random_raw(self, size=None):
        words = super().random_raw(size)
        if not getattr(self, "zeroed", False):
            self.zeroed = True
            words[self.zero_at] = 0
        return words


def zero_word(seed, word=0):
    bit_generator = ZeroWord(seed)
    bit_generator.zero_at = word
    return np.random.Generator(bit_generator)


def test_unit_redraws_zero():
    draws = Draws(zero_word(4))
    rng = np.random.default_rng(4)
    rng.bit_generator.advance(1)  # past the word the zero replaced
    assert draws.unit() == rng.random()
    assert_in_step(rng, draws)


@pytest.mark.parametrize("first", ["bounded", "sample"])
def test_lemire_redraws_a_biased_low_word(first):
    # a zero word gives two 32-bit draws of 0, whose products have a low
    # word of 0, below 2**32 % (hi + 1) for any hi + 1 not a power of two:
    # both are redrawn, and the draws go on from the next word
    draws = Draws(zero_word(6))
    rng = np.random.default_rng(6)
    rng.bit_generator.advance(1)
    if first == "bounded":
        assert draws.bounded(999) == int(rng.integers(1000))
    else:
        ids = population(105)
        assert draws.sample(ids, 4) == rng.choice(ids, size=4, replace=False).tolist()
    assert_in_step(rng, draws)


@pytest.mark.parametrize("slot", ["floyd", "shuffle"])
def test_a_redraw_in_a_sample_read_to_the_block_end_refills(slot):
    # The sample's 9 draws start with exactly 9 halves unread, so its
    # unchecked loops read to the end of the block. A zero word makes the
    # draws at two of those halves redraw, in Floyd's loop (its second
    # slot) or in the shuffle (its first swap): the sample then needs two
    # halves of the next block.
    pop, k, n = 105, 5, 9
    first = 2 * BLOCK_WORDS - n
    skipped = (first + (1 if slot == "floyd" else k)) // 2
    draws = Draws(zero_word(7, skipped))
    for _ in range(first):
        draws.bounded(1)
    # The same draws mid-block: numpy's scalar calls take the first halves
    # without a bulk fetch, so the Draws taking over after them holds the
    # zero word near the start of its first block
    rng = zero_word(7, skipped - (first + 1) // 2)
    for _ in range(first):
        rng.integers(2)
    mid_block = Draws(rng)
    ids = population(pop)
    assert draws.sample(ids, k) == mid_block.sample(ids, k)
    for _ in range(3):
        assert draws.unit() == mid_block.unit()
        assert draws.bounded(2**31) == mid_block.bounded(2**31)
    if slot == "floyd":
        # numpy sees the zero word's draws only as redrawn: skip the word,
        # keeping the half the generator holds
        rng = np.random.default_rng(7)
        for _ in range(first):
            rng.integers(2)
        held = rng.bit_generator.state
        rng.bit_generator.advance(1)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = held["has_uint32"], held["uinteger"]
        rng.bit_generator.state = state
        draws = Draws(zero_word(7, skipped))
        for _ in range(first):
            draws.bounded(1)
        assert draws.sample(ids, k) == rng.choice(ids, size=k, replace=False).tolist()
        assert_in_step(rng, draws)


def test_draws_fetch_lazily_in_bounded_blocks():
    rng = np.random.default_rng(2)
    start = rng.bit_generator.state
    draws = Draws(rng)
    assert rng.bit_generator.state == start  # a Draws that serves nothing takes no word
    draws.unit()
    ahead = np.random.default_rng(2)
    ahead.bit_generator.advance(BLOCK_WORDS)
    assert rng.bit_generator.state == ahead.bit_generator.state
    assert BLOCK_WORDS <= 512


def test_rejects_other_generators_and_out_of_range_arguments():
    with pytest.raises(ConfigurationError, match="PCG64"):
        Draws(np.random.Generator(np.random.Philox(1)))
    draws = Draws(np.random.default_rng(1))
    for hi in (-1, 2**32):
        with pytest.raises(ConfigurationError):
            draws.bounded(hi)
    for k in (4, -1):
        with pytest.raises(ConfigurationError):
            draws.sample(population(3), k)


# -- the request stream --------------------------------------------------------

def scalar_requests(config, n_periphery, unit, entry):
    """The request stream drawn one scalar at a time: `unit()` is a double
    on (0, 1), `entry()` an entry periphery."""

    def draw(dist):
        u = unit()
        if dist.kind == "exponential":
            return float(-dist.param1 * np.log(u))
        if dist.kind == "pareto":
            return dist.param2 * u ** (-1.0 / dist.param1)
        return dist.param1 + u * (dist.param2 - dist.param1)

    p1, p2, _ = config.mode_probabilities
    workload = DistributionSpec("uniform", *config.workload_range)
    t = 0.0
    for i in range(config.n_requests):
        t += draw(config.interarrival)
        u = unit()
        mode = REQUEST_MODES[0 if u < p1 else 1 if u < p1 + p2 else 2]
        size = draw(workload)
        duration = draw(config.service)
        yield ServiceRequest(i, t, mode, size, duration, entry())


def reference_requests(config, n_periphery, seed):
    """The request stream drawn with numpy's scalar calls, one per draw."""
    rng = np.random.default_rng(seed)

    def unit():
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return u

    return scalar_requests(config, n_periphery, unit, lambda: int(rng.integers(n_periphery)))


def draws_requests(config, n_periphery, rng):
    """The request stream drawn scalar by scalar from a Draws over `rng`,
    which reads the words numpy's scalar calls would."""
    draws = Draws(rng)
    return scalar_requests(config, n_periphery, draws.unit, partial(draws.bounded, n_periphery - 1))


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
    assert got == list(reference_requests(config, n_periphery, seed))


# -- blocks that meet a rare draw ----------------------------------------------

LOW_HALF, HIGH_HALF = 0xFFFFFFFF, 0xFFFFFFFF << 32


class MaskedWords(np.random.PCG64):
    """PCG64 whose words at given positions of its `random_raw` output are
    ANDed with a mask, {position: mask}, however the words are fetched."""

    masks = {}
    fetched = 0

    def random_raw(self, size=None):
        words = super().random_raw(size)
        for at, mask in self.masks.items():
            if self.fetched <= at < self.fetched + size:
                words[at - self.fetched] &= mask
        self.fetched += size
        return words


def masked(seed, masks):
    bit_generator = MaskedWords(seed)
    bit_generator.masks = masks
    return np.random.Generator(bit_generator)


def word_of(request, slot, n_periphery):
    """The word a request's draw reads while no rare draw came before it:
    slots 0-3 are its doubles, slot 4 its 32-bit periphery draw, the low
    half of that word for an even request and the high half for an odd one."""
    if n_periphery == 1:
        return 4 * request + slot
    pair, odd = divmod(request, 2)
    return 9 * pair + (4 if slot == 4 else 5 * odd + slot)


def counting_draws(monkeypatch):
    """Patch the stream's Draws to count the requests it draws."""
    drawn = []

    class CountingDraws(Draws):
        @classmethod
        def resume(cls, rng, kept, words):
            drawn.append(1)
            return super().resume(rng, kept, words)

    monkeypatch.setattr(workload, "Draws", CountingDraws)
    return drawn


HANDOFF_WORKLOAD = replace(preset("exp4-desk").workload, n_requests=600)


def handoff_cases():
    """(request, slot, mask, n_periphery, n_requests, requests Draws draws)."""
    # a zero double in each slot and a redrawn periphery draw, for an even
    # and an odd request; M = 50 redraws a low word below 2**32 % 50 = 46
    for request in (2, 3):
        for slot in range(4):
            yield request, slot, 0, 50, 600, 1
        yield request, 4, HIGH_HALF if request % 2 == 0 else LOW_HALF, 50, 600, 1
    yield 2, 4, 0, 50, 600, 1  # both halves of the word are redrawn
    # the first and last request of the first block, the second's first
    last = workload.BLOCK_REQUESTS - 1
    for request in (0, last, last + 1):
        yield request, 0, 0, 50, 600, 1
        yield request, 4, HIGH_HALF if request % 2 == 0 else LOW_HALF, 50, 600, 1
    # a stream shorter than one block, and the rare draw as its last request
    yield 50, 1, 0, 50, 100, 1
    yield 99, 4, LOW_HALF, 50, 100, 1
    # M = 1 takes no periphery draw; M = 2 redraws no low word
    for request in (2, 3, last):
        yield request, 2, 0, 1, 600, 1
        yield request, 3, 0, 2, 600, 1
    yield 3, 4, LOW_HALF, 2, 600, 0


@pytest.mark.parametrize("request_at,slot,mask,n_periphery,n_requests,drawn",
                         list(handoff_cases()))
def test_a_rare_draw_hands_the_block_over_to_draws_and_back(
        monkeypatch, request_at, slot, mask, n_periphery, n_requests, drawn):
    config = replace(HANDOFF_WORKLOAD, n_requests=n_requests)
    masks = {word_of(request_at, slot, n_periphery): mask}
    count = counting_draws(monkeypatch)
    got = list(workload._requests(config, n_periphery, masked(5, masks)))
    assert got == list(draws_requests(config, n_periphery, masked(5, masks)))
    assert len(count) == drawn


@pytest.mark.parametrize("n_periphery", [1, 50])
def test_rare_draws_in_a_row_and_after_a_shifted_half(monkeypatch, n_periphery):
    # requests 0 and 1 are rare in a row, each redrawing a zero double, which
    # moves the words after it on by one; at M = 50 request 3's redraw then
    # moves every later periphery draw to the other half of a word (at M = 1
    # request 4 redraws a double). The zero words after that land wherever
    # the shifts put them, each on the draws of one request
    masks = {word_of(0, 0, n_periphery): 0, word_of(1, 0, n_periphery) + 1: 0,
             word_of(3, 4, n_periphery) + 2: LOW_HALF if n_periphery > 1 else 0}
    masks.update({word: 0 for word in (700, 1_400, 2_000, 2_600)})
    config = replace(HANDOFF_WORKLOAD, n_requests=700)
    count = counting_draws(monkeypatch)
    got = list(workload._requests(config, n_periphery, masked(9, masks)))
    assert got == list(draws_requests(config, n_periphery, masked(9, masks)))
    assert len(count) == len(masks)


@pytest.mark.parametrize("name", ["exp1-desk", "exp4-desk"])
def test_a_preset_stream_draws_no_request_through_draws(monkeypatch, name):
    p = preset(name)
    count = counting_draws(monkeypatch)
    config = replace(p.workload, n_requests=STREAM_REQUESTS)
    assert len(list(generate_stream(config, p.topology.n_periphery, 1))) == STREAM_REQUESTS
    assert count == []


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
@given(config=workloads(), n_periphery=st.integers(1, 2**16), seed=st.integers(0, 2**64))
def test_stream_matches_the_scalar_reference_on_any_workload(config, n_periphery, seed):
    got = list(generate_stream(config, n_periphery, seed))
    assert got == list(reference_requests(config, n_periphery, seed))


# -- invitations decoded in blocks ---------------------------------------------

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


def in_blocks(items, lengths):
    """`items` cut into consecutive blocks of the given lengths, in turn."""
    at, turn = 0, 0
    while at < len(items):
        length = lengths[turn % len(lengths)]
        yield items[at:at + length]
        at, turn = at + length, turn + 1


@st.composite
def invitation_runs(draw):
    """(list sizes, fraction, entry peripheries, block lengths) of a run
    whose invitations are decoded in blocks."""
    fraction = draw(st.one_of(st.sampled_from([1.0, 0.5, 0.03, 0.001]), st.floats(0.001, 1.0)))
    cap = min(3000, int(12 / fraction) + 1)
    while not _replays(cap, math.ceil(fraction * cap)):
        cap -= 1
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
    sizes, fraction, entries, lengths = run
    topo = flat_topology(sizes)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if held:  # the generator holds a half, which is served first
        for g in (rng, twin):
            g.integers(2**32, dtype=np.uint32)
    invitations = Invitations(topo, fraction, twin)
    assert invitations.replayed
    for block in in_blocks(entries, lengths):
        want = [rng.choice(topo.periphery_known_cores[p], size=math.ceil(fraction * sizes[p]),
                           replace=False).tolist() for p in block]
        assert invitations.draw(block) == want
    for _ in range(3):
        got = invitations._floyd.positions([WIDE], [3])[0].tolist()
        assert got == rng.choice(WIDE, size=3, replace=False).tolist()


def draw_bounds(pop, k):
    """The bounds of a Floyd sample's 32-bit draws, in the order numpy
    reads them: j + 1 per slot j in range(max(pop - k, 1), pop), then i + 1
    per shuffle position i = k - 1 ... 1."""
    return [j + 1 for j in range(max(pop - k, 1), pop)] + list(range(k, 1, -1))


def counting_fallback(monkeypatch):
    """Patch the Draws that FloydSamples hands a redraw to, to count the
    samples it draws."""
    drawn = []

    class CountingDraws(Draws):
        @classmethod
        def resume(cls, rng, kept, words):
            drawn.append(1)
            return super().resume(rng, kept, words)

    monkeypatch.setattr(draws_module, "Draws", CountingDraws)
    return drawn


# (pop, k) of the samples in turn: draws in Floyd slots and in the shuffle,
# samples that draw nothing, and one of 24 draws
SPOT_SAMPLES = [(100, 4), (37, 3), (60, 5), (2, 2), (0, 0), (13, 13), (1, 1)]
SPOT_BLOCKS = [16, 16, 8]


def planted_zeros(spots):
    """Masks that zero the 32-bit draw at each (sample, draw) of `spots`.
    A zero draw is redrawn (its bound is no power of two), which moves the
    draws after it on by one half."""
    n = [len(draw_bounds(*SPOT_SAMPLES[r % len(SPOT_SAMPLES)])) for r in range(40)]
    masks = {}
    for shift, (r, d) in enumerate(sorted(spots)):
        bound = draw_bounds(*SPOT_SAMPLES[r % len(SPOT_SAMPLES)])[d]
        assert 2**32 % bound, "a power-of-two bound takes no redraw"
        half = sum(n[:r]) + d + shift
        masks[half // 2] = masks.get(half // 2, ~0) & (HIGH_HALF if half % 2 == 0 else LOW_HALF)
    return masks


SPOTS = {
    "floyd slot": [(0, 1)],
    "swap slot": [(0, 5)],
    "last of a block": [(15, 2)],
    "first of a block": [(16, 0)],
    "on a kept high half": [(1, 0)],  # sample 0 draws 7 halves
    # the third block's first draw is a kept high half (211 halves before
    # it); its first sample draws nothing
    "a block's first draw, on a kept half": [(33, 1)],
    "two in a row": [(7, 0), (8, 0)],
    "both halves of a word": [(2, 1), (2, 2)],
}


@pytest.mark.parametrize("spot", list(SPOTS))
def test_a_redraw_sends_exactly_its_sample_through_draws(monkeypatch, spot):
    samples = [SPOT_SAMPLES[r % len(SPOT_SAMPLES)] for r in range(40)]
    masks = planted_zeros(SPOTS[spot])
    oracle = Draws(masked(31, masks))
    want = [oracle.sample(np.arange(pop), k) for pop, k in samples]
    drawn = counting_fallback(monkeypatch)
    floyd = FloydSamples(masked(31, masks))
    got = []
    for block in in_blocks(samples, SPOT_BLOCKS):
        pops, ks = zip(*block)
        rows = floyd.positions(pops, ks).tolist()
        got += [row[:k] for row, k in zip(rows, ks)]
    assert got == want
    assert len(drawn) == len({r for r, _ in SPOTS[spot]})
    for _ in range(3):
        assert floyd.positions([WIDE], [3])[0].tolist() == oracle._floyd(WIDE, 3)


def test_a_planted_redraw_sends_exactly_its_invitation_through_draws(monkeypatch):
    # exp4-desk's market, seed 1: a zero half in word 40, the 81st or 82nd
    # 32-bit draw, falls in one invitation's 5-9 draws, at a bound (Floyd's
    # ~100 or the shuffle's 2-5) that the test checks is no power of two
    p = preset("exp4-desk")
    seeds = derive_seeds(1)
    topo = organize(replace(p.topology, primary_contacts_per_core=0), seeds[0])
    config = replace(p.workload, n_requests=600)
    entries = [r.entry_periphery for r in generate_stream(config, p.topology.n_periphery, seeds[2])]
    lists = topo.periphery_known_cores
    ks = [math.ceil(p.market.invited_fraction * len(lists[e])) for e in entries]
    bounds = [b for e, k in zip(entries, ks) for b in draw_bounds(len(lists[e]), k)]
    word = 40
    half = 2 * word if 2**32 % bounds[2 * word] else 2 * word + 1
    assert 2**32 % bounds[half]
    masks = {word: HIGH_HALF if half % 2 == 0 else LOW_HALF}
    oracle = Draws(masked(seeds[3], masks))
    want = [oracle.sample(lists[e], k) for e, k in zip(entries, ks)]
    drawn = counting_fallback(monkeypatch)
    invitations = Invitations(topo, p.market.invited_fraction, masked(seeds[3], masks))
    assert invitations.replayed
    assert invitations.draw(entries) == want
    assert len(drawn) == 1
