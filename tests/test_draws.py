"""Block-decoded draws against numpy's own calls, which are the oracle:
every value and every consumed word must match, so runs stay byte-identical.
A draw numpy would redraw is handed back to numpy (`draws.hand_back`); each
test that reaches one counts the hand-backs, so it fails if the rare path
stops being exercised."""

import math
import random
import types
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sococ import draws as draws_module
from sococ import workload
from sococ.draws import FloydSamples, hand_back
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


def counting(monkeypatch, module):
    """Record the (kept, unread) of each hand-back `module` makes: the
    stream's (`workload`) or FloydSamples' (`draws_module`)."""
    handed = []

    def counted(rng, kept, unread):
        handed.append((kept, unread))
        hand_back(rng, kept, unread)

    monkeypatch.setattr(module, "hand_back", counted)
    return handed


def hold_a_half(*generators):
    """Leave each generator holding the high half of a word."""
    for g in generators:
        g.integers(2**32, dtype=np.uint32)


def replace_held_half(rng, half):
    """Make `half` the half `rng`'s generator holds, in place of its own."""
    state = rng.bit_generator.state
    assert state["has_uint32"]
    state["uinteger"] = half
    rng.bit_generator.state = state


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


# The samplers a sample can be drawn by: `python` decodes it from raw words
# in Python (FloydSamples, whatever its size), `numpy` leaves it to
# rng.choice, and `default` is the way the market picks for a run whose
# largest invitation draws k of pop: FloydSamples or rng.choice.
SIDES = ("default", "python", "numpy")


def sampler(side, rng, pop, k):
    if side == "numpy" or (side == "default" and not _replays(pop, k)):
        return partial(_choice, rng)
    return BlockSampler(rng)


# a Floyd sample of 3 whose draws have bounds near 2**31, so no two
# misaligned draws agree by chance
WIDE = 2**31 + 1


def assert_in_step(rng, floyd):
    """A FloydSamples holds fetched words, so only its next draws can show
    that it consumed the words rng's own calls did."""
    for _ in range(3):
        got = floyd.positions([WIDE], [3])[0].tolist()
        assert got == rng.choice(WIDE, size=3, replace=False).tolist()


def assert_same_stream(rng, twin, sample):
    """`sample`, over `twin`, consumed the words rng's own calls did."""
    if isinstance(sample, BlockSampler):
        assert_in_step(rng, sample.floyd)
    else:
        assert twin.bit_generator.state == rng.bit_generator.state


# FloydSamples decodes Floyd samples only: a tail shuffle draws k > 200
# times, so the market leaves it to rng.choice
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
    # the market never decodes a tail shuffle, which FloydSamples would get
    # wrong: it draws at least 200 times, far past the block decoder's line
    assert not _replays(pop, k)


def test_sample_past_32_bits_is_left_to_numpy():
    # numpy draws 64-bit integers for slots past 2**32 - 1, which
    # FloydSamples does not decode; a zero-stride array stands in for so
    # large a population, and the market's rng.choice sampler serves it
    ids = np.broadcast_to(np.int64(5), (2**32 + 5,))
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
def test_bounded_matches_rng_integers(monkeypatch, hi):
    # a Floyd sample of 1 of hi + 1 is one bounded draw, rng.integers(hi + 1),
    # and one block holds them all; at hi = 2**31 + 1 half of them meet a
    # redraw, at the others none does
    handed = counting(monkeypatch, draws_module)
    rng = np.random.default_rng(hi)
    floyd = FloydSamples(np.random.default_rng(hi))
    got = floyd.positions([hi + 1] * 2000, [1] * 2000)[:, 0].tolist()
    assert got == [int(rng.integers(hi + 1)) for _ in range(2000)]
    assert bool(handed) == (hi == 2**31 + 1)
    assert_in_step(rng, floyd)


def test_bounded_zero_takes_no_draw():
    # samples of nothing and of 1 of 1 draw nothing, and take no word
    rng = np.random.default_rng(3)
    start = rng.bit_generator.state
    floyd = FloydSamples(rng)
    got = floyd.positions([1, 0, 7, 1], [1, 0, 0, 1])
    assert got.tolist() == [[0], [0], [0], [0]]
    assert rng.bit_generator.state == start
    assert_in_step(np.random.default_rng(3), floyd)


@pytest.mark.parametrize("side,first", [
    (side, first) for side in SIDES for first in ("unit", "bounded", "sample", "large sample")])
def test_a_half_held_by_the_generator_is_served_first(side, first):
    # doubles come from the stream alone, at every side: its first request
    # draws four doubles, then its entry from the held half
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    hold_a_half(rng, twin)
    if first == "unit":
        config = replace(HANDOFF_WORKLOAD, n_requests=5)
        assert list(workload._requests(config, 50, twin)) == list(numpy_requests(config, 50, rng))
        return
    pop, k = {"bounded": (1000, 1), "sample": (100, 3), "large sample": (2000, 60)}[first]
    ids = population(pop)
    sample = sampler(side, twin, pop, k)
    assert sample(ids, k) == rng.choice(ids, size=k, replace=False).tolist()
    assert_same_stream(rng, twin, sample)


@pytest.mark.parametrize("side", SIDES)
def test_interleaved_doubles_and_integers_match(monkeypatch, side):
    # as in a run: the stream draws doubles and 32-bit entries from one
    # generator, here at a bound where half the entries meet a redraw, and
    # the side's sampler draws each request's invitation from another, of a
    # size the entry picks
    handed = counting(monkeypatch, workload)
    config = replace(HANDOFF_WORKLOAD, n_requests=300)
    stream = workload._requests(config, WIDE, np.random.default_rng(21))
    want = numpy_requests(config, WIDE, np.random.default_rng(21))
    picks, twin = np.random.default_rng(22), np.random.default_rng(22)
    sample = sampler(side, twin, 1900, 57)
    small, large = population(105), population(1900)
    for got, expected in zip(stream, want, strict=True):
        assert got == expected
        ids, k = (small, 4) if got.entry_periphery % 2 else (large, 57)
        assert sample(ids, k) == picks.choice(ids, size=k, replace=False).tolist()
    assert handed
    assert_same_stream(picks, twin, sample)


def test_unit_redraws_zero():
    # numpy redraws a zero double, which no seed shows: a generator that
    # returns two zeros gets the third double
    doubles = iter([0.0, 0.0, 0.25])
    assert workload._positive_double(types.SimpleNamespace(random=doubles.__next__)) == 0.25


@pytest.mark.parametrize("draw", ["bounded", "sample"])
def test_lemire_redraws_a_biased_low_word(monkeypatch, draw):
    # at bounds near 2**31 a quarter to a half of the 32-bit draws meet a
    # Lemire redraw, which numpy draws: the stream's entries at
    # M = 3 * 2**30 and 2**31 + 1, and samples near 2**31 mixed with small
    # ones, with and without a half held at take-over. Hand-backs come both
    # at a kept half and at a whole word
    if draw == "bounded":
        handed = counting(monkeypatch, workload)
        config = replace(HANDOFF_WORKLOAD, n_requests=1500)
        for n_periphery in (3 * 2**30, WIDE):
            got = list(generate_stream(config, n_periphery, 17))
            assert got == list(reference_requests(config, n_periphery, 17))
    else:
        handed = counting(monkeypatch, draws_module)
        shapes = random.Random(17)
        for held in (False, True):
            rng, twin = np.random.default_rng(17), np.random.default_rng(17)
            if held:
                hold_a_half(rng, twin)
            floyd = FloydSamples(twin)
            for _ in range(40):
                samples = [shapes.choice([(WIDE, 3), (3 * 2**30, 4), (2**31, 2), (100, 4),
                                          (7, 7), (2, 1), (0, 0)])
                           for _ in range(shapes.randint(1, 30))]
                pops, ks = zip(*samples)
                rows = floyd.positions(pops, ks).tolist()
                assert [row[:k] for row, k in zip(rows, ks)] == [
                    rng.choice(pop, size=k, replace=False).tolist() for pop, k in samples]
            assert_in_step(rng, floyd)
    assert {kept is None for kept, _ in handed} == {True, False}


@pytest.mark.parametrize("held", [False, True])
def test_hand_back_restores_the_state_after_random_raw(held):
    rng = np.random.default_rng(12)
    if held:
        hold_a_half(rng)
    state = rng.bit_generator.state
    rng.bit_generator.random_raw(9)
    hand_back(rng, state["uinteger"] if held else None, 9)
    assert rng.bit_generator.state == state


def test_draws_fetch_lazily_in_bounded_blocks():
    # a FloydSamples that serves nothing takes no word, and a block fetches
    # only the words its draws read: 4 of 100 draw 4 + 3 halves
    rng = np.random.default_rng(2)
    start = rng.bit_generator.state
    floyd = FloydSamples(rng)
    assert rng.bit_generator.state == start
    floyd.positions([100], [4])
    ahead = np.random.default_rng(2)
    ahead.bit_generator.advance(4)
    assert rng.bit_generator.state == ahead.bit_generator.state


def test_rejects_other_generators_and_out_of_range_arguments():
    with pytest.raises(ConfigurationError, match="PCG64"):
        FloydSamples(np.random.Generator(np.random.Philox(1)))
    config = replace(HANDOFF_WORKLOAD, n_requests=1)
    for n_periphery in (0, 2**32 + 1):
        with pytest.raises(ConfigurationError):
            generate_stream(config, n_periphery, 1)


# -- the request stream --------------------------------------------------------

def numpy_requests(config, n_periphery, rng, held_at=None):
    """The request stream drawn with numpy's scalar calls on `rng`, one per
    draw. `held_at` maps a request to the half the generator holds as that
    request begins, in place of the half it holds there."""
    held_at = held_at or {}

    def draw(dist):
        u = workload._positive_double(rng)
        if dist.kind == "exponential":
            return float(-dist.param1 * np.log(u))
        if dist.kind == "pareto":
            return dist.param2 * u ** (-1.0 / dist.param1)
        return dist.param1 + u * (dist.param2 - dist.param1)

    p1, p2, _ = config.mode_probabilities
    workload_range = DistributionSpec("uniform", *config.workload_range)
    t = 0.0
    for i in range(config.n_requests):
        if i in held_at:
            replace_held_half(rng, held_at[i])
        t += draw(config.interarrival)
        u = workload._positive_double(rng)
        mode = REQUEST_MODES[0 if u < p1 else 1 if u < p1 + p2 else 2]
        size = draw(workload_range)
        duration = draw(config.service)
        yield ServiceRequest(i, t, mode, size, duration, int(rng.integers(n_periphery)))


def reference_requests(config, n_periphery, seed, held_at=None):
    """The stream of a generator seeded with `seed`, drawn by numpy."""
    return numpy_requests(config, n_periphery, np.random.default_rng(seed), held_at)


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


# -- blocks that meet a planted rare draw -----------------------------------------

LOW_HALF, HIGH_HALF = 0xFFFFFFFF, 0xFFFFFFFF << 32


class MaskedWords(np.random.PCG64):
    """PCG64 whose `random_raw` output has given words ANDed with a mask,
    {word value: mask}. A word is found by its value, so a decoder sees it
    masked however often it fetches it; numpy's own calls read it unmasked,
    but for a kept half a decoder hands them."""

    masks = {}

    def random_raw(self, size=None):
        words = super().random_raw(size)
        for value, mask in self.masks.items():
            words[words == value] &= np.uint64(mask)
        return words


def masked(seed, masks, held=False):
    """A generator whose words at given positions of its `random_raw`
    output are masked, {position: mask}; `held`: it holds a half first, and
    positions count from the word after it."""
    rng = np.random.Generator(MaskedWords(seed))
    twin = np.random.default_rng(seed)
    if held:
        hold_a_half(rng, twin)
    words = twin.bit_generator.random_raw(max(masks, default=-1) + 1)
    rng.bit_generator.masks = {int(words[at]): mask for at, mask in masks.items()}
    return rng


def word_of(request, slot, n_periphery, held=False):
    """The word a request's draw reads: slots 0-3 are its doubles, slot 4
    its 32-bit periphery draw, the low half of that word for an even
    request and the high half for an odd one. A half held at the start is
    the first request's periphery draw: the requests read the words of
    those after them, less the five before it."""
    if n_periphery == 1:
        return 4 * request + slot
    if held:
        return word_of(request + 1, slot, n_periphery) - 5
    pair, odd = divmod(request, 2)
    return 9 * pair + (4 if slot == 4 else 5 * odd + slot)


HANDOFF_WORKLOAD = replace(preset("exp4-desk").workload, n_requests=600)


def handoff_cases():
    """(request, slot, mask, n_periphery, n_requests, hand-backs)."""
    # a zero double in each slot and a redrawn periphery draw, for an even
    # and an odd request; M = 50 redraws a low word below 2**32 % 50 = 46
    for request in (2, 3):
        for slot in range(4):
            yield request, slot, 0, 50, 600, 1
        yield request, 4, HIGH_HALF if request % 2 == 0 else LOW_HALF, 50, 600, 1
    yield 2, 4, 0, 50, 600, 1  # both halves of the word are planted
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


@pytest.mark.parametrize("request_at,slot,mask,n_periphery,n_requests,handbacks",
                         list(handoff_cases()))
def test_a_rare_draw_hands_the_block_over_to_draws_and_back(
        monkeypatch, request_at, slot, mask, n_periphery, n_requests, handbacks):
    # numpy draws the request from the unplanted words, but for a planted
    # kept half: an odd request's periphery draw, held when it begins
    config = replace(HANDOFF_WORKLOAD, n_requests=n_requests)
    held_at = {request_at: 0} if slot == 4 and request_at % 2 else None
    handed = counting(monkeypatch, workload)
    rng = masked(5, {word_of(request_at, slot, n_periphery): mask})
    got = list(workload._requests(config, n_periphery, rng))
    assert got == list(reference_requests(config, n_periphery, 5, held_at))
    assert len(handed) == handbacks


@pytest.mark.parametrize("n_periphery", [1, 50])
def test_rare_draws_in_a_row_and_after_a_shifted_half(monkeypatch, n_periphery):
    # the generator holds a half as the stream begins, which moves every
    # periphery draw to the other half of a word (at M = 1 nothing reads
    # it). Requests 0 and 1 are rare in a row, with a zero double each, and
    # so is request 3, with its periphery draw or a double planted. The
    # zero words after that land on the draws of one request each
    masks = {word_of(0, 0, n_periphery, True): 0, word_of(1, 0, n_periphery, True): 0,
             word_of(3, 4 if n_periphery > 1 else 2, n_periphery, True):
             HIGH_HALF if n_periphery > 1 else 0}
    masks.update({word: 0 for word in (700, 1_400, 2_000, 2_600)})
    config = replace(HANDOFF_WORKLOAD, n_requests=700)
    handed = counting(monkeypatch, workload)
    got = list(workload._requests(config, n_periphery, masked(9, masks, held=True)))
    rng = np.random.default_rng(9)
    hold_a_half(rng)
    assert got == list(numpy_requests(config, n_periphery, rng))
    assert len(handed) == len(masks)


@pytest.mark.parametrize("name", ["exp1-desk", "exp4-desk"])
def test_a_preset_stream_draws_no_request_through_draws(monkeypatch, name):
    p = preset(name)
    handed = counting(monkeypatch, workload)
    config = replace(p.workload, n_requests=STREAM_REQUESTS)
    assert len(list(generate_stream(config, p.topology.n_periphery, 1))) == STREAM_REQUESTS
    assert handed == []


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
        hold_a_half(rng, twin)
    invitations = Invitations(topo, fraction, twin)
    assert invitations.replayed
    for block in in_blocks(entries, lengths):
        want = [rng.choice(topo.periphery_known_cores[p], size=math.ceil(fraction * sizes[p]),
                           replace=False).tolist() for p in block]
        assert invitations.draw(block) == want
    assert_in_step(rng, invitations._floyd)


def draw_bounds(pop, k):
    """The bounds of a Floyd sample's 32-bit draws, in the order numpy
    reads them: j + 1 per slot j in range(max(pop - k, 1), pop), then i + 1
    per shuffle position i = k - 1 ... 1."""
    return [j + 1 for j in range(max(pop - k, 1), pop)] + list(range(k, 1, -1))


def numpy_samples(rng, samples, held_at=None):
    """`rng.choice(pop, size=k, replace=False)` for each (pop, k) of
    `samples` in turn. `held_at` maps a sample to the half the generator
    holds as that sample begins, in place of the half it holds there."""
    held_at = held_at or {}
    out = []
    for r, (pop, k) in enumerate(samples):
        if r in held_at:
            replace_held_half(rng, held_at[r])
        out.append(rng.choice(pop, size=k, replace=False).tolist())
    return out


# (pop, k) of the samples in turn: draws in Floyd slots and in the shuffle,
# samples that draw nothing, and one of 24 draws
SPOT_SAMPLES = [(100, 4), (37, 3), (60, 5), (2, 2), (0, 0), (13, 13), (1, 1)]
SPOT_BLOCKS = [16, 16, 8]


def planted_zeros(samples, spots):
    """Masks that zero the 32-bit draw at each (sample, draw) of `spots`,
    {word: mask}, and `held_at` for `numpy_samples`. The decoder hands a
    sample whose draw is zero back to numpy (its bound is no power of two).
    numpy reads the unplanted words, but for a planted first draw on a high
    half, which the decoder hands it as the half the generator holds. That
    takes a decoded sample before it: after a hand-back the decoder takes
    the half numpy holds, which numpy read unplanted."""
    n = [len(draw_bounds(pop, k)) for pop, k in samples]
    masks, held_at = {}, {}
    for r, d in spots:
        assert 2**32 % draw_bounds(*samples[r])[d], "a power-of-two bound takes no redraw"
        half = sum(n[:r]) + d
        masks[half // 2] = masks.get(half // 2, ~0) & (HIGH_HALF if half % 2 == 0 else LOW_HALF)
        if d == 0 and half % 2:
            held_at[r] = 0
    return masks, held_at


SPOTS = {
    "floyd slot": [(0, 1)],
    "swap slot": [(0, 5)],
    "last of a block": [(15, 2)],
    "first of a block": [(16, 0)],
    "on a kept high half": [(1, 0)],  # sample 0 draws 7 halves
    # the third block's first draw is a kept high half (211 halves before
    # it); its first sample draws nothing
    "a block's first draw, on a kept half": [(33, 1)],
    "two in a row": [(7, 1), (8, 0)],
    "both halves of a word": [(2, 2), (2, 3)],
}


@pytest.mark.parametrize("spot", list(SPOTS))
def test_a_redraw_sends_exactly_its_sample_through_draws(monkeypatch, spot):
    samples = [SPOT_SAMPLES[r % len(SPOT_SAMPLES)] for r in range(40)]
    masks, held_at = planted_zeros(samples, SPOTS[spot])
    rng = np.random.default_rng(31)
    want = numpy_samples(rng, samples, held_at)
    handed = counting(monkeypatch, draws_module)
    floyd = FloydSamples(masked(31, masks))
    got = []
    for block in in_blocks(samples, SPOT_BLOCKS):
        pops, ks = zip(*block)
        rows = floyd.positions(pops, ks).tolist()
        got += [row[:k] for row, k in zip(rows, ks)]
    assert got == want
    assert len(handed) == len({r for r, _ in SPOTS[spot]})
    assert_in_step(rng, floyd)


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
    samples = [(len(lists[e]), math.ceil(p.market.invited_fraction * len(lists[e])))
               for e in entries]
    bounds = [b for sample in samples for b in draw_bounds(*sample)]
    spots = [(r, d) for r, sample in enumerate(samples) for d in range(len(draw_bounds(*sample)))]
    word = 40
    half = 2 * word if 2**32 % bounds[2 * word] else 2 * word + 1
    masks, held_at = planted_zeros(samples, [spots[half]])
    assert list(masks) == [word]
    want = [lists[e][sample].tolist() for e, sample in
            zip(entries, numpy_samples(np.random.default_rng(seeds[3]), samples, held_at))]
    handed = counting(monkeypatch, draws_module)
    invitations = Invitations(topo, p.market.invited_fraction, masked(seeds[3], masks))
    assert invitations.replayed
    assert invitations.draw(entries) == want
    assert len(handed) == 1
