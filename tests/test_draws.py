"""Block-served draws against numpy's own scalar calls, which are the oracle:
every value and every consumed word must match, so runs stay byte-identical."""

import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from sococ.draws import BLOCK_WORDS, Draws
from sococ.errors import ConfigurationError
from sococ.harness import PRESET_NAMES, derive_seeds, preset
from sococ.market import _choice, _invitation_sampler
from sococ.workload import (
    REQUEST_MODES,
    DistributionSpec,
    ServiceRequest,
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


# The samplers a run's invitations can be served by: `python` replays them
# with Draws.sample, `numpy` leaves them to rng.choice, and `default` is the
# one the market picks for a run whose largest invitation draws k of pop.
SIDES = ("default", "python", "numpy")


def sampler(side, rng, pop, k):
    if side == "python":
        return Draws(rng).sample
    if side == "numpy":
        return partial(_choice, rng)
    return _invitation_sampler(rng, pop, k)


def assert_same_stream(rng, twin, sample):
    """`sample`, over `twin`, consumed the words rng's own calls did."""
    draws = getattr(sample, "__self__", None)
    if isinstance(draws, Draws):
        assert_in_step(rng, draws)
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

def reference_requests(config, n_periphery, seed):
    """The request stream drawn with numpy's scalar calls, one per draw."""
    rng = np.random.default_rng(seed)

    def unit():
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return u

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
        entry = int(rng.integers(n_periphery))
        yield ServiceRequest(i, t, mode, size, duration, entry)


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


@pytest.mark.parametrize("name,config,n_periphery", list(stream_cases()),
                         ids=[c[0] for c in stream_cases()])
def test_stream_matches_the_scalar_reference(name, config, n_periphery):
    config = replace(config, n_requests=STREAM_REQUESTS)
    seed = derive_seeds(len(name))[2]
    got = list(generate_stream(config, n_periphery, seed))
    assert got == list(reference_requests(config, n_periphery, seed))
