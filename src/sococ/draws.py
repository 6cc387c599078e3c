"""numpy's scalar draws, served from bulk blocks of one PCG64 generator.

A simulated request makes a few random draws: doubles and a bounded integer
for the request itself, a small sample without replacement for its
invitation. Each numpy call costs microseconds of overhead, far more than
the draw. `Draws` takes over a generator and serves the same values from
`bit_generator.random_raw` blocks, consuming the 64-bit words in exactly the
order numpy's calls would:

- `unit()` is `rng.random()`, redrawn while it is 0.0;
- `bounded(hi)` is `rng.integers(hi + 1)`: Lemire's multiply-and-reject
  method on 32-bit draws (Lemire, "Fast random integer generation in an
  interval", ACM TOMS 2019);
- `sample(population, k)` is
  `rng.choice(population, size=k, replace=False).tolist()` wherever numpy
  runs Floyd's algorithm (Bentley & Floyd, CACM 1987) then a Fisher-Yates
  shuffle. Whether a run's invitations are worth replaying in Python at all
  is the market's choice, made once per run.

A 32-bit draw takes the low half of a fresh word and keeps the high half for
the next 32-bit draw; a double takes a whole word and leaves a kept half
where it is. This is PCG64's own buffering, so a half the generator holds
(`bit_generator.state["has_uint32"]`) is served first. `resume` and `unread`
hand fetched words and a kept half to and from code that decodes words
itself, as the request stream does.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# Words fetched per refill. A refill costs ~25 ns per 32-bit draw, almost
# all of it the conversion to Python ints, so larger blocks save little;
# each Draws holds a block as 2 * BLOCK_WORDS such ints, and 512 words
# raised c1-pool's peak RSS by ~0.3 MB where 256 raise it ~0.15 MB.
BLOCK_WORDS = 256

_LOW32 = 0xFFFFFFFF
# numpy's double: the top 53 bits of a word, scaled to [0, 1)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


class Draws:
    """The draws of a PCG64 `Generator`, served from blocks.

    The generator is taken over: nothing else may draw from it once the
    `Draws` exists. A `Draws` that serves nothing takes no word.

    The fetched words are held in `_halves` as 32-bit Python ints, low half
    first, and `_at` indexes the next unread half. An odd `_at` points at a
    kept high half: a double drawn meanwhile reads the word after it and
    then moves the kept half into that word's high slot, so the two always
    hold the whole state.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise ConfigurationError(
                f"Draws replays PCG64 only, not {type(rng.bit_generator).__name__}")
        self._rng = rng
        # take over the half the generator holds, as a kept half
        state = rng.bit_generator.state
        self._halves = [0, state["uinteger"]] if state["has_uint32"] else []
        self._at = len(self._halves) // 2

    @classmethod
    def resume(cls, rng: np.random.Generator, kept: int | None, words: np.ndarray) -> "Draws":
        """A `Draws` whose first draws are ones already fetched from `rng`'s
        generator: a kept high half (None for none), then `words`. The
        generator must hold no half of its own: one that only ever served
        `random_raw` holds none."""
        draws = cls(rng)
        draws._halves = [0, kept] if kept is not None else []
        draws._at = len(draws._halves) // 2
        draws._halves += words.astype("<u8", copy=False).view("<u4").tolist()
        return draws

    def unread(self) -> tuple[int | None, np.ndarray]:
        """The fetched draws not yet served, as `resume` takes them: a kept
        high half (None for none) and whole words."""
        halves = self._halves[self._at:]
        kept = halves.pop(0) if self._at & 1 else None
        return kept, np.array(halves, dtype="<u4").view("<u8")

    def _refill(self, need: int) -> int:
        """Drop the read words and fetch blocks until `need` halves are
        unread; returns the new `_at`, of the same parity."""
        keep = self._at & ~1
        halves = self._halves[keep:]
        while len(halves) < need + self._at - keep:
            words = self._rng.bit_generator.random_raw(BLOCK_WORDS)
            halves += words.astype("<u8", copy=False).view("<u4").tolist()
        self._halves = halves
        self._at -= keep
        return self._at

    def _half(self) -> int:
        """One 32-bit draw."""
        at = self._at
        if at == len(self._halves):
            at = self._refill(1)
        self._at = at + 1
        return self._halves[at]

    def _reject(self, m: int, hi: int, need: int = 0) -> int:
        """Finish Lemire's method for a product `m` whose low word is below
        hi + 1: redraw while the low word is below 2**32 % (hi + 1). Then
        leave `need` halves unread, for a caller that reads them unchecked."""
        excl = hi + 1
        threshold = (_LOW32 - hi) % excl
        while m & _LOW32 < threshold:
            m = self._half() * excl
        if len(self._halves) - self._at < need:
            self._refill(need)
        return m

    def unit(self) -> float:
        """`rng.random()` redrawn while it is 0.0: uniform on (0, 1)."""
        at = self._at
        halves = self._halves
        if len(halves) - at < 3:
            at = self._refill(3)
            halves = self._halves
        odd = at & 1
        u = (halves[at + odd + 1] << 21 | halves[at + odd] >> 11) * _DOUBLE_SCALE
        if odd:
            halves[at + 2] = halves[at]
        self._at = at + 2
        return u if u != 0.0 else self.unit()

    def bounded(self, hi: int) -> int:
        """`rng.integers(hi + 1)`: uniform on [0, hi], for 0 <= hi < 2**32,
        by Lemire's method: the high word of x * (hi + 1) for a 32-bit draw
        x, redrawn while the low word is below 2**32 % (hi + 1). Since that
        bound is below hi + 1, a low word above hi needs no check.
        `bounded(0)` takes no draw."""
        if not 0 <= hi <= _LOW32:
            raise ConfigurationError(f"bounded(hi) needs 0 <= hi < 2**32, got {hi}")
        if hi == 0:
            return 0
        m = self._half() * (hi + 1)
        if m & _LOW32 <= hi:
            m = self._reject(m, hi)
        return m >> 32

    def sample(self, population: np.ndarray, k: int) -> list[int]:
        """`rng.choice(population, size=k, replace=False).tolist()`: k
        distinct elements of a 1-d array, in random order.

        Only numpy's Floyd samples are replayed. numpy draws 64-bit integers
        for slots past 2**32 - 1, and takes every sample with k > 200 from a
        shuffle of the population's tail when pop > 10,000 and
        k > pop // 50: such a sample raises ConfigurationError."""
        pop = len(population)
        if not 0 <= k <= pop:
            raise ConfigurationError(f"cannot sample {k} of {pop} without replacement")
        if pop > _LOW32 or (pop > 10_000 and k > pop // 50):
            raise ConfigurationError(
                f"Draws replays numpy's 32-bit Floyd samples only, not {k} of {pop}")
        at = memoryview(population)
        return [at[i] for i in self._floyd(pop, k)]

    def _floyd(self, pop: int, k: int) -> list[int]:
        """`rng.choice(pop, size=k, replace=False).tolist()` as numpy's
        Floyd sample draws it. Floyd: slot j draws bounded(j) and takes j
        itself when that is taken already; bounded(0) takes no draw. The
        shuffle then swaps each position i > 0 with bounded(i)."""
        floyd, swaps = range(max(pop - k, 1), pop), range(k - 1, 0, -1)
        n = len(floyd) + len(swaps)
        out = [0] if pop == k > 0 else []
        if n == 0:
            return out
        at = self._at
        if len(self._halves) - at < n:
            at = self._refill(n)
        halves = self._halves
        taken = set(out)
        # Lemire's method inlined, as in bounded(); a redraw leaves the
        # draws still to come unread, so the loops index `halves` unchecked
        for j in floyd:
            m = halves[at] * (j + 1)
            at += 1
            if m & _LOW32 <= j:
                self._at = at
                m = self._reject(m, j, pop - 1 - j + len(swaps))
                halves, at = self._halves, self._at
            v = m >> 32
            if v in taken:
                v = j
            taken.add(v)
            out.append(v)
        for i in swaps:
            m = halves[at] * (i + 1)
            at += 1
            if m & _LOW32 <= i:
                self._at = at
                m = self._reject(m, i, i - 1)
                halves, at = self._halves, self._at
            j = m >> 32
            out[i], out[j] = out[j], out[i]
        self._at = at
        return out
