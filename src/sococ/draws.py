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
  shuffle.

A 32-bit draw takes the low half of a fresh word and keeps the high half for
the next 32-bit draw; a double takes a whole word and leaves a kept half
where it is. This is PCG64's own buffering, so a half the generator holds
(`bit_generator.state["has_uint32"]`) is served first. `resume` and `unread`
hand fetched words and a kept half to and from code that decodes words
itself, as the request stream does.

`FloydSamples` is such code: it decodes the Floyd samples of a whole block
of invitations in one numpy pass. A sample there that meets a Lemire redraw
(p < bound / 2**32 per draw, ~3e-8 at exp4-desk's bounds of ~100) is drawn
by `Draws.sample`'s Floyd loop, which is that decoder's fallback and its
test oracle. Whether a run's invitations are decoded at all, rather than
left to `rng.choice`, is the market's choice, made once per run.
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


def _take_over(rng: np.random.Generator) -> int | None:
    """The half `rng`'s generator holds (None for none), which a replay of
    its draws serves first; a generator other than PCG64 raises."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ConfigurationError(
            f"Draws replays PCG64 only, not {type(rng.bit_generator).__name__}")
    state = rng.bit_generator.state
    return state["uinteger"] if state["has_uint32"] else None


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
        self._rng = rng
        kept = _take_over(rng)
        self._halves = [0, kept] if kept is not None else []
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


class FloydSamples:
    """numpy's Floyd samples of many populations, a block per numpy pass.

    `positions(pops, ks)` draws what `rng.choice(pop, size=k, replace=False)`
    draws for each (pop, k) in turn, reading the 32-bit halves `Draws._floyd`
    reads: per sample, one per Floyd slot j in range(max(pop - k, 1), pop),
    then one per shuffle position i = k - 1 ... 1. Every half's Lemire
    product is formed at once; then Floyd's "taken -> j" rule and the
    shuffle's swaps run one column at a time across the block's samples. A
    sample whose draws meet a Lemire redraw (a low word below
    2**32 % bound, p < bound / 2**32 per draw) is drawn by `Draws` from the
    same words, and block decoding resumes after it at either half.

    Like `Draws`, it takes the generator over and serves a half the
    generator holds first. Every sample must be one that numpy draws by
    Floyd's algorithm with 32-bit draws, as `Draws.sample` requires.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._hold(_take_over(rng), np.empty(0, np.uint64))

    def _hold(self, kept: int | None, words: np.ndarray) -> None:
        """Hold the fetched draws not yet served, a kept high half (None
        for none) and whole words, as `Draws.unread` gives them. They are
        held as words whose first `_skip` halves count as read: a kept half
        is the high half of a word whose low half is read."""
        if kept is None:
            self._words, self._skip = words, 0
        else:
            self._words = np.concatenate((np.array([kept << 32], np.uint64), words))
            self._skip = 1

    def positions(self, pops: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """A (len(pops), max(ks)) int64 matrix whose row r begins with
        `rng.choice(pops[r], size=ks[r], replace=False)`, the samples drawn
        in row order; entries past ks[r] are unspecified."""
        pops = np.asarray(pops, np.int64)
        ks = np.asarray(ks, np.int64)
        # sample r is column r: a column of the matrix is one row in memory
        out = np.zeros((int(ks.max(initial=0)), len(ks)), np.int64)
        done = 0
        while done < len(ks):
            done += self._decode(pops[done:], ks[done:], out[:, done:])
        return out.T

    def _decode(self, pops: np.ndarray, ks: np.ndarray, out: np.ndarray) -> int:
        """Fill the samples (columns) of `out` up to and including the first
        that meets a redraw, or all of them; returns how many were filled."""
        first = np.maximum(pops - ks, 1)  # the first Floyd slot
        n_floyd = np.maximum(pops - first, 0)
        n = n_floyd + np.maximum(ks - 1, 0)
        ends = np.cumsum(n)
        total = int(ends[-1])
        words, skip = self._words, self._skip
        need = (skip + total + 1) // 2
        if len(words) < need:
            words = np.concatenate((words, self._rng.bit_generator.random_raw(need - len(words))))
        halves = words.astype("<u8", copy=False).view("<u4")[skip:skip + total]
        # per half: its sample, its place in the sample's draws and the
        # draw's bound, j + 1 in slot j and i + 1 at position i
        row = np.repeat(np.arange(len(n)), n)
        at = np.arange(total) - (ends - n)[row]
        floyd = at < n_floyd[row]
        bound = np.where(floyd, first[row] + at + 1, ks[row] + n_floyd[row] - at)
        wide = bound.astype(np.uint64)
        m = halves * wide
        rare = (m & _LOW32) < (_LOW32 + 1) % wide
        ready = int(row[rare.argmax()]) if rare.any() else len(n)
        read = total if ready == len(n) else int(ends[ready] - n[ready])
        if ready:
            out[:, :ready] = self._resolve(
                pops[:ready], ks[:ready], len(out), row[:read],
                (m[:read] >> 32).astype(np.int64), bound[:read] - 1, floyd[:read])
        if ready == len(n):
            self._words, self._skip = words[(skip + total) // 2:], (skip + total) & 1
            return ready
        # sample `ready` meets a redraw: Draws draws it from the same words
        start = skip + read
        kept = int(words[start // 2] >> 32) if start & 1 else None
        draws = Draws.resume(self._rng, kept, words[(start + 1) // 2:])
        k = int(ks[ready])
        out[:k, ready] = draws._floyd(int(pops[ready]), k)
        self._hold(*draws.unread())
        return ready + 1

    @staticmethod
    def _resolve(pops, ks, width, row, values, slot, floyd) -> np.ndarray:
        """The (width, samples) positions of whole samples from their draws'
        values, by Floyd's rule then the shuffle, one column at a time. Slot
        j of Floyd's loop fills column j - (pop - k); a value already taken
        in the columns before it gives j instead. When pop == k, column 0
        holds 0, which Floyd's slot 0 takes without a draw."""
        n = len(ks)
        drawn = np.zeros((2, width, n), np.int64)
        offset = pops - ks
        column = np.where(floyd, slot - offset[row], slot)
        drawn[(~floyd).astype(np.intp), column, row] = values
        out, swaps = drawn
        for c in range(1, width):
            v = out[c]
            np.copyto(v, offset + c, where=(out[:c] == v).any(axis=0))
        # swap each position i with the drawn j, through flat indices
        flat = out.reshape(-1)
        samples = np.arange(n)
        for i in range(width - 1, 0, -1):
            live = samples[ks > i]
            at, to = i * n + live, swaps[i, live] * n + live
            held = flat[at]
            flat[at] = flat[to]
            flat[to] = held
        return out
