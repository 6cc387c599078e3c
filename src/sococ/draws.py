"""numpy's draws decoded from bulk blocks of one PCG64 generator.

A simulated request makes a few random draws: doubles and a bounded integer
for the request itself, a small sample without replacement for its
invitation. Each numpy call costs microseconds of overhead, far more than
the draw. So the request stream (`workload`) and small invitations
(`FloydSamples`) decode the values of numpy's calls from
`bit_generator.random_raw` blocks, consuming the 64-bit words in exactly the
order those calls would:

- a double is a whole word, its top 53 bits times 2**-53;
- a bounded integer below `bound` is Lemire's multiply-and-reject draw: the
  high 32 bits of x * bound for a 32-bit draw x (Lemire, "Fast random
  integer generation in an interval", ACM TOMS 2019).

A 32-bit draw takes the low half of a fresh word and keeps the high half for
the next 32-bit draw; a double takes a whole word and leaves a kept half
where it is. This is PCG64's own buffering, so a decoder takes over a half
the generator holds (`bit_generator.state["has_uint32"]`) and serves it
first.

A draw numpy redraws is left to numpy: a zero double (p = 2**-53), or a
product x * bound whose low word is below 2**32 % bound (p < bound / 2**32).
A decoder that meets one hands the generator back at that draw
(`hand_back`), numpy's own calls draw the item, and decoding resumes from
the state they leave. Whether a run's invitations are decoded at all, rather
than left to `rng.choice`, is the market's choice, made once per run.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_LOW32 = 0xFFFFFFFF
# numpy's double: the top 53 bits of a word, scaled to [0, 1)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def _take_over(rng: np.random.Generator) -> int | None:
    """The half `rng`'s generator holds (None for none), which a decoder of
    its draws serves first; a generator other than PCG64 raises."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ConfigurationError(
            f"block draws decode PCG64 only, not {type(rng.bit_generator).__name__}")
    state = rng.bit_generator.state
    return state["uinteger"] if state["has_uint32"] else None


def hand_back(rng: np.random.Generator, kept: int | None, unread: int) -> None:
    """Give `rng`'s generator back to numpy's calls at the first draw a
    decoder has not served: step it back over the `unread` words the decoder
    fetched and did not read, and make `kept`, the high half it kept (None
    for none), the half the generator holds."""
    bit_generator = rng.bit_generator
    bit_generator.advance(-unread)  # which also drops the held half
    if kept is not None:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, kept
        bit_generator.state = state


class FloydSamples:
    """numpy's Floyd samples of many populations, a block per numpy pass.

    `positions(pops, ks)` draws what `rng.choice(pop, size=k, replace=False)`
    draws for each (pop, k) in turn, reading the 32-bit halves numpy's Floyd
    sample reads (Bentley & Floyd, CACM 1987): per sample, one per Floyd slot
    j in range(max(pop - k, 1), pop), then one per shuffle position
    i = k - 1 ... 1. Every half's Lemire product is formed at once; then
    Floyd's "taken -> j" rule and the shuffle's swaps run one column at a
    time across the block's samples. A sample whose draws meet a Lemire
    redraw is handed back to numpy (`hand_back`), which draws it by
    `rng.choice`; block decoding resumes after it at either half.

    It takes the generator over: nothing else may draw from it meanwhile.
    Every sample must be one that numpy draws by Floyd's algorithm with
    32-bit draws: pop <= 2**32, and no k > pop // 50 once pop > 10,000,
    where numpy shuffles the population's tail instead.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._hold(_take_over(rng))

    def _hold(self, kept: int | None) -> None:
        """Hold a kept high half (None for none) as the draws not yet
        served. They are held as words whose first `_skip` halves count as
        read: a kept half is the high half of a word whose low half is
        read."""
        if kept is None:
            self._words, self._skip = np.empty(0, np.uint64), 0
        else:
            self._words, self._skip = np.array([kept << 32], np.uint64), 1

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
        # sample `ready` meets a redraw: numpy draws it
        start = skip + read
        kept = int(words[start // 2] >> 32) if start & 1 else None
        hand_back(self._rng, kept, len(words) - (start + 1) // 2)
        k = int(ks[ready])
        out[:k, ready] = self._rng.choice(int(pops[ready]), size=k, replace=False)
        self._hold(_take_over(self._rng))
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
