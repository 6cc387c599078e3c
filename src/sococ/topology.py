"""Contact-topology bootstrap for the self-organizing cloud.

The fleet organizes itself in one round: every core server picks m of the M
periphery servers (its known-periphery list) plus n other core servers as
primary contacts, and each periphery server ends up knowing exactly the cores
that picked it.  Secondary contacts of a core are all other cores reachable
through a shared periphery server (`secondary_mask`).

Set-up works over N-row matrices one chunk of rows at a time
(`row_chunks`). The chunked loops (the block sampler's row blocks, which
draw the known-periphery lists and the primary contacts, and
`market.ContactOrder`'s row pass, which checks each row and re-sorts only
the rows out of cost order) run their chunks on the process's CPUs
(`for_row_chunks`). Their outputs cannot depend on that: each chunk writes
only its own rows, and draws, if at all, only from generators of its own.
The periphery lists are inverted on the calling thread, by one in-place
sort of packed words (`_invert_selection`).

The contact draw keeps only the first _KEPT_CONTACTS columns of each row,
the cheapest contacts of a fleet numbered cheapest first, and draws little
more: a row of n > _PREFIX_CONTACTS is drawn in two strata (`_draw_block`),
the upper one only by `contact_tail`, or at set-up for a block with a row
of fewer than _KEPT_CONTACTS values in the lower. Assembly scans a leader's
row in that order and stops at cover: at `scale` (N=200,000, n=500, 2x10^4
requests) 1 to 4 of ~11,500 scans read past 64 contacts at seeds 3, 71
and 83, the deepest 65 to 76, and such a scan reads the rest of the row
from `contact_tail` (~3 ms at n=500 on a 2-CPU host). So set-up holds an
N x 64 matrix, not N x n: 49 MiB, not 381 MiB, at `scale`; 2 GiB, not
15.6 GiB, at the published N. At `scale` set-up takes 0.29-0.30 s
(perfbench `setup_s` medians of 8 alternated runs each at seeds 3 and 47).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# The block sampler (`_sample_rows`) draws each row block of this many cells
# from its own child generator. The block size fixes the draws, so changing
# it changes every topology.
_BLOCK_CELLS = 1 << 18
# Columns of each primary-contact row the topology keeps: the first, so the
# lowest ids. Memory only: the rest of a row is drawn again when read
# (`ContactTopology.contact_tail`), so no output depends on it.
_KEPT_CONTACTS = 64
# A primary-contact row of more values than this is drawn in two strata
# (`_draw_block`), so that set-up draws about this many values a row, not
# all of them. It fixes the draws of such rows, so changing it changes
# their topologies; it must stay above _KEPT_CONTACTS by enough margin
# that a row rarely holds fewer than _KEPT_CONTACTS values in the first
# stratum, or set-up draws that row's block whole.
_PREFIX_CONTACTS = 112
# Bound on the cells of any per-chunk temporary built over N-row matrices.
# It has no effect on any output, nor has the number of threads that work
# through the chunks of one loop (`for_row_chunks`): each holds one chunk's
# temporaries at a time.
CHUNK_CELLS = 1 << 18


def _chunk_rows(row_cells: int, cells: int) -> int:
    """Rows of a chunk of at most `cells` cells of rows `row_cells` wide
    (at least one)."""
    return max(1, cells // max(row_cells, 1))


def row_chunks(n_rows: int, row_cells: int, cells: int | None = None):
    """Consecutive slices of range(n_rows), each covering at most `cells`
    (default CHUNK_CELLS) cells of rows `row_cells` wide (at least one row)."""
    step = _chunk_rows(row_cells, CHUNK_CELLS if cells is None else cells)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def for_row_chunks(fn, n_rows: int, row_cells: int) -> None:
    """Call fn(rows) for every row_chunks(n_rows, row_cells) slice, on as
    many threads as the process has CPUs.

    `fn` must write only its own rows and draw only from generators no
    other chunk reads; then the order in which chunks run cannot show in
    any output. numpy releases the interpreter lock in the bounded integer
    draws, sorts, takes and compares the callers make, so the chunks run in
    parallel. The calling thread takes chunks too: each
    helper thread's glibc malloc arena keeps the chunk temporaries it
    freed, and with two helpers and an idle caller that raised peak RSS at
    N=200,000, n=500 by ~8 MB on a 2-CPU host, against ~2.4 MB with one
    helper. With one chunk or one CPU, no thread starts. Every helper
    thread is joined before this returns, and an exception raised by a
    chunk is raised here.
    """
    chunks = list(row_chunks(n_rows, row_cells))
    helpers = min(_cpus(), len(chunks)) - 1
    if helpers <= 0:
        for rows in chunks:
            fn(rows)
        return
    # imported here, not at the top: the import alone costs ~0.6 MB of RSS,
    # and a run whose loops each fit one chunk (a C1 run) never gets here
    from concurrent.futures import ThreadPoolExecutor

    todo = iter(chunks)  # shared: next() on a list iterator is one atomic step

    def work() -> None:
        for rows in todo:
            fn(rows)

    with ThreadPoolExecutor(helpers) as pool:
        running = [pool.submit(work) for _ in range(helpers)]
        work()
    for future in running:
        future.result()


@dataclass(frozen=True)
class TopologyConfig:
    """Dimensions of the contact structure.

    n_core / n_periphery / n_aux are the fleet sizes; every core server knows
    periphery_per_core periphery servers and primary_contacts_per_core other
    core servers.
    """

    n_core: int
    n_periphery: int
    n_aux: int = 0
    primary_contacts_per_core: int = 0
    periphery_per_core: int = 1

    def __post_init__(self) -> None:
        if self.n_core < 1:
            raise ConfigurationError("n_core must be >= 1")
        if self.n_periphery < 1:
            raise ConfigurationError("n_periphery must be >= 1")
        if self.n_aux < 0:
            raise ConfigurationError("n_aux must be >= 0")
        if not 1 <= self.periphery_per_core <= self.n_periphery:
            raise ConfigurationError(
                "periphery_per_core must be in [1, n_periphery] "
                f"(got m={self.periphery_per_core}, M={self.n_periphery})"
            )
        if not 0 <= self.primary_contacts_per_core <= self.n_core - 1:
            raise ConfigurationError(
                "primary_contacts_per_core must be in [0, n_core - 1] "
                f"(got n={self.primary_contacts_per_core}, N={self.n_core})"
            )


@dataclass(frozen=True)
class ContactBlocks:
    """How `organize` drew the primary contacts, kept so that one block of
    rows can be drawn again (`ContactTopology.contact_tail`).

    Block b holds rows [b * rows, (b + 1) * rows), `width` contacts each,
    and drew them from child `first + b` of `seeds`, the SeedSequence of
    `organize`'s generator, in `rng.spawn`'s numbering: one parent and an
    index, not one seed per block (~16,000 blocks at the published N). A
    block drawn in two strata draws the second from that child's own
    first child (`_tail_rng`).
    """

    seeds: np.random.SeedSequence
    first: int
    width: int
    rows: int


@dataclass
class ContactTopology:
    """The bootstrapped contact lists.

    core_known_periphery[c] holds the m periphery ids core c selected;
    core_primary_contacts[c] holds the first min(n, _KEPT_CONTACTS) of its
    n primary core contacts; and periphery_known_cores[p] is the exact
    inverse of the first relation.
    `organize` builds those M lists as views of one int32 array, kept as
    `known_cores` with the M + 1 offsets `known_core_starts`: list p is
    known_cores[known_core_starts[p]:known_core_starts[p + 1]]. A topology
    built by hand leaves both None.

    A row of core_primary_contacts is a set, and `organize` returns each row
    ascending by id, as it returns each known-core list: in (unit cost, id)
    order on a fleet `engine.init_servers` numbered cheapest first. The
    topology is drawn without the fleet, from its own sub-seed, and its law
    does not change when cores are renumbered. `market.ContactOrder` takes
    the matrix over and puts every row in (unit cost, id) order in place.

    Where n > _KEPT_CONTACTS, `organize` keeps each row's first
    _KEPT_CONTACTS contacts, its lowest ids, and records in
    `contact_blocks` how it drew them; `contact_tail` returns the rest of
    a row. Rows whole (n <= _KEPT_CONTACTS, or built by hand) have no
    `contact_blocks` and no tail.
    """

    n_core: int
    n_periphery: int
    core_known_periphery: np.ndarray        # shape (N, m), int32
    core_primary_contacts: np.ndarray       # shape (N, n), int32
    periphery_known_cores: list[np.ndarray]  # M arrays of core ids, ascending
    aux_roster: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    known_cores: np.ndarray | None = None        # shape (N * m,), int32
    known_core_starts: np.ndarray | None = None  # shape (M + 1,), int64
    contact_blocks: ContactBlocks | None = None  # None when rows are whole

    def contact_tail(self, core: int) -> np.ndarray:
        """Core's primary contacts past the kept columns, ascending: those
        `organize` drew and dropped, or never drew, byte for byte. The
        row's whole block is drawn from fresh generators in its child's
        initial state, as `_sample_rows` drew it, both strata where it was
        split, and only this row's strata are merged and shifted past its
        owner: ~3 ms at n=500. Empty when rows are whole."""
        blocks = self.contact_blocks
        if blocks is None:
            return np.empty(0, np.int32)
        b, r = divmod(core, blocks.rows)
        gen = np.random.default_rng(_child_seeds(blocks.seeds, blocks.first + b))
        rows = slice(b * blocks.rows, min((b + 1) * blocks.rows, self.n_core))
        row = _draw_block(gen, rows, blocks.width, self.n_core - 1,
                          skip_own=True, kept=blocks.width, only=r)
        return row[0, self.core_primary_contacts.shape[1]:]

    def pcs_sizes(self) -> np.ndarray:
        """The length of each known-core list: the differences of
        `organize`'s offsets, or the lengths of hand-built lists."""
        if self.known_core_starts is not None:
            return np.diff(self.known_core_starts)
        return np.array([len(p) for p in self.periphery_known_cores], dtype=np.int64)

    def known_core_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The known-core lists as one id array and M + 1 offsets into it:
        `organize`'s own, or a copy of hand-built lists."""
        if self.known_cores is not None:
            return self.known_cores, self.known_core_starts
        starts = np.concatenate(([0], np.cumsum(self.pcs_sizes())))
        return np.concatenate(self.periphery_known_cores), starts


@dataclass
class TopologyStats:
    """Measured statistics of one topology.

    pcs statistics are exact over all periphery servers; secondary-contact
    counts cover `sample_size` cores (exact when sample_size == n_core).
    """

    pcs_sizes: np.ndarray
    pcs_mean: float
    secondary_counts: np.ndarray
    secondary_min: int
    secondary_max: int
    secondary_mean: float
    sample_size: int
    exact: bool


def _sample_rows(
    rng: np.random.Generator, n_rows: int, k: int, pop: int, skip_own: bool = False,
    kept: int | None = None,
) -> np.ndarray:
    """n_rows rows of k distinct values from range(pop), each row ascending
    and uniform over k-subsets (`_distinct_sorted_rows`). With `skip_own`,
    row r holds k values of range(pop) other than r: drawn from range(pop -
    1), then each value from r up shifted by one, in the block that draws
    them, so the matrix is written once and every row stays ascending.
    With `kept`, each block writes only the first `kept` values of its
    rows, so the matrix is min(k, kept) wide, and rows of k >
    _PREFIX_CONTACTS are drawn in two strata (`_draw_block`).

    The rows are drawn in fixed blocks of _BLOCK_CELLS cells (at least one
    row), each from its own child generator (`rng.spawn`), and the blocks
    run on the process's CPUs (`for_row_chunks`). A block reads only its
    own generator and writes only its own rows, so no output depends on
    CHUNK_CELLS or on the number of threads; `rng` itself draws nothing.
    """
    width = k if kept is None else min(k, kept)
    kept_width = None if kept is None else width
    if k == 0:
        return np.empty((n_rows, 0), dtype=np.int32)
    pop -= skip_own
    if k > pop:
        raise ConfigurationError(f"cannot draw {k} distinct values from {pop}")
    out = np.empty((n_rows, width), dtype=np.int32)
    blocks = list(row_chunks(n_rows, k, _BLOCK_CELLS))
    gens = rng.spawn(len(blocks))

    def draw(which: slice) -> None:
        for b in range(which.start, which.stop):
            out[blocks[b]] = _draw_block(gens[b], blocks[b], k, pop, skip_own, kept_width)

    for_row_chunks(draw, len(blocks), _BLOCK_CELLS)
    return out


def _draw_block(
    gen: np.random.Generator, rows: slice, k: int, pop: int, skip_own: bool,
    kept: int | None = None, only: int | None = None,
) -> np.ndarray:
    """One block of `_sample_rows`: rows `rows` of k distinct values of
    range(pop), ascending, each value from the row's owner up shifted by
    one with `skip_own`; with `only`, just row `only` of the block, drawn
    alike but merged and shifted alone.

    With `kept`, only the first `kept` columns of each row are returned,
    and rows of k > _PREFIX_CONTACTS are drawn in two strata: each row's
    count c of values below T = ceil(pop * _PREFIX_CONTACTS / k), one
    hypergeometric draw, then a uniform c-subset of range(T) from `gen`
    and a uniform (k - c)-subset of range(T, pop) from `_tail_rng(gen)`.
    That is the law of a uniform k-subset (the count of a uniform subset
    in a part is hypergeometric and, given it, the subset's two parts are
    uniform and independent), and c is about _PREFIX_CONTACTS, so the
    second stratum is drawn only where a row holds fewer than `kept`
    values below T: a row stays the same whatever `kept` is.
    """
    n_rows = rows.stop - rows.start
    mine = slice(None) if only is None else slice(only, only + 1)
    if kept is None or k <= _PREFIX_CONTACTS:
        block = _distinct_sorted_rows(gen, n_rows, k, pop)[mine, :kept]
    else:
        split = -(-pop * _PREFIX_CONTACTS // k)
        low = gen.hypergeometric(split, pop - split, k, size=n_rows)
        head = _distinct_sorted_rows(gen, n_rows, low, split)[mine]
        if low.min() >= kept:
            block = head[:, :kept]
        else:
            rest = _distinct_sorted_rows(_tail_rng(gen), n_rows, k - low, pop - split)[mine]
            rest += split
            # row r: its first min(c, kept) head values, then rest values
            # up to `kept`, both matrices read in row-major order
            first = np.minimum(low[mine], kept)[:, None]
            from_head = np.arange(kept) < first
            block = np.empty(from_head.shape, dtype=np.int32)
            block[from_head] = head[np.arange(head.shape[1]) < first]
            block[~from_head] = rest[np.arange(rest.shape[1]) < kept - first]
    if skip_own:
        block += block >= np.arange(rows.start, rows.stop, dtype=np.int32)[mine, None]
    return block


def _child_seeds(seeds: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """Child i of `seeds`, as `seeds.spawn` numbers them, without counting
    it as spawned."""
    return np.random.SeedSequence(seeds.entropy, spawn_key=(*seeds.spawn_key, i),
                                  pool_size=seeds.pool_size)


def _tail_rng(gen: np.random.Generator) -> np.random.Generator:
    """The generator a split block draws its second stratum from: a fresh
    one from the first child of the block generator's seeds."""
    return np.random.default_rng(_child_seeds(gen.bit_generator.seed_seq, 0))


def _distinct_sorted_rows(gen: np.random.Generator, n_rows: int, k, pop) -> np.ndarray:
    """n_rows rows, row r beginning with k[r] distinct values from
    range(pop[r]), ascending: a uniform random k[r]-subset, all drawn from
    `gen`. k and pop are ints, alike for every row, giving an int32
    (n_rows, k) matrix; or k is an array of one entry per row, giving an
    (n_rows, max(k)) matrix whose cells past a row's k hold no value of
    use: int32 for an int pop, int64 for a pop array of one entry per row.

    A row of k > pop / 2 draws the pop - k values it leaves out, and returns
    the others. Every row draws its values with replacement and sorts them.
    Each value a row holds more than once keeps its first copy, and only
    the surplus copies are drawn again; the rows that changed are sorted
    again, until no row holds a duplicate. A row is uniform over subsets of
    its size: each round's result depends on the previous one only through
    its distinct values and its surplus count, plus fresh iid uniform
    draws, so any relabeling of range(pop) maps the process onto itself.
    The law of the final set is then invariant under every permutation of
    range(pop), and those act transitively on subsets of one size. A
    redrawn cell repeats a kept value with probability below 1/2, as a row
    draws at most pop / 2 values, so the rounds end quickly.

    Each round compares the pending rows as one flat array, with the pairs
    that straddle two rows masked off, and redraws its surplus cells in
    flat order, in one `gen.integers` call: with a scalar bound for an int
    pop, with each cell's row bound for a pop array (~4x slower a draw).
    """
    k, pop = np.asarray(k), np.asarray(pop)
    flip = 2 * k > pop
    drawn = np.where(flip, pop - k, k)  # values each row draws
    width = int(drawn.max(initial=0))
    dtype = np.int64 if pop.ndim else np.int32
    if k.ndim:
        # a cell past a row's draws holds a value of its own above every
        # position: it neither matches one nor sorts before one
        taken = np.arange(width, dtype=dtype) < drawn.astype(dtype)[:, None]
        top = int(pop.max(initial=0))
        block = np.broadcast_to(np.arange(top, top + width, dtype=dtype), taken.shape).copy()
        high = np.repeat(pop, drawn) if pop.ndim else pop
        block[taken] = gen.integers(0, high, size=int(drawn.sum()), dtype=dtype)
    else:
        block = gen.integers(0, pop, size=(n_rows, width), dtype=dtype)
    block.sort(axis=1)
    pending, rows = block, np.arange(n_rows)  # `pending` holds block[rows]
    while width > 1:
        flat = pending.reshape(-1)
        surplus = flat[1:] == flat[:-1]
        surplus[width - 1 :: width] = False
        cells = np.flatnonzero(surplus) + 1
        if not cells.size:
            break
        at = cells // width  # the pending row of each surplus cell, ascending
        high = pop[rows[at]] if pop.ndim else pop
        flat[cells] = gen.integers(0, high, size=cells.size, dtype=block.dtype)
        # not np.unique, whose first call imports numpy.ma (~1.5 MB of RSS)
        changed = at[np.diff(at, prepend=-1) > 0]
        pending, rows = pending[changed], rows[changed]
        pending.sort(axis=1)
        block[rows] = pending
    if not flip.any():
        return block
    # the complement of each flipped row's draws, ascending
    k, pop, drawn, flip = (np.broadcast_to(a, n_rows) for a in (k, pop, drawn, flip))
    out = np.empty((n_rows, int(k.max())), dtype=block.dtype)
    out[:, :width] = block
    rows = np.flatnonzero(flip)
    keep = np.arange(pop[rows].max()) < pop[rows, None]
    left = block[rows][np.arange(width) < drawn[rows, None]]
    keep[np.repeat(np.arange(rows.size), drawn[rows]), left] = False
    flipped = out[rows]
    flipped[np.arange(out.shape[1]) < k[rows, None]] = \
        np.broadcast_to(np.arange(keep.shape[1]), keep.shape)[keep]
    out[rows] = flipped
    return out


def organize(config: TopologyConfig, seed: int) -> ContactTopology:
    """Run the one-shot self-organization and return the contact structure.

    The periphery "broadcast" is modeled as instantaneous global knowledge:
    each core directly draws m distinct periphery servers, then n distinct
    primary contacts excluding itself, of which it keeps the first
    _KEPT_CONTACTS (`ContactTopology.contact_tail` draws the rest again);
    a row of more than _PREFIX_CONTACTS is drawn in two strata, and set-up
    draws only the first (`_draw_block`).
    The draws come from a generator seeded with `seed`, so equal configs
    and seeds yield equal topologies.
    """
    rng = np.random.default_rng(seed)
    n, m = config.n_core, config.periphery_per_core
    n_contacts = config.primary_contacts_per_core

    known_periphery = _sample_rows(rng, n, m, config.n_periphery)
    # Inverted before the contact draw (no rng involved), so the inversion's
    # temporaries are freed before the contact matrix exists.
    known_cores, starts = _invert_selection(known_periphery, config.n_periphery)
    periphery_known = np.split(known_cores, starts[1:-1])

    # a core's contacts are drawn from the other N - 1 cores, so the owner
    # can never appear in its own list; `rng.spawn` numbers the blocks'
    # children from the parent's count of children so far
    seeds = rng.bit_generator.seed_seq
    blocks = ContactBlocks(seeds, seeds.n_children_spawned, n_contacts,
                           _chunk_rows(n_contacts, _BLOCK_CELLS))
    contacts = _sample_rows(rng, n, n_contacts, n, skip_own=True, kept=_KEPT_CONTACTS)

    return ContactTopology(
        n_core=n,
        n_periphery=config.n_periphery,
        core_known_periphery=known_periphery,
        core_primary_contacts=contacts,
        periphery_known_cores=periphery_known,
        aux_roster=np.arange(config.n_aux, dtype=np.int32),
        known_cores=known_cores,
        known_core_starts=starts,
        contact_blocks=blocks if n_contacts > _KEPT_CONTACTS else None,
    )


def _invert_selection(
    known_periphery: np.ndarray, n_periphery: int
) -> tuple[np.ndarray, np.ndarray]:
    """The exact inverse relation: the cores knowing each periphery server,
    all in one array, and the M + 1 offsets of each server's list in it.

    Cell (core c, server p) is packed as the word p << b | c, b = bits(N -
    1), in core order into the int32 result's own buffer viewed as uint32,
    and one in-place sort (numpy's default, a vectorized quicksort) puts
    the words in (p, c) order: masked back to c, every list is ascending,
    as a stable argsort of the matrix would leave it. Equal words are equal
    cells, so the sort's instability cannot show. Where bits(M - 1) + b >
    32 (10 + 23 at the published N), the servers are split into groups of
    2^(32 - b), each a stretch of the result that the offsets bound, packed
    relative to its first server and sorted alone. The list sizes are
    counted a CHUNK_CELLS chunk at a time before the result exists, since
    `np.bincount` copies its input to int64; the words are packed straight
    into the result, so beside it only a chunk's temporaries are held.
    """
    n, m = known_periphery.shape
    counts = np.zeros(n_periphery, dtype=np.int64)
    for rows in row_chunks(n, m):
        counts += np.bincount(known_periphery[rows].ravel(), minlength=n_periphery)
    starts = np.concatenate(([0], np.cumsum(counts)))
    owners = np.empty(n * m, dtype=np.int32)
    core_bits = (n - 1).bit_length()
    span = 1 << (32 - core_bits)  # servers a group's words tell apart
    for first in range(0, n_periphery, span):
        last = min(first + span, n_periphery)
        group = owners[starts[first]:starts[last]].view(np.uint32)
        at = 0
        for rows in row_chunks(n, m):
            keys = known_periphery[rows]
            cores = np.arange(rows.start, rows.stop, dtype=np.uint32)[:, None]
            if span < n_periphery:  # the group's cells; a bool index costs ~5x more
                cells = np.flatnonzero((keys >= first) & (keys < last))
                keys, cores = keys.ravel().take(cells), cores.ravel().take(cells // m)
            words = group[at:at + keys.size].reshape(keys.shape)
            np.subtract(keys, first, out=words, casting="unsafe")
            words <<= core_bits
            words |= cores
            at += keys.size
        group.sort()
        group &= (1 << core_bits) - 1
    return owners, starts


def secondary_mask(topology: ContactTopology, core: int) -> np.ndarray:
    """Bool mask over the cores, True where a core shares a periphery server
    with `core`: its secondary contacts. The owner is excluded."""
    mask = np.zeros(topology.n_core, dtype=bool)
    for p in topology.core_known_periphery[core]:
        mask[topology.periphery_known_cores[p]] = True
    mask[core] = False
    return mask


def compute_stats(
    topology: ContactTopology,
    sample_size: int | None = None,
    rng: np.random.Generator | None = None,
) -> TopologyStats:
    """Measure pcs sizes (exact) and secondary-contact counts.

    A core's secondary count S is the number of True entries of its
    `secondary_mask`: the distinct cores, other than itself, appearing in
    the known-core lists of its m periphery servers. sample_size == n_core
    (the default) computes S exactly for every core; smaller values measure
    a uniform core sample drawn from `rng`, which they require.
    """
    n = topology.n_core
    if n == 0 or topology.n_periphery == 0:
        raise ConfigurationError("cannot compute statistics of an empty topology")
    if sample_size is None:
        sample_size = n
    if not 1 <= sample_size <= n:
        raise ConfigurationError(f"sample_size must be in [1, {n}]")

    exact = sample_size == n
    if exact:
        sampled = np.arange(n)
    elif rng is None:
        raise ConfigurationError("a sampled measurement needs a generator (rng)")
    else:
        sampled = rng.choice(n, size=sample_size, replace=False)

    counts = np.array(
        [np.count_nonzero(secondary_mask(topology, c)) for c in sampled], dtype=np.int64
    )

    pcs_sizes = topology.pcs_sizes()
    return TopologyStats(
        pcs_sizes=pcs_sizes,
        pcs_mean=float(pcs_sizes.mean()),
        secondary_counts=counts,
        secondary_min=int(counts.min()),
        secondary_max=int(counts.max()),
        secondary_mean=float(counts.mean()),
        sample_size=sample_size,
        exact=exact,
    )


def expected_pcs_size(n_core: int, m: int, n_periphery: int) -> float:
    """Expected periphery known-core list size under uniform selection: N*m/M."""
    if m > n_periphery:
        raise ConfigurationError("m cannot exceed the number of periphery servers")
    return n_core * m / n_periphery


def expected_secondary_fraction(n_periphery: int, m: int) -> float:
    """Probability that two independent m-of-M periphery draws intersect.

    Equals 1 - prod_{i=0}^{m-1} (M-m-i)/(M-i), the complement of the
    hypergeometric no-overlap probability; a factor hits zero (and the
    result is exactly 1) as soon as 2m > M.
    """
    if not 1 <= m <= n_periphery:
        raise ConfigurationError("need 1 <= m <= n_periphery")
    p_disjoint = 1.0
    for i in range(m):
        p_disjoint *= (n_periphery - m - i) / (n_periphery - i)
        if p_disjoint <= 0.0:
            return 1.0
    return 1.0 - p_disjoint


def equal_width_histogram(values: np.ndarray, bucket_count: int) -> list[tuple[float, float, int]]:
    """Equal-width buckets spanning [min, max], upper edge exclusive except
    for the last bucket. Bucket counts always sum to len(values)."""
    if bucket_count <= 0:
        raise ConfigurationError("bucket_count must be >= 1")
    values = np.asarray(values)
    if values.size == 0:
        return []
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return [(lo, hi, int(values.size))]
    width = (hi - lo) / bucket_count
    idx = np.clip(((values - lo) / width).astype(np.int64), 0, bucket_count - 1)
    counts = np.bincount(idx, minlength=bucket_count)
    return [
        (lo + i * width, lo + (i + 1) * width, int(counts[i]))
        for i in range(bucket_count)
    ]
