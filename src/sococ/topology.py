"""Contact-topology bootstrap for the self-organizing cloud.

The fleet organizes itself in one round: every core server picks m of the M
periphery servers (its known-periphery list) plus n other core servers as
primary contacts, and each periphery server ends up knowing exactly the cores
that picked it.  Secondary contacts of a core are all other cores reachable
through a shared periphery server (`secondary_mask`).

Set-up works over N-row matrices one chunk of rows at a time
(`row_chunks`). The chunked loops that draw nothing (the rejection
sampler's duplicate checks, the contact shift and `market.ContactOrder`'s
cost ordering) run their chunks on the process's CPUs (`for_row_chunks`).
Their outputs cannot depend on that: each chunk writes only its own rows,
and every random draw stays on the calling thread, in row order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Chunked Fisher-Yates is used when the sampling population fits a per-row
# scratch matrix; larger populations go through rejection sampling.
_FY_POP_LIMIT = 4096
# The Fisher-Yates swap targets are drawn in row blocks of this many
# population cells, one step at a time. The block size fixes the order of the
# draws, so changing it changes every topology drawn from a population of at
# most _FY_POP_LIMIT.
_FY_DRAW_CELLS = 4_000_000
# Bound on the cells of any per-chunk temporary built over N-row matrices.
# It has no effect on any output, nor has the number of threads that work
# through the chunks of one loop (`for_row_chunks`): each holds one chunk's
# temporaries at a time.
CHUNK_CELLS = 1 << 18


def row_chunks(n_rows: int, row_cells: int, cells: int | None = None):
    """Consecutive slices of range(n_rows), each covering at most `cells`
    (default CHUNK_CELLS) cells of rows `row_cells` wide (at least one row)."""
    step = max(1, (CHUNK_CELLS if cells is None else cells) // max(row_cells, 1))
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

    `fn` must write only its own rows and draw nothing; then the order in
    which chunks run cannot show in any output. numpy releases the
    interpreter lock in the sorts, takes and compares the callers make, so
    the chunks run in parallel. The calling thread takes chunks too: each
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


@dataclass
class ContactTopology:
    """The bootstrapped contact lists.

    core_known_periphery[c] holds the m periphery ids core c selected;
    core_primary_contacts[c] holds its n primary core contacts; and
    periphery_known_cores[p] is the exact inverse of the first relation.
    `organize` builds those M lists as views of one int32 array, kept as
    `known_cores` with the M + 1 offsets `known_core_starts`: list p is
    known_cores[known_core_starts[p]:known_core_starts[p + 1]]. A topology
    built by hand leaves both None.

    A row of core_primary_contacts is an unordered set: `market.ContactOrder`
    takes the matrix over and re-orders every row in place by (unit cost, id).
    """

    n_core: int
    n_periphery: int
    core_known_periphery: np.ndarray        # shape (N, m), int32
    core_primary_contacts: np.ndarray       # shape (N, n), int32
    periphery_known_cores: list[np.ndarray]  # M arrays of core ids, ascending
    aux_roster: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    known_cores: np.ndarray | None = None        # shape (N * m,), int32
    known_core_starts: np.ndarray | None = None  # shape (M + 1,), int64

    def pcs_sizes(self) -> np.ndarray:
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


def _sample_rows_fisher_yates(
    rng: np.random.Generator, n_rows: int, k: int, pop: int
) -> np.ndarray:
    """k-of-pop uniform draws without replacement, one row at a time,
    via a partial Fisher-Yates shuffle vectorized across row chunks.

    The swap targets of every row are drawn first, into `out`; the shuffle
    then replaces them with the drawn values, one CHUNK_CELLS block of rows
    at a time on a reused scratch matrix."""
    out = np.empty((n_rows, k), dtype=np.int32)
    for rows in row_chunks(n_rows, pop, _FY_DRAW_CELLS):
        for s in range(k):
            out[rows, s] = rng.integers(s, pop, size=rows.stop - rows.start)
    scratch = np.empty((min(n_rows, max(1, CHUNK_CELLS // pop)), pop), dtype=np.int32)
    ridx = np.arange(len(scratch))
    for rows in row_chunks(n_rows, pop):
        c = rows.stop - rows.start
        base, r = scratch[:c], ridx[:c]
        base[:] = np.arange(pop, dtype=np.int32)
        targets = out[rows]
        for s in range(k):
            j = targets[:, s]
            picked = base[r, j]
            base[r, j] = base[:, s]
            base[:, s] = picked
        targets[:] = base[:, :k]
    return out


def _sample_rows_rejection(
    rng: np.random.Generator, n_rows: int, k: int, pop: int
) -> np.ndarray:
    """Same contract as the Fisher-Yates sampler, for large populations.

    Rows are drawn with replacement and redrawn whole while they contain a
    duplicate; accepted rows are uniform over distinct k-tuples. Duplicates
    are found by sorting copies of the pending rows, chunk by chunk on the
    process's CPUs (`for_row_chunks`): a chunk draws nothing and writes only
    its own rows' flags. The pending rows are then redrawn on the calling
    thread, one chunk at a time, in row order. Bounded int32 draws consume
    the bit stream value by value (PCG64 keeps a spare 32-bit half in its
    state), so splitting a redraw into chunks changes neither the values nor
    the generator state that follows.
    """
    out = rng.integers(0, pop, size=(n_rows, k), dtype=np.int32)
    pending = np.arange(n_rows)
    while pending.size:
        bad = np.empty(pending.size, dtype=bool)

        def check(rows: slice) -> None:
            srt = out[pending[rows]]
            srt.sort(axis=1)
            bad[rows] = (srt[:, 1:] == srt[:, :-1]).any(axis=1)

        for_row_chunks(check, pending.size, k)
        pending = pending[bad]
        for rows in row_chunks(pending.size, k):
            out[pending[rows]] = rng.integers(
                0, pop, size=(rows.stop - rows.start, k), dtype=np.int32)
    return out


def _sample_rows(rng: np.random.Generator, n_rows: int, k: int, pop: int) -> np.ndarray:
    """Per-row uniform sampling of k distinct values from range(pop)."""
    if k == 0:
        return np.empty((n_rows, 0), dtype=np.int32)
    if k > pop:
        raise ConfigurationError(f"cannot draw {k} distinct values from {pop}")
    if pop <= _FY_POP_LIMIT:
        return _sample_rows_fisher_yates(rng, n_rows, k, pop)
    # Expected duplicate probability per row; rejection degenerates when the
    # draw is a large fraction of the population.
    collision = 1.0 - math.exp(-k * (k - 1) / (2.0 * pop))
    if collision > 0.9:
        return _sample_rows_fisher_yates(rng, n_rows, k, pop)
    return _sample_rows_rejection(rng, n_rows, k, pop)


def organize(config: TopologyConfig, seed: int) -> ContactTopology:
    """Run the one-shot self-organization and return the contact structure.

    The periphery "broadcast" is modeled as instantaneous global knowledge:
    each core directly draws m distinct periphery servers, then n distinct
    primary contacts excluding itself. The draws come from a generator
    seeded with `seed`, so equal configs and seeds yield equal topologies.
    """
    rng = np.random.default_rng(seed)
    n, m = config.n_core, config.periphery_per_core
    n_contacts = config.primary_contacts_per_core

    known_periphery = _sample_rows(rng, n, m, config.n_periphery)
    # Inverted before the contact draw (no rng involved), so the inversion's
    # temporaries are freed before the N x n contact matrix exists.
    known_cores, starts = _invert_selection(known_periphery, config.n_periphery)
    periphery_known = np.split(known_cores, starts[1:-1])

    # Contacts are drawn from N-1 slots and shifted past the owner so the
    # owner can never appear in its own list.
    contacts = _sample_rows(rng, n, n_contacts, config.n_core - 1) if config.n_core > 1 \
        else np.empty((n, 0), dtype=np.int32)

    def shift(rows: slice) -> None:
        block = contacts[rows]
        block += block >= np.arange(rows.start, rows.stop, dtype=np.int32)[:, None]

    for_row_chunks(shift, n, n_contacts)

    return ContactTopology(
        n_core=n,
        n_periphery=config.n_periphery,
        core_known_periphery=known_periphery,
        core_primary_contacts=contacts,
        periphery_known_cores=periphery_known,
        aux_roster=np.arange(config.n_aux, dtype=np.int32),
        known_cores=known_cores,
        known_core_starts=starts,
    )


def _invert_selection(
    known_periphery: np.ndarray, n_periphery: int
) -> tuple[np.ndarray, np.ndarray]:
    """The exact inverse relation: the cores knowing each periphery server,
    all in one array, and the M + 1 offsets of each server's list in it."""
    m = known_periphery.shape[1]
    flat = known_periphery.ravel()
    # the offsets outlive the sort's temporaries and are made before them:
    # made after them, they raised peak RSS at N=200,000 from 451 to 455 MB
    # (perfbench `scale`, where a repeat's organize lands in the heap the
    # previous repeat left)
    starts = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=n_periphery))))
    # entry j of the flat matrix belongs to core j // m; stable keeps owners
    # ascending within each periphery server
    owners = (np.argsort(flat, kind="stable") // m).astype(np.int32)
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
