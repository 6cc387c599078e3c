"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live. Heavy
preset runs are executed once and shared across criteria through a
module-level cache. Every run checks the fleet ledger: commit and release
check the servers they write, and the whole fleet is swept when the stream
ends and after the drain.

Known red: criterion 1's published-ratio clause fails at m=50 by plain
arithmetic. The published average pcs size for m=50 is 4.884% of the fleet
while m/M is 5.0%, a 2.38% relative gap against a 2% band; the published
measurements track a with-replacement draw whose duplicates were dropped
(expected 4.879% for m=50), while this simulator draws without replacement,
which its own distinct-entry and exactness checks require. The check is
asserted as stated rather than widened.
"""

import json
import math
import time

import numpy as np
import pytest

from sococ.harness import preset, run_experiment
from sococ.topology import (
    TopologyConfig,
    compute_stats,
    expected_pcs_size,
    expected_secondary_fraction,
    organize,
)

# published topology measurements at N=8,388,608, M=1000, n=500
PUBLISHED_PBAR_OVER_N = {5: 0.00494, 10: 0.00996, 20: 0.01983, 50: 0.04884}
PUBLISHED_SBAR_OVER_N = {5: 0.02472, 10: 0.09529, 20: 0.33006, 50: 0.91811}

_RUNS: dict[tuple[str, int], tuple] = {}


def cached_run(name: str, seed: int, out_dir=None):
    """Run a preset once and share it across criteria."""
    key = (name, seed)
    if key not in _RUNS:
        t0 = time.perf_counter()
        report = run_experiment(name, seed, out_dir)
        _RUNS[key] = (report, time.perf_counter() - t0)
    return _RUNS[key]


def per_mode_rates(report) -> dict[str, float]:
    return {mode: t.success_rate for mode, t in report.totals.items()}


def announce(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_pcs_expectation_match():
    """C1a: measured mean pcs size within 1% of N*m/M at N=100,000."""
    t0 = time.perf_counter()
    failures = []
    for m in (5, 10, 20, 50):
        topo = organize(TopologyConfig(
            n_core=100_000, n_periphery=1000,
            primary_contacts_per_core=100, periphery_per_core=m, seed=1,
        ))
        measured = float(topo.pcs_sizes().mean())
        expected = expected_pcs_size(100_000, m, 1000)
        if abs(measured - expected) / expected > 0.01:
            failures.append((m, measured, expected))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    announce("C1 (pcs expectation)", ok,
             f"all m within 1% of N*m/M, elapsed {elapsed:.1f}s < 60s")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_1_published_ratio_clause():
    """C1b: published p-bar/N ratios vs m/M within 2% relative.

    Fails at m=50 by construction: |5.0% - 4.884%| / 4.884% = 2.38% > 2%.
    Asserted as stated; see the module docstring.
    """
    worst = []
    for m in (5, 10, 20, 50):
        model = m / 1000
        rel = abs(model - PUBLISHED_PBAR_OVER_N[m]) / PUBLISHED_PBAR_OVER_N[m]
        worst.append((m, rel))
    bad = [(m, rel) for m, rel in worst if rel > 0.02]
    announce("C1 (published ratios)", not bad,
             "; ".join(f"m={m}: {rel:.2%} vs 2% band" for m, rel in worst))
    assert not bad, (
        f"published-ratio gap exceeds the 2% band: {bad}; the published "
        "draw retains a with-replacement deficit that grows with m"
    )


def test_criterion_2_secondary_contact_match():
    """C2: sampled mean S/(N-1) within 3 SE of the hypergeometric oracle,
    oracle within 3% relative of the published S-bar/N ratios."""
    t0 = time.perf_counter()
    seed = 2
    details = []
    for m in (5, 10, 20, 50):
        topo = organize(TopologyConfig(
            n_core=2000, n_periphery=1000,
            primary_contacts_per_core=5, periphery_per_core=m, seed=seed,
        ))
        stats = compute_stats(topo, 1000, np.random.default_rng(seed))
        frac = stats.secondary_counts / 1999
        oracle = expected_secondary_fraction(1000, m)
        se = frac.std() / math.sqrt(frac.size)
        assert abs(frac.mean() - oracle) <= 3 * se, (m, frac.mean(), oracle, se)
        rel = abs(oracle - PUBLISHED_SBAR_OVER_N[m]) / PUBLISHED_SBAR_OVER_N[m]
        assert rel <= 0.03, (m, oracle, PUBLISHED_SBAR_OVER_N[m])
        details.append(f"m={m}: z={(frac.mean() - oracle) / se:+.2f}, "
                       f"oracle-vs-published {rel:.2%}")
    elapsed = time.perf_counter() - t0
    announce("C2 (secondary contacts)", True,
             "; ".join(details) + f", elapsed {elapsed:.1f}s < 60s")
    assert elapsed < 60.0


def test_criterion_3_light_load_success():
    """C3: exp1-desk and exp2-desk reach >= 99.5% success in every mode."""
    details = []
    for name in ("exp1-desk", "exp2-desk"):
        report, elapsed = cached_run(name, 1)
        rates = per_mode_rates(report)
        for mode, rate in rates.items():
            assert rate >= 0.995, (name, mode, rate)
        assert elapsed < 300.0, (name, elapsed)
        details.append(
            f"{name}: " + " ".join(f"{m}={r:.4%}" for m, r in rates.items())
            + f" ({elapsed:.0f}s < 300s)"
        )
    announce("C3 (light load)", True, "; ".join(details))


def test_criterion_4_heavy_load_band():
    """C4: every exp3-desk bin lands strictly inside (30%, 95%) and the
    unsatisfied ledger is non-empty."""
    report, _ = cached_run("exp3-desk", 1)
    rates = [b.success_rate for b in report.bins]
    assert rates, "no bins recorded"
    assert all(0.30 < r < 0.95 for r in rates), (min(rates), max(rates))
    assert report.unsatisfied > 0
    announce("C4 (heavy load band)", True,
             f"bins in [{min(rates):.4f}, {max(rates):.4f}] strictly inside "
             f"(0.30, 0.95); {report.unsatisfied} unsatisfied")


def test_criterion_5_core_initiated_beats_periphery_initiated():
    """C5: over 5 matched seeds, exp3-desk (C2) success >= exp4-desk (C1)
    minus 0.5pp and its mean coalition count is at least as large."""
    seeds = (1, 2, 3, 4, 5)
    c2_won = c2_total = c1_won = c1_total = 0
    c2_coal, c1_coal = [], []
    for seed in seeds:
        r2, _ = cached_run("exp3-desk", seed)
        r1, _ = cached_run("exp4-desk", seed)
        c2_won += sum(t.requests - t.failed for t in r2.totals.values())
        c2_total += sum(t.requests for t in r2.totals.values())
        c1_won += sum(t.requests - t.failed for t in r1.totals.values())
        c1_total += sum(t.requests for t in r1.totals.values())
        c2_coal.append(r2.coalition.mean)
        c1_coal.append(r1.coalition.mean)
    c2_rate = c2_won / c2_total
    c1_rate = c1_won / c1_total
    assert c2_rate >= c1_rate - 0.005, (c2_rate, c1_rate)
    assert np.mean(c2_coal) >= np.mean(c1_coal), (c2_coal, c1_coal)
    announce("C5 (C2 vs C1)", True,
             f"success {c2_rate:.4f} (C2) vs {c1_rate:.4f} (C1); mean "
             f"coalition count {np.mean(c2_coal):.1f} vs {np.mean(c1_coal):.1f}")


def test_criterion_6_small_overloaded_system():
    """C6: exp5 succeeds at least 10pp less often than exp1-desk, queues
    unsatisfied requests, and finishes in under a second."""
    t0 = time.perf_counter()
    exp5 = run_experiment("exp5", 1)
    elapsed = time.perf_counter() - t0
    exp1_desk, _ = cached_run("exp1-desk", 1)
    small = exp5.overall_success_rate()
    light = exp1_desk.overall_success_rate()
    assert small <= light - 0.10, (small, light)
    assert exp5.unsatisfied > 0
    assert elapsed < 1.0, elapsed
    announce("C6 (small overloaded)", True,
             f"exp5 {small:.4f} vs exp1-desk {light:.4f} "
             f"(gap {light - small:.1%}), {exp5.unsatisfied} unsatisfied, "
             f"{elapsed * 1000:.0f}ms < 1s")


def test_criterion_7_byte_identical_reruns(tmp_path):
    """C7: the same preset and seed emit byte-identical report files."""
    files = ("bins.csv", "coalitions.csv", "summary.json")
    for name, seed in (("exp5", 7), ("exp6", 7), ("exp4-desk", 1)):
        run_experiment(name, seed, tmp_path / name / "a")
        run_experiment(name, seed, tmp_path / name / "b")
        for f in files:
            a = (tmp_path / name / "a" / f).read_bytes()
            b = (tmp_path / name / "b" / f).read_bytes()
            assert a == b, (name, f)
    announce("C7 (determinism)", True,
             "exp5, exp6 and exp4-desk reruns byte-identical across "
             + ", ".join(files))


def test_criterion_8_invariant_checked_runs(tmp_path):
    """C8: every desk preset plus exp5/exp6 completes with its fleet ledger
    checked at every commit and release and swept at stream end and after
    the drain, and with a balanced request ledger."""
    names = ("exp1-desk", "exp2-desk", "exp3-desk", "exp4-desk", "exp5", "exp6")
    details = []
    for name in names:
        out = tmp_path / name
        if name in ("exp5", "exp6"):
            report = run_experiment(name, 1, out)
        else:
            report, _ = cached_run(name, 1)
            from sococ.metrics import emit
            emit(report, out)
        summary = json.loads((out / "summary.json").read_text())
        balanced = (
            summary["n_requests"]
            == summary["completed_at_stream_end"]
            + summary["in_flight_at_stream_end"]
            + summary["unsatisfied"]
        )
        assert balanced, name
        details.append(name)
    announce("C8 (invariant suite)", True,
             "zero violations, ledgers balanced: " + ", ".join(details))
