"""Distributional equivalence: an ensemble of short runs against a recorded
reference.

The golden pins (`test_golden.py`) catch any change in a run's output. A
change that draws its random numbers another way moves every pin by design,
and the acceptance bands are too wide to show that the re-drawn runs are
still the same model. This ensemble shows it. Each regime in REGIMES is run
at K seeds of R requests, and each run records:

- the requests and the won requests of each mode;
- the coalition-size histogram, counted by wrapping `Fleet.commit`;
- the secondary-contact fallbacks, counted by wrapping
  `ContactOrder.secondary`.

`ensemble_reference.json` holds the record made before the stream and the
invitations were last re-drawn. A rerun is compared with it statistic by
statistic (`statistics`), with the seed as the sampling unit: the requests
of one run share one fleet, so their outcomes are not independent. Per-seed
success rates varied 0.5 (exp3/exp4-desk) to 6 (exp5) times as much as
binomial counts would, which rules out tests that pool the requests of all
seeds. Each statistic is compared by a two-sided Mann-Whitney U test of its
K reference values against its K rerun values, at the Bonferroni level that
holds the family-wise error rate of all FAMILY comparisons at ALPHA.

The runs are independent, so they are shared out over WORKERS processes.
Record the reference again, only for a change meant to keep every
distribution, with `PYTHONPATH=src python tests/test_ensemble.py`.
"""

import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from sococ import engine, market
from sococ.harness import preset, run_experiment

K = 16  # seeds per regime
R = 2_000  # requests per run
SEEDS = tuple(range(K))
SHIFT = 1_000  # a seed offset that draws a second, independent ensemble
ALPHA = 0.01  # family-wise error rate
WORKERS = 2
REFERENCE = Path(__file__).with_name("ensemble_reference.json")

# the runnable presets, and the golden pins' secondary-fallback regime:
# exp2-desk with 10 primary contacts per core, whose leaders fall back
REGIMES = ("exp1-desk", "exp2-desk", "exp3-desk", "exp4-desk", "exp5", "exp6", "fallback")
MODES = ("M1", "M2", "M3")
STATISTICS = tuple(f"success {m}" for m in MODES) + (
    "coalition size mean", "one-server coalitions", "fallbacks per request")
FAMILY = len(REGIMES) * len(STATISTICS)


def regime(name):
    """The preset regime `name` runs, cut to R requests."""
    if name == "fallback":
        base = preset("exp2-desk")
        p = replace(base, topology=replace(base.topology, primary_contacts_per_core=10))
    else:
        p = preset(name)
    return replace(p, workload=replace(p.workload, n_requests=R))


def observe(p, seed):
    """The record of one run of preset `p` at `seed`."""
    sizes, fallbacks = Counter(), 0
    commit, secondary = engine.Fleet.commit, market.ContactOrder.secondary

    def counting_commit(fleet, request, coalition):
        sizes[coalition.size] += 1
        return commit(fleet, request, coalition)

    def counting_secondary(order, core):
        nonlocal fallbacks
        fallbacks += 1
        return secondary(order, core)

    engine.Fleet.commit, market.ContactOrder.secondary = counting_commit, counting_secondary
    try:
        report = run_experiment(p, seed)
    finally:
        engine.Fleet.commit, market.ContactOrder.secondary = commit, secondary
    totals = [report.totals[m] for m in MODES]
    return {
        "requests": [t.requests for t in totals],
        "won": [t.requests - t.failed for t in totals],
        "coalition_sizes": {str(size): sizes[size] for size in sorted(sizes)},
        "fallbacks": fallbacks,
    }


def run_ensemble(presets, seeds):
    """{name: [record of each seed's run]} for each (name, preset) of
    `presets`, run at each of `seeds`."""
    jobs = [(name, p, seed) for name, p in presets.items() for seed in seeds]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        records = list(pool.map(observe, [p for _, p, _ in jobs], [s for _, _, s in jobs]))
    runs = {name: [] for name in presets}
    for (name, _, _), record in zip(jobs, records):
        runs[name].append(record)
    return runs


def statistics(record):
    """The compared statistics of one run's record."""
    sizes = {int(size): n for size, n in record["coalition_sizes"].items()}
    coalitions = sum(sizes.values())
    stats = {f"success {m}": won / requests
             for m, won, requests in zip(MODES, record["won"], record["requests"])}
    stats["coalition size mean"] = sum(s * n for s, n in sizes.items()) / coalitions
    stats["one-server coalitions"] = sizes.get(1, 0) / coalitions
    stats["fallbacks per request"] = record["fallbacks"] / sum(record["requests"])
    return stats


def flagged(reference, runs):
    """(regime, statistic, p-value) of each comparison of `runs` with the
    reference that rejects equal distributions at the per-comparison level
    ALPHA / FAMILY. Values equal across both ensembles are not compared."""
    from scipy.stats import mannwhitneyu

    rejected = []
    for name, records in runs.items():
        ours = [statistics(r) for r in reference["runs"][name]]
        theirs = [statistics(r) for r in records]
        for stat in STATISTICS:
            a, b = [s[stat] for s in ours], [s[stat] for s in theirs]
            if len(set(a + b)) == 1:
                continue
            p = mannwhitneyu(a, b, alternative="two-sided").pvalue
            if p < ALPHA / FAMILY:
                rejected.append((name, stat, p))
    return rejected


@pytest.fixture(scope="module")
def reference():
    recorded = json.loads(REFERENCE.read_text())
    assert (recorded["K"], recorded["R"], tuple(recorded["seeds"])) == (K, R, SEEDS)
    assert tuple(recorded["runs"]) == REGIMES
    return recorded


def test_the_ensemble_matches_its_reference(reference):
    runs = run_ensemble({name: regime(name) for name in REGIMES}, SEEDS)
    assert flagged(reference, runs) == []
    # the fallback regime is the one that falls back
    assert all(r["fallbacks"] > 0 for r in runs["fallback"])


def test_a_second_ensemble_matches_the_reference(reference):
    # new seeds draw new runs of the same model, which must pass
    seeds = [seed + SHIFT for seed in SEEDS]
    assert flagged(reference, run_ensemble({name: regime(name) for name in REGIMES}, seeds)) == []


def test_a_doubled_invitation_is_flagged(reference):
    # 6-7 leader candidates in place of 3-4 win more auctions
    p = regime("exp3-desk")
    doubled = replace(p, market=replace(p.market, invited_fraction=2 * p.market.invited_fraction))
    rejected = flagged(reference, run_ensemble({"exp3-desk": doubled}, SEEDS))
    assert {stat for _, stat, _ in rejected} >= {f"success {m}" for m in MODES}


def test_a_run_that_never_falls_back_is_flagged(reference):
    p = regime("fallback")
    primary_only = replace(p, market=replace(p.market, use_secondary_contacts=False))
    rejected = flagged(reference, run_ensemble({"fallback": primary_only}, SEEDS))
    assert ("fallback", "fallbacks per request") in {(name, stat) for name, stat, _ in rejected}


if __name__ == "__main__":
    runs = run_ensemble({name: regime(name) for name in REGIMES}, SEEDS)
    lines = ",\n".join(
        f'    "{name}": [\n' + ",\n".join(f"      {json.dumps(r)}" for r in records) + "\n    ]"
        for name, records in runs.items())
    REFERENCE.write_text(
        f'{{\n  "K": {K},\n  "R": {R},\n  "seeds": {json.dumps(list(SEEDS))},\n'
        f'  "runs": {{\n{lines}\n  }}\n}}\n')
