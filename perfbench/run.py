"""Benchmark of the sococ simulator: host time, memory and per-layer cost.

Run from the repository root, one workload per fresh process:

    python3 perfbench/run.py --workload scale --seed 1 --seconds 50 --trace 0

Each repeat is one call of `harness.run_experiment(preset, seed, out_dir)`,
the path the `sococ run` command takes. The runner repeats it until
`--seconds` have passed (at least MIN_REPEATS times), checks every repeat's
output, and prints each metric by name with its unit, then one JSON result
line.

--trace 0 reports the end-to-end metrics:
  setup_s         start of the run to the first auction: organize,
                  init_servers and Market(...) construction; the median
  requests_per_s  simulated requests per host second inside engine.run,
                  stream generation included, Market construction excluded
  wall_s          the whole run_experiment call, report files included
  peak_rss_mb     ru_maxrss of this process

requests_per_s and wall_s use the upper quartile of the repeat times. A
shared virtual machine can run at a steady base speed with intermittent
boosts; the upper quartile tracks the base speed, while the median moves
with the share of a run that fell in a boost (see perfbench/README.md).

--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics of the traced ones (see probe.py), plus the tracing overhead. The
spans of the last traced repeat are written to perfbench/out/.

A repeat fails when it raises, when the request ledger does not balance, or
when its simulated outputs differ from the first repeat's at the same seed.
Unsatisfied requests are a simulated outcome, not a failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

N_REQUESTS = 20_000
MIN_REPEATS = 3
LEDGER_TOL = 1e-6

# workload -> preset it derives from; `scale` is built in workload_preset().
WORKLOADS = {
    "c2-light": "exp2-desk",
    "c2-scarce": "exp3-desk",
    "c1-pool": "exp4-desk",
    "scale": "exp3",
}
SCALE_N_CORE = 200_000  # the largest N harness allows without --allow-huge

# No workload falls back to secondary contacts yet, so that path has no
# timings to report; its call count is reported so the fallback shows once
# a workload exercises it.
COUNT_ONLY_LAYERS = ("market.secondary",)


def import_sococ():
    """Import sococ from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sococ
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sococ from {SRC}: {exc}") from None
    if Path(sococ.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: sococ imported from {sococ.__file__}, not {SRC}")


def workload_preset(name: str, n_requests: int = N_REQUESTS):
    """The experiment preset a workload runs, cut to n_requests requests."""
    from sococ import harness

    p = harness.preset(WORKLOADS[name])
    if name == "scale":
        p = replace(
            p, name="scale",
            topology=replace(p.topology, n_core=SCALE_N_CORE),
            scale_note="exp3 at N=200,000 (published M, m, n and fraction)",
        )
    return replace(p, workload=replace(p.workload, n_requests=n_requests))


@dataclass
class Repeat:
    """One run_experiment call: its timings, outputs and check results."""

    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    n_requests: int = 0
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    probe: object = None


def report_sha256(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("bins.csv", "coalitions.csv", "summary.json"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def ledger_problems(report, fleet, n_requests: int) -> list[str]:
    """Request and capacity ledgers of a finished run."""
    won = report.n_requests - report.unsatisfied
    checks = {
        "n_requests != configured": report.n_requests != n_requests,
        "per-mode requests do not sum to n_requests":
            sum(t.requests for t in report.totals.values()) != report.n_requests,
        "per-mode failures do not sum to unsatisfied":
            sum(t.failed for t in report.totals.values()) != report.unsatisfied,
        "completed != won": report.completed != won,
        "completed + in flight at stream end != won":
            report.completed_at_stream_end + report.in_flight_at_stream_end != won,
        "live allocations survived the drain": bool(fleet.live),
        "fleet did not return to background load":
            abs(float(fleet.committed.sum() - fleet.background.sum())) > LEDGER_TOL,
    }
    return [name for name, bad in checks.items() if bad]


def reconcile_problems(probe, report) -> list[str]:
    """Wrapper call counts against the report of the same traced run."""
    calls = layer_calls(probe)
    won = report.n_requests - report.unsatisfied
    fails = probe.fail_no_leader + probe.fail_assembly + probe.fail_pool
    checks = {
        "auction calls != n_requests": calls["market.auction"] != report.n_requests,
        "commit calls != won": calls["engine.commit"] != won,
        "release calls != completed": calls["engine.release"] != report.completed,
        "failure causes do not sum to unsatisfied": fails != report.unsatisfied,
    }
    return [name for name, bad in checks.items() if bad]


def layer_calls(probe) -> dict[str, int]:
    """Calls per layer in one traced repeat."""
    from probe import CALL_LAYERS

    durations, _ = probe.layer_times()
    return {k: len(durations.get(k, ())) for k in CALL_LAYERS}


def run_once(p, seed: int, out_dir: Path, traced: bool) -> Repeat:
    """One run_experiment call under a fresh probe."""
    from probe import Probe
    from sococ import harness

    gc.collect()
    probe = Probe(traced)
    rep = Repeat(n_requests=p.workload.n_requests)
    try:
        with probe.installed():
            start = perf_counter()
            report = harness.run_experiment(p, seed, out_dir)
            rep.wall_s = perf_counter() - start
        rep.setup_s = probe.market_built - start
        rep.run_s = probe.run_end - probe.market_built
        rep.outputs = {
            "report_sha256": report_sha256(out_dir),
            "event_digest": report.event_digest,
            "unsatisfied": report.unsatisfied,
            "completed": report.completed,
            "coalition_mean": report.coalition.mean,
            **{f"success_rate.{m}": t.success_rate for m, t in report.totals.items()},
        }
        rep.problems = ledger_problems(report, probe.fleet, rep.n_requests)
        if traced:
            rep.problems += reconcile_problems(probe, report)
    except Exception:
        traceback.print_exc()
        rep.problems = ["raised"]
    probe.fleet = None
    rep.probe = probe if traced else None
    return rep


def check_repeats(repeats: list[Repeat]) -> int:
    """Count failed repeats. Every repeat, traced or not, must give the
    simulated outputs of the first."""
    failed = 0
    for i, rep in enumerate(repeats):
        if not rep.problems and rep.outputs != repeats[0].outputs:
            rep.problems.append("simulated outputs differ from repeat 0")
        if rep.problems:
            print(f"repeat {i} failed: {'; '.join(rep.problems)}", file=sys.stderr)
            failed += 1
    return failed


def upper_quartile(values) -> float:
    return float(np.percentile(list(values), 75))


def end_to_end(repeats: list[Repeat]) -> dict:
    n = repeats[0].n_requests
    return {
        "setup_s": (statistics.median(r.setup_s for r in repeats), "s"),
        "requests_per_s": (n / upper_quartile(r.run_s for r in repeats), "1/s"),
        "wall_s": (upper_quartile(r.wall_s for r in repeats), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain: list[Repeat], traced: list[Repeat]) -> dict:
    """Per-layer metrics pooled over the traced repeats."""
    from probe import CALL_LAYERS

    med = statistics.median
    probes = [r.probe for r in traced]
    times = [p.layer_times() for p in probes]
    last = probes[-1]
    n = traced[-1].n_requests

    def once(*layers):
        return med(sum(float(d[k].sum()) for k in layers) for d, _ in times)

    m = {
        "topology.organize_s": (once("topology.organize"), "s"),
        "topology.contact_bytes": (last.contact_bytes, "bytes"),
        "engine.init_s": (once("engine.init"), "s"),
        "market.order_build_s": (once("market.order_build"), "s"),
        "market.order_bytes": (last.order_bytes, "bytes"),
        "metrics.report_s": (once("metrics.build_report", "metrics.emit"), "s"),
        "engine.loop_self_us": (med(s["engine.run"] for _, s in times) / n * 1e6, "us"),
    }
    for layer in CALL_LAYERS:
        pooled = np.concatenate([d.get(layer, np.zeros(0)) for d, _ in times])
        m[f"{layer}_calls"] = (pooled.size // len(times), "count")
        if layer in COUNT_ONLY_LAYERS:
            continue
        p50, p99 = (np.percentile(pooled, [50, 99]) * 1e6) if pooled.size else (0.0, 0.0)
        m[f"{layer}_us_p50"] = (float(p50), "us")
        m[f"{layer}_us_p99"] = (float(p99), "us")
        m[f"{layer}_self_s"] = (med(s.get(layer, 0.0) for _, s in times), "s")
    auctions = m["market.auction_calls"][0]
    m.update({
        "market.candidates_mean": (last.candidates / auctions, "count"),
        "market.win_ratio": (len(last.won) / auctions, "ratio"),
        "market.coalition_size_mean": (
            sum(c.size for _, c, _ in last.won) / max(len(last.won), 1), "count"),
        "market.fail_no_leader": (last.fail_no_leader, "count"),
        "market.fail_assembly": (last.fail_assembly, "count"),
        "market.fail_pool": (last.fail_pool, "count"),
        "engine.peak_in_flight": (last.peak_in_flight, "count"),
        "engine.sleepers_woken": (last.sleepers_woken, "count"),
        "trace.overhead_s": (
            med(r.wall_s for r in traced) - med(r.wall_s for r in plain), "s"),
    })
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Repeat the workload for `seconds`; return (plain, traced) repeats."""
    p = workload_preset(workload)
    out_dir = OUT / workload
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    start = perf_counter()
    while True:
        plain.append(run_once(p, seed, out_dir, traced=False))
        if trace:
            traced.append(run_once(p, seed, out_dir, traced=True))
        if plain[-1].problems or (traced and traced[-1].problems):
            break
        enough = len(plain) >= (1 if trace else MIN_REPEATS)
        if enough and perf_counter() - start >= seconds:
            break
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    import_sococ()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for rep in traced:
        if rep.probe.outcome_digest != traced[0].probe.outcome_digest:
            rep.problems.append("market.outcome_digest differs from traced repeat 0")
    repeats = plain + traced
    failed = check_repeats(repeats)
    correct = failed == 0

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced, "
          f"{len(traced)} traced repeats of {plain[0].n_requests} requests")
    for key, value in plain[0].outputs.items():
        print(f"output {key} = {value}")
    if traced:
        print(f"output market.outcome_digest = {traced[0].probe.outcome_digest}")
    metrics = {}
    if correct:
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value} {unit}")
        if args.trace:
            OUT.mkdir(parents=True, exist_ok=True)
            traced[-1].probe.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    print(json.dumps({
        "correct": correct,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
