"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-scale --seed 42 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload's unit of work once untraced and once traced, checks the
two digests are equal, and reports the per-layer ledger.  Report lines start
with ``#``; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("paper-scale", "standard-tier", "service", "paper-scale-sharded")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, traced: bool, out_dir: Path):
    from harness import workloads

    if name == "paper-scale":
        return workloads.paper_scale(seed, seconds, out_dir, traced=traced)
    if name == "paper-scale-sharded":
        return workloads.paper_scale(seed, seconds, out_dir, shards=workloads.SHARDS,
                                     traced=traced)
    if name == "standard-tier":
        return workloads.standard_tier(seed, seconds, out_dir, traced=traced)
    return workloads.service(seed, seconds, out_dir, traced=traced)


def report(line: str) -> None:
    print(f"# {line}")


def end_to_end_report(name: str, outcome, contract: dict) -> Optional[dict]:
    """Report the end-to-end metrics; None when a failure left one unmeasured."""
    missing = [m["name"] for m in contract["end_to_end"] if m["name"] not in outcome.end_to_end]
    if missing:
        report(f"workload {name} did not measure {', '.join(missing)}")
        return None
    metrics = {m["name"]: {"value": outcome.end_to_end[m["name"]], "unit": m["unit"]}
               for m in contract["end_to_end"]}
    samples = ", ".join(f"{key}={value}" for key, value in sorted(outcome.samples.items()))
    report(f"workload {name}: samples {samples}")
    for metric_name, metric in metrics.items():
        report(f"{metric_name} = {metric['value']:.6g} {metric['unit']}")
    units = {"events_per_s": "1/s", "events": "count", "queries": "count",
             "cold_latency_p50_ms": "ms", "cold_latency_p90_ms": "ms",
             "cached_latency_p50_ms": "ms", "cached_latency_p99_ms": "ms"}
    for key, unit in units.items():
        if key in outcome.extra:
            count = ""
            if key.startswith("cold_latency"):
                count = f" (n={outcome.samples['cold']})"
            elif key.startswith("cached_latency"):
                count = f" (n={outcome.samples['cached']})"
            report(f"{key} = {outcome.extra[key]:.6g} {unit}{count}")
    report(f"error_rate = {outcome.failed / max(1, outcome.attempted):.6g} ratio "
           f"({outcome.failed} of {outcome.attempted})")
    return metrics


def per_layer_report(name: str, seed: int, outcome, contract: dict, spool: Path) -> dict:
    from harness import layers, ledger

    documents = ledger.collect_spool(spool)
    merged = ledger.merge(documents)
    observed = dict(outcome.observed)
    routes = layers.handle_routes(merged)
    if routes:
        calls = sum(count for _, count, _ in routes)
        observed["service.handle_ms"] = sum(count * ms for _, count, ms in routes) / calls
    traced_wall = outcome.extra.get("traced_wall_s")
    untraced_wall = outcome.extra.get("untraced_wall_s")
    if traced_wall is not None and untraced_wall is not None:
        observed["tracing.overhead_s"] = traced_wall - untraced_wall
    absent_hooks = outcome.extra.get("absent_hooks", {})
    values, absent = layers.layer_metrics(merged, observed, absent_hooks)
    if outcome.extra.get("traced_digest") != outcome.extra.get("untraced_digest"):
        outcome.fail("the traced run's digest differs from the untraced run's")
    for metric, value in sorted(values.items()):
        report(f"{metric} = {value:.6g} {layers.UNITS[metric]}")
    for route, count, mean_ms in routes:
        report(f"service.handle_ms[{route}] = {mean_ms:.6g} ms (n={count})")
    for metric, reason in sorted(absent.items()):
        report(f"{metric} absent: {reason}")
    for hook, reason in sorted(absent_hooks.items()):
        report(f"hook {hook} absent: {reason}")
    OUT.mkdir(exist_ok=True)
    ledger_path = OUT / f"ledger-{name}-seed{seed}.json"
    ledger_path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "metrics": {key: {"value": value, "unit": layers.UNITS[key]}
                    for key, value in values.items()},
        "absent": absent,
        "absent_hooks": absent_hooks,
        "handle_routes": routes,
        "aggregates": merged["stats"],
        "counters": merged["extra"],
        "spans": merged["spans"],
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(f"ledger written to {ledger_path.relative_to(ROOT)}")
    metrics = {}
    for metric in contract["per_layer"]:
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0),
                                   "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = load_contract()
    import repro  # noqa: F401  (fail before any work when the program is absent)

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    spool = out_dir / "spool"
    spool.mkdir()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
        if args.trace:
            metrics = per_layer_report(args.workload, args.seed, outcome, contract, spool)
        else:
            metrics = end_to_end_report(args.workload, outcome, contract)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for message in outcome.errors[:20]:
        report(f"FAILED {message}")
    if metrics is None:
        return 1
    runs_path = OUT / f"runs-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    runs_path.write_text(json.dumps(outcome.runs, indent=1) + "\n", encoding="utf-8")
    report(f"simulated statistics of each run written to {runs_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
