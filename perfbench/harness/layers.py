"""Per-layer metrics derived from a merged ledger (see :mod:`harness.ledger`).

Each metric names the layer it measures and is computed from hook
aggregates (``stats[name] = [count, total_s, child_s]``) and counters.  A
metric whose hook target was missing, or whose layer this workload never
called, is reported as absent rather than as a number.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

Merged = dict
Value = Optional[float]


def _count(name: str) -> Callable[[Merged], Value]:
    return lambda m: m["stats"][name][0] if name in m["stats"] else None


def _total(name: str) -> Callable[[Merged], Value]:
    return lambda m: m["stats"][name][1] if name in m["stats"] else None


def _self(name: str) -> Callable[[Merged], Value]:
    return lambda m: (m["stats"][name][1] - m["stats"][name][2]) if name in m["stats"] else None


def _extra(name: str, hook: str) -> Callable[[Merged], Value]:
    return lambda m: m["extra"].get(name, 0.0) if hook in m["stats"] else None


def _ratio(top: Callable[[Merged], Value], bottom: Callable[[Merged], Value],
           scale: float = 1.0) -> Callable[[Merged], Value]:
    def ratio(m: Merged) -> Value:
        numerator, denominator = top(m), bottom(m)
        if numerator is None or not denominator:
            return None
        return numerator / denominator * scale

    return ratio


def _latency_hit_ratio(m: Merged) -> Value:
    hits = m["extra"].get("topology.latency_hits")
    misses = m["extra"].get("topology.latency_misses")
    if hits is None or misses is None or hits + misses == 0:
        return None
    return hits / (hits + misses)


#: (metric, unit, layer, value function)
LAYER_METRICS: Tuple[Tuple[str, str, str, Callable[[Merged], Value]], ...] = (
    ("sim.events", "count", "sim", _extra("sim.events", "sim.run")),
    ("sim.self_s", "s", "sim", _self("sim.run")),
    ("sim.us_per_event", "us", "sim", _ratio(_self("sim.run"), _extra("sim.events", "sim.run"), 1e6)),
    ("workload.trace_s", "s", "workload", _total("workload.trace")),
    ("workload.queries", "count", "workload", _extra("workload.queries", "workload.trace")),
    ("topology.build_s", "s", "network.topology", _total("topology.build")),
    ("topology.latency_calls", "count", "network.topology", _count("topology.latency")),
    ("topology.latency_s", "s", "network.topology", _total("topology.latency")),
    ("topology.latency_hit_ratio", "ratio", "network.topology", _latency_hit_ratio),
    ("system.bootstrap_calls", "count", "core.system", _count("system.bootstrap")),
    ("system.bootstrap_s", "s", "core.system", _total("system.bootstrap")),
    ("query.calls", "count", "core.system", _count("query")),
    ("query.self_s", "s", "core.system", _self("query")),
    ("query.us_per_query", "us", "core.system", _ratio(_total("query"), _count("query"), 1e6)),
    ("probe.calls", "count", "core.content_peer", _count("probe")),
    ("probe.s", "s", "core.content_peer", _total("probe")),
    ("probe.match_ratio", "ratio", "core.content_peer",
     _ratio(_extra("probe.matches", "probe"), _count("probe"))),
    ("view.age_calls", "count", "core.content_peer", _count("view.age")),
    ("view.age_s", "s", "core.content_peer", _total("view.age")),
    ("gossip.ticks", "count", "core.content_peer", _count("gossip")),
    ("gossip.self_s", "s", "core.content_peer", _self("gossip")),
    ("gossip.build_s", "s", "core.content_peer", _total("gossip.build")),
    ("gossip.handle_s", "s", "core.content_peer", _total("gossip.handle")),
    ("gossip.apply_s", "s", "core.content_peer", _total("gossip.apply")),
    ("push.calls", "count", "core.system", _count("push")),
    ("push.s", "s", "core.system", _total("push")),
    ("keepalive.ticks", "count", "core.system", _count("keepalive")),
    ("keepalive.s", "s", "core.system", _total("keepalive")),
    ("directory.ticks", "count", "core.directory_peer", _count("directory.tick")),
    ("directory.tick_s", "s", "core.directory_peer", _total("directory.tick")),
    ("directory.process_query_calls", "count", "core.directory_peer",
     _count("directory.process_query")),
    ("directory.process_query_s", "s", "core.directory_peer", _total("directory.process_query")),
    ("directory.summary_publishes", "count", "core.directory_peer",
     _count("directory.summary_publish")),
    ("dring.route_calls", "count", "core.dring", _count("dring.route")),
    ("dring.route_s", "s", "core.dring", _total("dring.route")),
    ("dring.hops_mean", "hops", "core.dring",
     _ratio(_extra("dring.hops", "dring.route"), _count("dring.route"))),
    ("chord.route_calls", "count", "overlay", _count("chord.route")),
    ("chord.route_s", "s", "overlay", _total("chord.route")),
    ("squirrel.query_calls", "count", "baselines.squirrel", _count("squirrel.query")),
    ("squirrel.query_s", "s", "baselines.squirrel", _total("squirrel.query")),
    ("reachability.checks", "count", "network.reachability", _count("reachability")),
    ("reachability.s", "s", "network.reachability", _total("reachability")),
    ("reachability.blocked_ratio", "ratio", "network.reachability",
     _ratio(_extra("reachability.blocked", "reachability"), _count("reachability"))),
    ("churn.ticks", "count", "core.churn", _count("churn")),
    ("churn.s", "s", "core.churn", _total("churn")),
    ("fault.events", "count", "scenarios.models", _count("fault")),
    ("fault.s", "s", "scenarios.models", _total("fault")),
    ("metrics.record_calls", "count", "metrics", _count("metrics.record")),
    ("metrics.record_s", "s", "metrics", _total("metrics.record")),
    ("bandwidth.record_calls", "count", "metrics", _count("bandwidth.record")),
    ("bandwidth.record_s", "s", "metrics", _total("bandwidth.record")),
    ("metrics.fold_calls", "count", "metrics", _count("metrics.fold")),
    ("metrics.fold_s", "s", "metrics", _total("metrics.fold")),
    ("metrics.finalise_s", "s", "metrics", _total("metrics.finalise")),
    ("summary.s", "s", "scenarios", _total("summary")),
    ("bundle.s", "s", "scenarios", _total("bundle")),
    ("bundle.bytes", "bytes", "scenarios", _extra("bundle.bytes", "bundle")),
)

#: metrics the harness observes itself rather than through hooks
OBSERVED_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("shard.setup_s_max", "s", "sim.sharded"),
    ("shard.critical_path_s", "s", "sim.sharded"),
    ("shard.dispatch_s_total", "s", "sim.sharded"),
    ("shard.windows", "count", "sim.sharded"),
    ("shard.imbalance", "ratio", "sim.sharded"),
    ("service.queue_wait_ms", "ms", "service"),
    ("service.exec_ms", "ms", "service"),
    ("service.handle_ms", "ms", "service"),
    ("store.hit_ratio", "ratio", "service"),
    ("store.bytes", "bytes", "service"),
    ("service.worker_utilisation", "ratio", "service"),
    ("tracing.overhead_s", "s", "benchmark"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in LAYER_METRICS}
UNITS.update({name: unit for name, unit, _ in OBSERVED_METRICS})


def layer_metrics(merged: Merged, observed: Dict[str, float],
                  absent_hooks: Dict[str, str]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """``(values, absent)``: every per-layer metric, or the reason it is absent."""
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    hooks_note = " or its hook target is missing" if absent_hooks else ""
    for name, _unit, layer, compute in LAYER_METRICS:
        value = compute(merged)
        if value is None:
            absent[name] = f"layer {layer} not exercised by this workload{hooks_note}"
        else:
            values[name] = float(value)
    for name, _unit, layer in OBSERVED_METRICS:
        if name in observed:
            values[name] = float(observed[name])
        else:
            absent[name] = f"layer {layer} not exercised by this workload"
    return values, absent


def handle_routes(merged: Merged) -> List[Tuple[str, int, float]]:
    """``(route, calls, mean_ms)`` of every ``service.handle`` route seen."""
    routes = []
    for name, (count, total, _child) in sorted(merged["stats"].items()):
        if name.startswith("service.handle ") and count:
            routes.append((name[len("service.handle "):], int(count), total / count * 1e3))
    return routes
