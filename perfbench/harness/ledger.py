"""The traced per-layer ledger: hooks, aggregates and boundary spans.

A traced run installs wrappers around calls into each layer of the program
(:data:`HOOKS`) and around the event callbacks the layers hand to the
simulator (:data:`EVENT_BUCKETS`).  Per call the wrappers update in-memory
``[count, total_s, child_s]`` aggregates, so self time is a span's duration
minus the time its wrapped children covered, and a run of a million events
stays small.  Full spans (name, start, end, parent, run id) are kept only at
run, phase and job boundaries.

Work that happens in forked processes (shard workers, service jobs, the
benchmark's own per-run children) writes its ledger to a spool directory
when it ends; the benchmark process merges the spool files.

A hook whose target is missing -- a renamed module, class, method or a
changed signature -- is skipped at install time and its layer is reported
as absent; it never fails the run.  :func:`uninstall` restores every
patched attribute exactly (see the self-tests).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter


class Ledger:
    """Aggregates and boundary spans of the current process."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.extra: Dict[str, float] = {}
        self.spans: List[dict] = []
        self.topologies: List[object] = []
        self._stack: List[List[float]] = []
        self._span_stack: List[str] = []
        self.run_id = ""
        #: the process that owns the current run; work in any other process
        #: is a forked unit that spools its own ledger
        self.owner = os.getpid()
        self.spool_dir: Optional[Path] = None
        self._seq = 0

    def reset(self) -> None:
        """Drop everything recorded so far (containers are cleared in place,
        because the installed wrappers hold references to them)."""
        self.stats.clear()
        self.extra.clear()
        del self.spans[:]
        del self.topologies[:]
        del self._stack[:]
        del self._span_stack[:]

    def begin(self, run_id: str) -> None:
        """Start recording run ``run_id`` in this process, which owns it."""
        self.reset()
        self.run_id = run_id
        self.owner = os.getpid()

    def add(self, name: str, value: float = 1.0) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + value

    def record(self, name: str, start: float, end: float, child_s: float) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += child_s

    def open_span(self, name: str) -> Tuple[str, Optional[str], float]:
        self._seq += 1
        span_id = f"{os.getpid()}:{self._seq}"
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(span_id)
        return span_id, parent, clock()

    def close_span(self, name: str, opened: Tuple[str, Optional[str], float],
                   end: Optional[float] = None) -> None:
        span_id, parent, start = opened
        if self._span_stack and self._span_stack[-1] == span_id:
            self._span_stack.pop()
        self.spans.append(
            {
                "name": name,
                "id": span_id,
                "parent": parent,
                "run": self.run_id,
                "start": start,
                "end": clock() if end is None else end,
            }
        )

    def snapshot(self) -> dict:
        """This process's ledger as a JSON document (topology memos read now)."""
        hits = misses = 0
        for topology in self.topologies:
            info = topology.latency_cache_info()  # type: ignore[attr-defined]
            hits += int(info.get("hits", 0))
            misses += int(info.get("misses", 0))
        extra = dict(self.extra)
        if self.topologies:
            extra["topology.latency_hits"] = extra.get("topology.latency_hits", 0) + hits
            extra["topology.latency_misses"] = (
                extra.get("topology.latency_misses", 0) + misses
            )
        return {"stats": dict(self.stats), "extra": extra, "spans": list(self.spans)}

    def spool(self) -> None:
        """Write this process's ledger into the spool directory (if one is set)."""
        if self.spool_dir is None:
            return
        self._seq += 1
        path = self.spool_dir / f"{os.getpid()}-{self._seq}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        tmp.replace(path)


LEDGER = Ledger()


def merge(documents: List[dict]) -> dict:
    """Sum ledger snapshots (stats and counters add, spans concatenate)."""
    stats: Dict[str, List[float]] = {}
    extra: Dict[str, float] = {}
    spans: List[dict] = []
    for document in documents:
        for name, (count, total, child) in document.get("stats", {}).items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += child
        for name, value in document.get("extra", {}).items():
            extra[name] = extra.get(name, 0.0) + value
        spans.extend(document.get("spans", ()))
    return {"stats": stats, "extra": extra, "spans": spans}


def collect_spool(spool_dir: Path) -> List[dict]:
    """Read and delete every ledger file in ``spool_dir``."""
    documents = []
    for path in sorted(spool_dir.glob("*.json")):
        documents.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    return documents


# -- wrappers -----------------------------------------------------------------

After = Callable[[Ledger, tuple, object, object], None]
Before = Callable[[tuple], object]


def timed(
    name: str,
    fn: Callable,
    before: Optional[Before] = None,
    after: Optional[After] = None,
    span: bool = False,
    nest: bool = True,
) -> Callable:
    """``fn`` wrapped to add its duration to aggregate ``name``.

    ``before(args)`` runs untimed ahead of the call and its value reaches
    ``after(ledger, args, result, token)``, which runs untimed after a call
    that returned.  ``span=True`` additionally records a full span.
    ``nest=False`` keeps the call out of the self-time stack, for calls made
    concurrently from several threads (the service's request handlers).
    """
    ledger = LEDGER
    if not nest:

        @functools.wraps(fn)
        def flat(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.record(name, start, clock(), 0.0)

        return flat
    stack = ledger._stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        opened = ledger.open_span(name) if span else None
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            if stack and stack[-1] is frame:
                stack.pop()
            ledger.record(name, start, end, frame[0])
            if stack:
                stack[-1][0] += end - start
            if opened is not None:
                ledger.close_span(name, opened)
        if after is not None:
            after(ledger, args, result, token)
        return result

    return wrapper


def isolated_unit(name: str, fn: Callable) -> Callable:
    """``fn`` run as one spooled unit of work when it runs in a forked process.

    Used for the program's own fan-out points (shard workers, service job
    processes): in a child the inherited aggregates are reset first and the
    child's ledger is spooled when the unit ends; inline it is a plain span.
    """
    inner = timed(name, fn, span=True)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() == LEDGER.owner:
            return inner(*args, **kwargs)
        LEDGER.reset()
        try:
            return inner(*args, **kwargs)
        finally:
            LEDGER.spool()

    return wrapper


#: simulator event labels (prefix match) -> aggregate name of their callbacks
EVENT_BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("gossip:", "gossip"),
    ("keepalive:", "keepalive"),
    ("dir-tick:", "directory.tick"),
    ("query", "query.event"),
    ("fault", "fault"),
    ("churn", "churn"),
    ("burst-churn", "churn"),
)


def _bucket(label: object) -> Optional[str]:
    if not isinstance(label, str):
        return None
    for prefix, name in EVENT_BUCKETS:
        if label.startswith(prefix):
            return name
    return None


def _event_callback(original: Callable, callback_index: int, label_index: int,
                    label_default: str, only: Optional[str] = None) -> Callable:
    """Wrap a scheduling method so the callback it is handed is timed by label."""

    @functools.wraps(original)
    def schedule(*args, **kwargs):
        label = kwargs.get("label", args[label_index] if len(args) > label_index else label_default)
        bucket = _bucket(label)
        if bucket is not None and (only is None or bucket == only):
            if "callback" in kwargs:
                kwargs["callback"] = timed(bucket, kwargs["callback"])
            elif len(args) > callback_index:
                args = args[:callback_index] + (timed(bucket, args[callback_index]),) + args[callback_index + 1:]
        return original(*args, **kwargs)

    return schedule


class _TimedAttribute:
    """A timed stand-in for a callable stored on an instance.

    It pickles as the callable it wraps, so objects that cross a process
    boundary (shard outcomes carry their metrics collectors) arrive
    unwrapped."""

    __slots__ = ("_fn", "_timed")

    def __init__(self, name: str, fn: Callable) -> None:
        self._fn = fn
        self._timed = timed(name, fn)

    def __call__(self, *args, **kwargs):
        return self._timed(*args, **kwargs)

    def __reduce_ex__(self, protocol):
        return self._fn.__reduce_ex__(protocol)


def _instance_record(original: Callable) -> Callable:
    """``MetricsCollector.__init__`` wrapped so that the per-instance ``record``
    of retained mode (a bare list append bound in ``__init__``) is timed too."""

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        bound = self.__dict__.get("record")
        if bound is not None:
            self.record = _TimedAttribute("metrics.record", bound)

    return init


# -- result inspectors ----------------------------------------------------------


def _count_events_before(args: tuple) -> object:
    return getattr(args[0], "events_fired", 0)


def _count_events_after(ledger: Ledger, args: tuple, result: object, before: object) -> None:
    ledger.add("sim.events", getattr(args[0], "events_fired", 0) - before)  # type: ignore[operator]


def _keep_topology(ledger: Ledger, args: tuple, result: object, token: object) -> None:
    ledger.topologies.append(args[0])


def _count_queries(ledger: Ledger, args: tuple, result: object, token: object) -> None:
    ledger.add("workload.queries", len(result))  # type: ignore[arg-type]


def _count_matches(ledger: Ledger, args: tuple, result: object, token: object) -> None:
    if result:
        ledger.add("probe.matches")


def _count_blocked(ledger: Ledger, args: tuple, result: object, token: object) -> None:
    if not result:
        ledger.add("reachability.blocked")


def _count_hops(ledger: Ledger, args: tuple, result: object, token: object) -> None:
    ledger.add("dring.hops", getattr(result, "hops", 0))


def _count_bytes(ledger: Ledger, args: tuple, result: object, token: object) -> None:
    ledger.add("bundle.bytes", sum(len(text.encode("utf-8")) for text in result.values()))  # type: ignore[attr-defined]


_RUN_IDS = re.compile(r"/runs/[0-9a-f]{16,64}")


def _service_handle(original: Callable) -> Callable:
    """``ReproService.handle`` timed per route (``service.handle GET /runs/{id}``)."""

    @functools.wraps(original)
    def handle(self, method, path, *args, **kwargs):
        route = _RUN_IDS.sub("/runs/{id}", path)
        return timed(f"service.handle {method} {route}", original, nest=False)(
            self, method, path, *args, **kwargs
        )

    return handle


# -- the hook table -------------------------------------------------------------

#: (aggregate name, module, attribute path, wrapper factory).  The factory
#: receives the original attribute and returns its replacement.
HookSpec = Tuple[str, str, str, Callable[[Callable], Callable]]


def _t(name: str, **options) -> Callable[[Callable], Callable]:
    return lambda fn: timed(name, fn, **options)


HOOKS: Tuple[HookSpec, ...] = (
    ("sim.run", "repro.sim.engine", "Simulator.run",
     _t("sim.run", before=_count_events_before, after=_count_events_after, span=True)),
    ("event.periodic", "repro.sim.engine", "Simulator.call_every",
     lambda fn: _event_callback(fn, 2, 4, "")),
    ("event.trace", "repro.sim.engine", "Simulator.schedule_trace",
     lambda fn: _event_callback(fn, 2, 3, "trace")),
    ("event.fault", "repro.sim.engine", "Simulator.at",
     lambda fn: _event_callback(fn, 2, 3, "", only="fault")),
    ("topology.build", "repro.network.topology", "Topology.__init__",
     _t("topology.build", after=_keep_topology)),
    ("topology.latency", "repro.network.topology", "Topology.latency_ms",
     _t("topology.latency")),
    ("workload.trace", "repro.workload.assignment", "ClientAssigner.assign_trace",
     _t("workload.trace", after=_count_queries)),
    ("system.bootstrap", "repro.core.system", "FlowerCDN.bootstrap",
     _t("system.bootstrap")),
    ("query", "repro.core.system", "FlowerCDN.handle_query", _t("query")),
    ("probe", "repro.core.content_peer", "ContentPeer.resolve_locally",
     _t("probe", after=_count_matches)),
    ("view.age", "repro.core.content_peer", "ContentPeer.increment_ages",
     _t("view.age")),
    ("gossip.build", "repro.core.content_peer", "ContentPeer.build_gossip_message",
     _t("gossip.build")),
    ("gossip.handle", "repro.core.content_peer", "ContentPeer.handle_gossip",
     _t("gossip.handle")),
    ("gossip.apply", "repro.core.content_peer", "ContentPeer.apply_gossip",
     _t("gossip.apply")),
    ("push", "repro.core.system", "FlowerCDN._maybe_push", _t("push")),
    ("directory.process_query", "repro.core.directory_peer", "DirectoryPeer.process_query",
     _t("directory.process_query")),
    ("directory.summary_publish", "repro.core.directory_peer", "DirectoryPeer.publish_summary",
     _t("directory.summary_publish")),
    ("dring.route", "repro.core.dring", "DRing.route_query",
     _t("dring.route", after=_count_hops)),
    ("chord.route", "repro.overlay.chord", "ChordRing.ideal_route",
     _t("chord.route")),
    ("squirrel.query", "repro.baselines.squirrel", "Squirrel.handle_query",
     _t("squirrel.query")),
    ("reachability", "repro.core.system", "FlowerCDN._delivery_allowed",
     _t("reachability", after=_count_blocked)),
    ("metrics.record", "repro.metrics.collectors", "MetricsCollector.record",
     _t("metrics.record")),
    ("metrics.record", "repro.metrics.collectors", "MetricsCollector.__init__",
     _instance_record),
    ("bandwidth.record", "repro.metrics.collectors", "BandwidthAccountant.record_message",
     _t("bandwidth.record")),
    ("metrics.fold", "repro.metrics.collectors", "MetricsCollector._sync",
     _t("metrics.fold")),
    ("metrics.finalise", "repro.metrics.collectors", "MetricsCollector.hit_ratio_series",
     _t("metrics.finalise")),
    ("metrics.finalise", "repro.metrics.collectors", "MetricsCollector.lookup_latency_series",
     _t("metrics.finalise")),
    ("metrics.finalise", "repro.metrics.collectors", "MetricsCollector.transfer_distance_series",
     _t("metrics.finalise")),
    ("summary", "repro.scenarios.runner", "summarise_system",
     _t("summary", span=True)),
    ("bundle", "repro.scenarios.artifacts", "run_documents",
     _t("bundle", after=_count_bytes, span=True)),
    ("shard.run", "repro.sim.sharded", "_run_shard",
     lambda fn: isolated_unit("shard.run", fn)),
    ("service.job", "repro.service.jobs", "execute_request",
     lambda fn: isolated_unit("service.job", fn)),
    ("service.handle", "repro.service.server", "ReproService.handle",
     _service_handle),
)

#: parameter names a scheduling hook relies on (checked at install time)
_SIGNATURES = {
    "Simulator.call_every": ("self", "period", "callback", "start", "label"),
    "Simulator.schedule_trace": ("self", "times", "callback", "label"),
    "Simulator.at": ("self", "time", "callback", "label"),
}

#: (owner, attribute, original or _MISSING) of every installed patch
_PATCHES: List[Tuple[object, str, object]] = []
_MISSING = object()


def installed() -> bool:
    return bool(_PATCHES)


def _resolve(module_name: str, path: str) -> Tuple[object, str, object]:
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def _check_signature(path: str, original: object) -> None:
    expected = _SIGNATURES.get(path)
    if expected is None:
        return
    names = tuple(inspect.signature(original).parameters)  # type: ignore[arg-type]
    if names[: len(expected)] != expected:
        raise TypeError(f"{path} signature changed: {names}")


def install(spool_dir: Optional[Path] = None) -> Dict[str, str]:
    """Install every hook that resolves; returns ``{hook: reason}`` of the absent ones."""
    if _PATCHES:
        raise RuntimeError("ledger hooks are already installed")
    LEDGER.spool_dir = spool_dir
    LEDGER.begin("")
    absent: Dict[str, str] = {}
    for name, module_name, path, factory in HOOKS:
        try:
            owner, attribute, original = _resolve(module_name, path)
            _check_signature(path, original)
        except (ImportError, AttributeError, TypeError, ValueError) as error:
            absent[f"{name} ({module_name}.{path})"] = str(error) or type(error).__name__
            continue
        if isinstance(original, property):
            replacement = property(factory(original.fget), original.fset, original.fdel,
                                   original.__doc__)
        else:
            replacement = factory(original)
        if isinstance(owner, type):
            previous = owner.__dict__.get(attribute, _MISSING)
            setattr(owner, attribute, replacement)
            _PATCHES.append((owner, attribute, previous))
        else:
            # A module-level function: patch every loaded repro module that
            # imported it by name, so call sites see the wrapper too.
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attribute) is original
                ):
                    setattr(module, attribute, replacement)
                    _PATCHES.append((module, attribute, original))
    return absent


def uninstall() -> None:
    """Restore every patched attribute exactly as it was before :func:`install`."""
    while _PATCHES:
        owner, attribute, previous = _PATCHES.pop()
        if previous is _MISSING:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, previous)
    LEDGER.spool_dir = None
