"""The four benchmark workloads: inputs from a seed, runs, checks and metrics.

Simulation workloads run every session in a forked child
(:func:`harness.isolate.run_forked`): spec -> ``Session.from_spec`` ->
``Session.run`` -> ``export_run_bundle``, then the bundle's digest is read
back and checked.  The service workload drives an in-process
``ReproService`` over HTTP from a closed loop of two client threads.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import json
import math
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import checks, ledger
from harness.isolate import ChildError, run_forked

clock = time.perf_counter

#: simulated hours of the paper-scale workloads (Table 1 otherwise unchanged)
PAPER_SCALE_HOURS = 2.0
#: setup-only probes per paper-scale run (setup_s is their median with the runs')
SETUP_PROBES = 4
#: shard count of paper-scale-sharded
SHARDS = 2

#: the service's cold request mix (run at SERVICE_SCALE with seed-drawn run seeds)
SERVICE_SCENARIOS = (
    "paper-default",
    "cold-start",
    "flash-crowd",
    "gossip-lossy",
    "cache-bounded-peers",
    "heavy-churn",
    "partition-heal-reconcile",
    "squirrel-head-to-head",
)
SERVICE_SCALE = 0.25
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: status poll interval of a client waiting for its run
POLL_S = 0.02
#: service instances booted per run (setup_s is the median boot)
SERVICE_BOOTS = 25
#: (cold, cached) requests: p90 of 100 and p99 of 1000 both leave 10 samples beyond
SERVICE_SIZE = (100, 1000)
#: the loop runs in rounds; throughput metrics are medians over rounds
SERVICE_ROUNDS = 5
#: reduced closed loop of traced runs (run twice: untraced, then traced)
SERVICE_TRACE_SIZE = (20, 200)
ARTIFACT_EVERY = 4
ARTIFACT_KINDS = ("json", "csv", "md")


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    end_to_end: Dict[str, float] = dataclasses.field(default_factory=dict)
    samples: Dict[str, int] = dataclasses.field(default_factory=dict)
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)
    runs: List[dict] = dataclasses.field(default_factory=list)
    observed: Dict[str, float] = dataclasses.field(default_factory=dict)
    fingerprints: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# -- inputs -------------------------------------------------------------------


def paper_scale_spec():
    """``paper-default-full-scale`` with its horizon cut to PAPER_SCALE_HOURS."""
    from repro.core.config import HOUR
    from repro.scenarios.library import get_scenario

    spec = get_scenario("paper-default-full-scale")
    return dataclasses.replace(spec, duration_s=PAPER_SCALE_HOURS * HOUR)


def standard_tier_order(seed: int, passes: int) -> List[List[str]]:
    """The scenario order of each standard-tier pass (a seeded shuffle)."""
    from repro.scenarios.library import scenario_names

    names = scenario_names(tier="standard")
    rng = random.Random(seed)
    order = []
    for _ in range(passes):
        shuffled = list(names)
        rng.shuffle(shuffled)
        order.append(shuffled)
    return order


def service_requests(seed: int, size: Tuple[int, int]) -> Tuple[List[dict], List[int]]:
    """``(cold requests, cached plan)``: distinct (scenario, seed) runs and the
    indices of the cold requests the cached phase resubmits, in order."""
    cold_count, cached_count = size
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 1_000_000), SERVICE_SIZE[0])
    cold = [
        {"scenario": SERVICE_SCENARIOS[index % len(SERVICE_SCENARIOS)],
         "seed": run_seed, "scale": SERVICE_SCALE}
        for index, run_seed in enumerate(seeds)
    ]
    rng.shuffle(cold)
    # Smaller sizes take a prefix, so every size shares one set of references.
    plan = [rng.randrange(cold_count) for _ in range(cached_count)]
    return cold[:cold_count], plan


def request_key(request: dict) -> str:
    return f"{request['scenario']}@{request['seed']}@{request['scale']:g}"


# -- one session in a forked child -------------------------------------------


def _cpu_s() -> float:
    """CPU seconds used by this process and its waited-for children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class _SetupDone(Exception):
    """Raised at the first Simulator.run of a setup-only probe."""


def _session_child(spec, seed: int, scale: float, shards: int, out_dir: Path,
                   setup_only: bool, traced: bool, run_id: str) -> Callable[[], dict]:
    def child() -> dict:
        from repro.scenarios.artifacts import DIGEST_FILENAME, export_run_bundle
        from repro.session import Session
        from repro.sim.engine import Simulator

        if traced:
            absent = ledger.install(spool_dir=out_dir / "spool")
            ledger.LEDGER.begin(run_id)
            opened = ledger.LEDGER.open_span("run")
            setup_span = ledger.LEDGER.open_span("setup")
        # The setup boundary: the first entry into Simulator.run.
        first_run: List[float] = []
        original_run = Simulator.run

        def run(self, *args, **kwargs):
            if not first_run:
                first_run.append(clock())
                if traced:
                    ledger.LEDGER.close_span("setup", setup_span, end=first_run[0])
                if setup_only:
                    raise _SetupDone()
            return original_run(self, *args, **kwargs)

        Simulator.run = run
        cpu_start = _cpu_s()
        start = clock()
        try:
            session = Session.from_spec(spec, seed=seed, shards=shards)
            result = session.run()
        except _SetupDone:
            return {"setup_s": first_run[0] - start}
        finally:
            Simulator.run = original_run
        bundle = out_dir / f"bundle-{run_id}"
        export_run_bundle(result, bundle, scale=scale)
        end = clock()
        cpu_s = _cpu_s() - cpu_start
        digest_text = (bundle / DIGEST_FILENAME).read_text(encoding="utf-8")
        shutil.rmtree(bundle, ignore_errors=True)
        stats = session.last_shard_stats
        document = {
            "wall_s": end - start,
            "cpu_s": cpu_s,
            "digest": digest_text,
            # Input size for the report only: absent run records count 0.
            "events": sum(
                getattr(getattr(system, "run", None), "events_fired", 0)
                for system in result.systems.values()
            ),
        }
        # Host seconds a run is charged: its CPU time on the single-process
        # path (steal time of a shared machine is not the program's cost),
        # its wall time when sharded (the parallel speed-up is the point).
        document["host_s"] = cpu_s if stats is None else end - start
        if stats is not None:
            document["setup_s"] = max(stats.setup_s_per_shard)
            document["shard"] = {
                "shard.setup_s_max": max(stats.setup_s_per_shard),
                "shard.critical_path_s": stats.critical_path_s,
                "shard.dispatch_s_total": sum(stats.dispatch_s_per_shard),
                "shard.windows": stats.num_windows,
                "shard.imbalance": stats.critical_path_s
                / (sum(stats.dispatch_s_per_shard) / len(stats.dispatch_s_per_shard)),
            }
        else:
            document["setup_s"] = first_run[0] - start
        if traced:
            ledger.LEDGER.close_span("run", opened)
            ledger.LEDGER.spool()
            ledger.uninstall()
            document["absent_hooks"] = absent
        return document

    return child


def run_session(outcome: Outcome, spec, seed: int, scale: float, shards: int,
                out_dir: Path, label: str, setup_only: bool = False,
                traced: bool = False) -> Optional[dict]:
    """One session in a forked child; a raised run counts as failed."""
    outcome.attempted += 1
    try:
        document = run_forked(_session_child(
            spec, seed, scale, shards, out_dir, setup_only, traced, label))
    except ChildError as error:
        outcome.fail(f"{label}: run raised: {str(error).strip().splitlines()[-1]}")
        return None
    document["label"] = label
    return document


def _record_run(outcome: Outcome, document: dict, expected: Optional[dict]) -> dict:
    """Check a finished run's digest and record its simulated statistics."""
    digest = json.loads(document["digest"])
    problems = checks.digest_problems(digest, expected)
    if problems:
        outcome.fail(f"{document['label']}: " + "; ".join(problems))
    sha = checks.sha256(document["digest"])
    outcome.fingerprints.append(sha)
    record = {
        "label": document["label"],
        "scenario": digest.get("scenario"),
        "seed": digest.get("seed"),
        "events_fired": document["events"],
        "num_queries": checks.num_queries(digest),
        "hit_ratio": checks.hit_ratio(digest),
        "digest_sha256": sha,
        "wall_s": document["wall_s"],
        "cpu_s": document["cpu_s"],
        "host_s": document["host_s"],
        "setup_s": document["setup_s"],
        "peak_rss_mb": document["peak_rss_mb"],
    }
    outcome.runs.append(record)
    return record


def _sim_metrics(outcome: Outcome, runs: List[dict], setups: List[float]) -> None:
    """End-to-end metrics of a simulation workload.

    Every scenario of the workload repeats (runs of one spec, or passes over
    the standard tier).  Each scenario is charged the median of its host
    times over the repetitions, which keeps a burst of machine noise from
    moving the result, and the rates divide one repetition's work by the
    sum of those medians."""
    by_scenario: Dict[str, List[dict]] = {}
    for run in runs:
        by_scenario.setdefault(run["scenario"], []).append(run)
    if not by_scenario or not setups:
        return
    host_s = sum(statistics.median(r["host_s"] for r in group) for group in by_scenario.values())
    queries = sum(group[0]["num_queries"] for group in by_scenario.values())
    events = sum(group[0]["events_fired"] for group in by_scenario.values())
    outcome.end_to_end.update({
        "queries_per_s": queries / host_s,
        "jobs_per_s": len(by_scenario) / host_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    })
    repetitions = min(len(group) for group in by_scenario.values())
    outcome.samples.update({"repetitions": repetitions, "runs": len(runs),
                            "setups": len(setups)})
    outcome.extra.update({"events_per_s": events / host_s, "events": events,
                          "queries": queries})


def _traced_pair(outcome: Outcome, untraced: List[dict], traced: List[dict]) -> None:
    """Record the untraced/traced halves of a traced run (walls and digests)."""
    def digests(documents: List[dict]) -> str:
        return "".join(d["digest"] for d in sorted(documents, key=lambda d: d["key"]))

    outcome.extra["untraced_wall_s"] = sum(d["wall_s"] for d in untraced)
    outcome.extra["traced_wall_s"] = sum(d["wall_s"] for d in traced)
    outcome.extra["untraced_digest"] = digests(untraced)
    outcome.extra["traced_digest"] = digests(traced)
    outcome.extra["absent_hooks"] = traced[0]["absent_hooks"] if traced else {}
    for document in traced:
        outcome.observed.update(document.get("shard", {}))


# -- the simulation workloads -------------------------------------------------


def paper_scale(seed: int, seconds: float, out_dir: Path, shards: int = 1,
                traced: bool = False) -> Outcome:
    """Repeated runs of the cut paper-scale spec (single process or sharded)."""
    outcome = Outcome()
    spec = paper_scale_spec()
    expected = checks.paper_scale_reference(seed, PAPER_SCALE_HOURS)
    name = "paper-scale" if shards == 1 else "paper-scale-sharded"

    def run(label: str, **options) -> Optional[dict]:
        document = run_session(outcome, spec, seed, 1.0, shards, out_dir, label, **options)
        if document is not None:
            document["key"] = name
        return document

    if traced:
        pair = [run(f"{name}-untraced"), run(f"{name}-traced", traced=True)]
        if None not in pair:
            _record_run(outcome, pair[0], expected)
            _traced_pair(outcome, pair[:1], pair[1:])
        checks.require_identical(outcome, "repeated runs of one seed")
        return outcome
    setups: List[float] = []
    probes = SETUP_PROBES if shards == 1 else 0
    started = clock()
    while True:
        document = run(f"{name}-{len(setups)}")
        if document is None:
            break
        _record_run(outcome, document, expected)
        setups.append(document["setup_s"])
        reserve = probes * document["setup_s"]
        if clock() - started + document["wall_s"] + reserve > seconds:
            break
    for probe in range(probes):
        document = run(f"{name}-setup{probe}", setup_only=True)
        if document is not None:
            setups.append(document["setup_s"])
    checks.require_identical(outcome, "repeated runs of one seed")
    _sim_metrics(outcome, outcome.runs, setups)
    return outcome


def standard_tier(seed: int, seconds: float, out_dir: Path, traced: bool = False) -> Outcome:
    """Passes over every standard-tier scenario at its golden scale and seed."""
    from repro.scenarios.golden import GOLDEN_SCALE, GOLDEN_SEED
    from repro.scenarios.library import get_scenario

    outcome = Outcome()
    setups: List[float] = []
    halves: List[List[dict]] = []
    started = clock()
    for pass_index, names in enumerate(standard_tier_order(seed, 2 if traced else 1_000)):
        trace_this = traced and pass_index == 1
        pass_start = clock()
        documents = []
        for name in names:
            label = f"{name}-pass{pass_index}{'-traced' if trace_this else ''}"
            document = run_session(outcome, get_scenario(name).scaled(GOLDEN_SCALE),
                                   GOLDEN_SEED, GOLDEN_SCALE, 1, out_dir, label,
                                   traced=trace_this)
            if document is not None:
                document["key"] = name
                documents.append(document)
        if traced:
            halves.append(documents)
            if not trace_this:
                for document in documents:
                    _record_run(outcome, document, checks.golden(document["key"]))
            continue
        for document in documents:
            _record_run(outcome, document, checks.golden(document["key"]))
        setups.append(sum(document["setup_s"] for document in documents))
        if clock() - started + (clock() - pass_start) > seconds:
            break
    if traced:
        _traced_pair(outcome, halves[0], halves[1])
    else:
        _sim_metrics(outcome, outcome.runs, setups)
    return outcome


# -- the service workload -----------------------------------------------------


class _Client:
    """An HTTP client of the service that opens one connection per request,
    as ``urllib.request.urlopen`` and command-line clients do."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Connection": "close"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()


def _boot(store_dir: Path):
    """Boot one service and wait until /healthz answers; ``(service, seconds)``."""
    from repro.service import ReproService, ServiceConfig

    start = clock()
    service = ReproService(ServiceConfig(
        port=0, workers=SERVICE_WORKERS, store_dir=store_dir, max_queue=64))
    service.start()
    client = _Client(service.port)
    while client.call("GET", "/healthz")[0] != 200:
        time.sleep(0.001)
    return service, clock() - start


def _closed_loop(items: List[Callable[[], None]], errors: List[str]) -> float:
    """Run ``items`` from SERVICE_CLIENTS client threads, each taking the next
    item only after its previous one completed; returns the wall time.  An
    item that raises is recorded in ``errors``."""
    lock = threading.Lock()
    pending = list(reversed(items))

    def client_loop() -> None:
        while True:
            with lock:
                if not pending:
                    return
                item = pending.pop()
            try:
                item()
            except Exception as error:  # a failed request, counted by the caller
                errors.append(f"request raised {type(error).__name__}: {error}")

    threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clock() - start


class _ServiceLoop:
    """The closed loop's requests, checks and measurements against one service."""

    def __init__(self, port: int, cold: List[dict]) -> None:
        self.client = _Client(port)
        self.cold = cold
        self.errors: List[str] = []
        self.cold_latency: List[float] = []
        self.cached_latency: List[float] = []
        self.bodies: Dict[int, bytes] = {}
        self.jobs: Dict[int, dict] = {}

    def _submit(self, request: dict) -> Tuple[int, dict]:
        status, body = self.client.call("POST", "/runs", request)
        return status, json.loads(body.decode("utf-8"))

    def cold_request(self, index: int) -> None:
        request, key = self.cold[index], request_key(self.cold[index])
        start = clock()
        status, answer = self._submit(request)
        if status != 202 or answer.get("cached"):
            self.errors.append(f"cold {key}: POST answered {status} {answer}")
            return
        location = answer["location"]
        while True:
            status, body = self.client.call("GET", location)
            document = json.loads(body.decode("utf-8"))
            if status != 200 or document.get("state") in ("done", "failed", "cancelled"):
                break
            time.sleep(POLL_S)
        if status != 200 or document.get("state") != "done":
            self.errors.append(f"cold {key}: job {status} {document.get('state')} "
                               f"{document.get('detail')}")
            return
        status, body = self.client.call("GET", location + "/result")
        end = clock()
        if status != 200:
            self.errors.append(f"cold {key}: result answered {status}")
            return
        self.cold_latency.append(end - start)
        self.bodies[index] = body
        self.jobs[index] = document

    def cached_request(self, position: int, index: int) -> None:
        request, key = self.cold[index], request_key(self.cold[index])
        if index not in self.bodies:
            self.errors.append(f"cached {key}: not sent, its cold run failed")
            return
        start = clock()
        status, answer = self._submit(request)
        if status != 200 or not answer.get("cached") or answer.get("state") != "done":
            self.errors.append(f"cached {key}: POST answered {status} {answer}")
            return
        status, body = self.client.call("GET", answer["location"] + "/result")
        end = clock()
        if status != 200:
            self.errors.append(f"cached {key}: result answered {status}")
            return
        self.cached_latency.append(end - start)
        if body != self.bodies.get(index):
            self.errors.append(f"cached {key}: body differs from the cold body")
        if position % ARTIFACT_EVERY == 0:
            kind = ARTIFACT_KINDS[(position // ARTIFACT_EVERY) % len(ARTIFACT_KINDS)]
            status, artifact = self.client.call(
                "GET", f"{answer['location']}/artifacts/{kind}")
            if status != 200 or not artifact:
                self.errors.append(f"artifact {kind} of {key}: answered {status}")


def _service_child(seed: int, size: Tuple[int, int], out_dir: Path, traced: bool,
                   run_id: str) -> Callable[[], dict]:
    def child() -> dict:
        absent: Dict[str, str] = {}
        if traced:
            absent = ledger.install(spool_dir=out_dir / "spool")
            ledger.LEDGER.begin(run_id)
        store_root = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
        boots = []
        for index in range(SERVICE_BOOTS - 1):
            service, seconds = _boot(store_root / f"boot{index}")
            boots.append(seconds)
            service.stop()
        service, seconds = _boot(store_root / "main")
        boots.append(seconds)
        cold, plan = service_requests(seed, size)
        loop = _ServiceLoop(service.port, cold)
        rounds = []
        try:
            for cold_indices, cached_indices in _rounds(len(cold), plan):
                cold_wall = _closed_loop(
                    [functools.partial(loop.cold_request, i) for i in cold_indices],
                    loop.errors)
                cached_wall = _closed_loop(
                    [functools.partial(loop.cached_request, p, i) for p, i in cached_indices],
                    loop.errors)
                rounds.append({"cold": cold_indices, "cold_wall_s": cold_wall,
                               "cached": len(cached_indices), "cached_wall_s": cached_wall})
            _, stats_body = loop.client.call("GET", "/stats")
        finally:
            service.stop()
            shutil.rmtree(store_root, ignore_errors=True)
        if traced:
            ledger.LEDGER.spool()
            ledger.uninstall()
        jobs = loop.jobs
        return {
            "boots": boots,
            "rounds": rounds,
            "cold_latency_s": loop.cold_latency,
            "cached_latency_s": loop.cached_latency,
            "errors": loop.errors,
            "bodies": {request_key(cold[i]): loop.bodies[i].decode("utf-8")
                       for i in sorted(loop.bodies)},
            "exec_s": [jobs[i]["finished_at"] - jobs[i]["started_at"] for i in jobs],
            "wait_s": [jobs[i]["started_at"] - jobs[i]["submitted_at"] for i in jobs],
            "stats": json.loads(stats_body.decode("utf-8")),
            "absent_hooks": absent,
        }

    return child


def _rounds(cold_count: int, plan: List[int]) -> List[Tuple[List[int], List[Tuple[int, int]]]]:
    """Split the loop into SERVICE_ROUNDS rounds of cold then cached requests.

    Round ``r`` resubmits only requests whose cold run finished in rounds
    ``0..r``, so every cached submission is a genuine store hit."""
    per_cold = cold_count // SERVICE_ROUNDS
    per_cached = len(plan) // SERVICE_ROUNDS
    rounds = []
    for r in range(SERVICE_ROUNDS):
        cold = list(range(r * per_cold, (r + 1) * per_cold))
        cached = [(p, plan[p] % ((r + 1) * per_cold))
                  for p in range(r * per_cached, (r + 1) * per_cached)]
        rounds.append((cold, cached))
    return rounds


def _percentile(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def service_end_to_end(document: dict, queries_by_key: Dict[str, int],
                       cold: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of one closed loop: medians over its rounds."""
    query_rates, job_rates = [], []
    for round_ in document["rounds"]:
        queries = sum(queries_by_key.get(request_key(cold[i]), 0) for i in round_["cold"])
        query_rates.append(queries / round_["cold_wall_s"])
        job_rates.append((len(round_["cold"]) + round_["cached"])
                         / (round_["cold_wall_s"] + round_["cached_wall_s"]))
    return {
        "queries_per_s": statistics.median(query_rates),
        "jobs_per_s": statistics.median(job_rates),
        "setup_s": statistics.median(document["boots"]),
        "peak_rss_mb": document["peak_rss_mb"],
    }


def service(seed: int, seconds: float, out_dir: Path, traced: bool = False) -> Outcome:
    """The closed loop against an in-process ReproService."""
    outcome = Outcome()
    size = SERVICE_TRACE_SIZE if traced else SERVICE_SIZE
    cold, plan = service_requests(seed, size)
    halves = []
    for trace_this in ([False, True] if traced else [False]):
        label = f"service{'-traced' if trace_this else ''}"
        outcome.attempted += len(cold) + len(plan) + len(plan[::ARTIFACT_EVERY])
        try:
            document = run_forked(_service_child(seed, size, out_dir, trace_this, label))
        except ChildError as error:
            outcome.fail(f"{label} raised: {str(error).strip().splitlines()[-1]}")
            return outcome
        for message in document["errors"]:
            outcome.fail(message)
        for problem in checks.service_problems(seed, document["bodies"], SERVICE_SCALE):
            outcome.fail(problem)
        if len(document["bodies"]) < len(cold):
            outcome.fail(f"{label}: {len(cold) - len(document['bodies'])} cold runs "
                         "produced no result")
            return outcome
        halves.append({
            "key": "service",
            "digest": json.dumps(document["bodies"], sort_keys=True),
            "wall_s": sum(r["cold_wall_s"] + r["cached_wall_s"] for r in document["rounds"]),
            "absent_hooks": document["absent_hooks"],
        })
        outcome.observed.update({
            "service.queue_wait_ms": statistics.fmean(document["wait_s"]) * 1e3,
            "service.exec_ms": statistics.fmean(document["exec_s"]) * 1e3,
            "store.hit_ratio": document["stats"]["cache"]["hit_ratio"],
            "store.bytes": document["stats"]["store"]["bytes"],
            "service.worker_utilisation": sum(document["exec_s"]) / (
                SERVICE_WORKERS * sum(r["cold_wall_s"] for r in document["rounds"])),
        })
        if trace_this:
            continue
        queries_by_key = {}
        for key, body in document["bodies"].items():
            digest = json.loads(body)
            queries_by_key[key] = checks.num_queries(digest)
            outcome.runs.append({
                "label": key,
                "scenario": digest.get("scenario"),
                "seed": digest.get("seed"),
                "num_queries": queries_by_key[key],
                "hit_ratio": checks.hit_ratio(digest),
                "digest_sha256": checks.sha256(body),
            })
        outcome.end_to_end.update(service_end_to_end(document, queries_by_key, cold))
        outcome.samples.update({
            "rounds": len(document["rounds"]), "boots": len(document["boots"]),
            "cold": len(document["cold_latency_s"]),
            "cached": len(document["cached_latency_s"]),
        })
        for name, values, q in (
            ("cold_latency_p50_ms", document["cold_latency_s"], 50),
            ("cold_latency_p90_ms", document["cold_latency_s"], 90),
            ("cached_latency_p50_ms", document["cached_latency_s"], 50),
            ("cached_latency_p99_ms", document["cached_latency_s"], 99),
        ):
            outcome.extra[name] = _percentile(values, q) * 1e3
    if traced:
        _traced_pair(outcome, halves[:1], halves[1:])
    return outcome
