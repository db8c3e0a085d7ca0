"""Output correctness: every run's digest is checked before it counts.

* structure: a digest names its scenario and seed, every system handled
  queries, and every hit ratio lies in [0, 1];
* ``standard-tier``: each digest equals its committed golden
  (``tests/goldens/``) exactly;
* ``paper-scale`` / ``paper-scale-sharded``: at the default seed the digest
  equals ``refs/paper-scale.json`` (one reference for both, so sharded =
  single-process is checked on every run); at any seed, repeated runs of one
  seed give one digest;
* ``service``: a cached result is byte-equal to the cold result of the same
  request, and at the default seed the cold results equal ``refs/service.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

REFS = Path(__file__).resolve().parents[1] / "refs"
DEFAULT_SEED = 42


def canonical(document: object) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def num_queries(digest: dict) -> int:
    """Queries handled by every system of the run (each replays the trace)."""
    return sum(int(system["metrics"]["num_queries"]) for system in digest["systems"].values())


def hit_ratio(digest: dict) -> float:
    """Hit ratio of the run's first system (Flower-CDN in every library scenario)."""
    first = next(iter(digest["systems"].values()))
    return float(first["metrics"]["hit_ratio"])


def digest_problems(digest: dict, expected: Optional[dict]) -> List[str]:
    """Why ``digest`` is wrong (empty when it is right)."""
    problems = []
    if not digest.get("scenario") or "seed" not in digest:
        problems.append("digest lacks scenario or seed")
    systems = digest.get("systems") or {}
    if not systems:
        problems.append("digest has no systems")
    for name, system in systems.items():
        metrics = system.get("metrics", {})
        if int(metrics.get("num_queries", 0)) <= 0:
            problems.append(f"{name} handled no queries")
        if not 0.0 <= float(metrics.get("hit_ratio", -1.0)) <= 1.0:
            problems.append(f"{name} hit ratio {metrics.get('hit_ratio')} outside [0, 1]")
    if expected is not None and canonical(digest) != canonical(expected):
        from repro.scenarios.golden import compare_digests

        differences = compare_digests(expected, digest) or ["digests differ"]
        problems.append("differs from reference: " + "; ".join(differences[:3]))
    return problems


def golden(name: str) -> dict:
    """The committed golden digest of standard-tier scenario ``name``."""
    from repro.scenarios.golden import load_golden

    return load_golden(name)


def paper_scale_reference(seed: int, hours: float) -> Optional[dict]:
    """The committed paper-scale digest, when ``seed`` is the one it pins."""
    reference = json.loads((REFS / "paper-scale.json").read_text(encoding="utf-8"))
    if seed != reference["seed"] or hours != reference["hours"]:
        return None
    return reference["digest"]


def require_identical(outcome, what: str) -> None:
    """Fail the outcome once if its runs' digest fingerprints disagree."""
    if len(set(outcome.fingerprints)) > 1:
        outcome.fail(f"{what} gave {len(set(outcome.fingerprints))} different digests")


def service_problems(seed: int, bodies: Dict[str, str], scale: float) -> List[str]:
    """Checks of the service's cold result bodies (keyed ``scenario@seed@scale``)."""
    problems = []
    for key, body in bodies.items():
        scenario, run_seed, _ = key.split("@")
        digest = json.loads(body)
        if digest.get("scenario") != scenario or digest.get("seed") != int(run_seed):
            problems.append(f"{key}: result names {digest.get('scenario')}@{digest.get('seed')}")
        problems.extend(f"{key}: {problem}" for problem in digest_problems(digest, None))
    reference = json.loads((REFS / "service.json").read_text(encoding="utf-8"))
    if seed == reference["seed"]:
        for key, body in bodies.items():
            if reference["results"].get(key) != sha256(body):
                problems.append(f"{key}: result differs from refs/service.json")
    return problems
