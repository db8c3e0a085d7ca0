"""Regenerate the committed reference digests in ``perfbench/refs/``.

Run from the repository root after an intentional behaviour change (the
same commit refreshes ``tests/goldens/``)::

    python3 perfbench/update_refs.py

The references are produced through the CLI path (``Session`` + the bundle
writer), so the service check at the default seed also pins service = CLI.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import checks, workloads  # noqa: E402


def bundle_digest(spec, seed: int, scale: float) -> str:
    from repro.scenarios.artifacts import DIGEST_FILENAME, export_run_bundle
    from repro.session import Session

    result = Session.from_spec(spec, seed=seed).run()
    with tempfile.TemporaryDirectory(dir=HERE) as directory:
        export_run_bundle(result, Path(directory), scale=scale)
        return (Path(directory) / DIGEST_FILENAME).read_text(encoding="utf-8")


def main() -> int:
    from repro.scenarios.library import get_scenario

    seed = checks.DEFAULT_SEED
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    digest = bundle_digest(workloads.paper_scale_spec(), seed, 1.0)
    (refs / "paper-scale.json").write_text(checks.canonical({
        "seed": seed,
        "hours": workloads.PAPER_SCALE_HOURS,
        "digest": json.loads(digest),
    }), encoding="utf-8")
    cold, _ = workloads.service_requests(seed, workloads.SERVICE_SIZE)
    results = {}
    for request in cold:
        spec = get_scenario(request["scenario"]).scaled(request["scale"])
        text = bundle_digest(spec, request["seed"], request["scale"])
        results[workloads.request_key(request)] = checks.sha256(text)
    (refs / "service.json").write_text(checks.canonical({
        "seed": seed,
        "results": results,
    }), encoding="utf-8")
    print(f"wrote {refs / 'paper-scale.json'} and {refs / 'service.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
