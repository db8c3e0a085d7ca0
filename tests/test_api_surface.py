"""API-surface snapshot: fails when the public API changes unintentionally.

The committed snapshot (``tests/api_surface.json``) records the public
symbols of :mod:`repro.session`, :mod:`repro.scenarios` and
:mod:`repro.core`, the field names of :class:`ScenarioSpec` /
:class:`WorkloadPhase`, the public methods of :class:`Session` and the
parameters of its constructors, and the built-in model registries.  Removing or renaming
any of these is a breaking change for downstream users and must be done
deliberately — by updating the snapshot in the same commit::

    python tests/test_api_surface.py --update

Adding new symbols also updates the snapshot (additions are still recorded
so the diff is reviewable, but they are expected to be backwards
compatible).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from pathlib import Path

SNAPSHOT_PATH = Path(__file__).parent / "api_surface.json"


def current_surface() -> dict:
    import repro.analysis
    import repro.core
    import repro.scenarios
    import repro.service
    import repro.session
    import repro.sweeps
    from repro.analysis import rule_ids
    from repro.scenarios.models import churn_model_names, fault_model_names
    from repro.scenarios.program import WorkloadPhase
    from repro.scenarios.spec import ScenarioSpec
    from repro.session import Session
    from repro.sweeps.library import sweep_names
    from repro.sweeps.spec import SweepAxis, SweepSpec

    def public_methods(cls) -> list:
        return sorted(name for name in vars(cls) if not name.startswith("_"))

    return {
        "repro.session": sorted(repro.session.__all__),
        "repro.scenarios": sorted(repro.scenarios.__all__),
        "repro.sweeps": sorted(repro.sweeps.__all__),
        "Session": public_methods(Session),
        "Session.parameters": sorted(
            f"{method}({name})"
            for method in ("__init__", "from_spec", "from_name")
            for name in inspect.signature(getattr(Session, method)).parameters
            if name not in ("self", "cls")
        ),
        "repro.core": sorted(repro.core.__all__),
        "ScenarioSpec.fields": sorted(
            field.name for field in dataclasses.fields(ScenarioSpec)
        ),
        "WorkloadPhase.fields": sorted(
            field.name for field in dataclasses.fields(WorkloadPhase)
        ),
        "SweepSpec.fields": sorted(
            field.name for field in dataclasses.fields(SweepSpec)
        ),
        "SweepAxis.fields": sorted(
            field.name for field in dataclasses.fields(SweepAxis)
        ),
        "churn_models": churn_model_names(),
        "fault_models": fault_model_names(),
        "sweeps": sweep_names(),
        "repro.analysis": sorted(repro.analysis.__all__),
        "analysis_rules": sorted(rule_ids()),
        "repro.service": sorted(repro.service.__all__),
    }


def test_api_surface_matches_the_committed_snapshot():
    assert SNAPSHOT_PATH.exists(), (
        f"no committed API snapshot at {SNAPSHOT_PATH}; create it with "
        f"`python tests/test_api_surface.py --update`"
    )
    committed = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    fresh = current_surface()
    problems = []
    for section in sorted(set(committed) | set(fresh)):
        before = set(committed.get(section, ()))
        after = set(fresh.get(section, ()))
        removed = before - after
        added = after - before
        if removed:
            problems.append(f"{section}: removed {sorted(removed)} (BREAKING)")
        if added:
            problems.append(f"{section}: added {sorted(added)} (update the snapshot)")
    assert not problems, (
        "public API surface changed:\n  "
        + "\n  ".join(problems)
        + "\nIf intentional, refresh with `python tests/test_api_surface.py --update`."
    )


if __name__ == "__main__":
    src = Path(__file__).resolve().parents[1] / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if "--update" in sys.argv:
        SNAPSHOT_PATH.write_text(
            json.dumps(current_surface(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"updated {SNAPSHOT_PATH}")
    else:
        print(json.dumps(current_surface(), indent=2, sort_keys=True))
