"""Self-tests of the benchmark harness (run: ``python3 -m pytest perfbench/tests -q``)."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from harness import isolate, layers, ledger, workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _hook_attributes():
    """Every attribute a hook may patch, as it currently stands."""
    for _name, module_name, path, _factory in ledger.HOOKS:
        ledger._resolve(module_name, path)  # import every module first
    seen = {}
    for _name, module_name, path, _factory in ledger.HOOKS:
        owner, attribute, original = ledger._resolve(module_name, path)
        if isinstance(owner, type):
            seen[(owner, attribute)] = owner.__dict__.get(attribute)
        else:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and \
                        attribute in getattr(module, "__dict__", {}):
                    seen[(module, attribute)] = module.__dict__[attribute]
    return seen


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    from repro.scenarios.library import get_scenario

    before = _hook_attributes()
    (tmp_path / "spool").mkdir()
    spec = get_scenario("cold-start").scaled(0.25)
    child = workloads._session_child(spec, 42, 0.25, 1, tmp_path, setup_only=False,
                                     traced=True, run_id="self-test")
    document = child()
    assert document["absent_hooks"] == {}
    assert not ledger.installed()
    assert _hook_attributes() == before
    merged = ledger.merge(ledger.collect_spool(tmp_path / "spool"))
    assert merged["stats"]["sim.run"][0] >= 1
    assert merged["stats"]["query"][0] > 0
    assert merged["extra"]["sim.events"] > 0


def test_traced_and_untraced_digests_agree(tmp_path):
    from repro.scenarios.library import get_scenario

    (tmp_path / "spool").mkdir()
    spec = get_scenario("cold-start").scaled(0.25)
    digests = [
        workloads._session_child(spec, 42, 0.25, 1, tmp_path, setup_only=False,
                                 traced=traced, run_id=f"digest-{traced}")()["digest"]
        for traced in (False, True)
    ]
    assert digests[0] == digests[1]


def test_a_missing_hook_target_is_reported_absent(monkeypatch):
    hooks = ledger.HOOKS + (
        ("renamed.layer", "repro.core.system", "FlowerCDN.no_such_method", lambda fn: fn),
        ("missing.module", "repro.no_such_module", "Thing.call", lambda fn: fn),
    )
    monkeypatch.setattr(ledger, "HOOKS", hooks)
    absent = ledger.install()
    try:
        assert set(absent) == {
            "renamed.layer (repro.core.system.FlowerCDN.no_such_method)",
            "missing.module (repro.no_such_module.Thing.call)",
        }
    finally:
        ledger.uninstall()
    values, missing = layers.layer_metrics({"stats": {}, "extra": {}}, {}, absent)
    assert values == {}
    assert "hook target is missing" in missing["probe.calls"]


def test_the_same_seed_gives_the_same_inputs():
    assert workloads.service_requests(7, workloads.SERVICE_SIZE) == \
        workloads.service_requests(7, workloads.SERVICE_SIZE)
    assert workloads.service_requests(7, workloads.SERVICE_SIZE) != \
        workloads.service_requests(8, workloads.SERVICE_SIZE)
    assert workloads.standard_tier_order(7, 3) == workloads.standard_tier_order(7, 3)
    assert workloads.paper_scale_spec().to_dict() == workloads.paper_scale_spec().to_dict()
    cold, plan = workloads.service_requests(7, workloads.SERVICE_SIZE)
    assert len({workloads.request_key(request) for request in cold}) == len(cold)
    traced_cold, traced_plan = workloads.service_requests(7, workloads.SERVICE_TRACE_SIZE)
    assert traced_cold == cold[: len(traced_cold)]
    assert max(traced_plan) < len(traced_cold)


def test_printed_metric_names_match_the_contract_and_carry_units(capsys):
    import run

    outcome = workloads.Outcome(attempted=1)
    runs = [{"scenario": "a", "host_s": host_s, "num_queries": 100, "events_fired": 150,
             "peak_rss_mb": 50.0} for host_s in (2.0, 9.0, 1.0)]
    workloads._sim_metrics(outcome, runs, [0.5])
    assert outcome.end_to_end["queries_per_s"] == 50.0
    assert set(outcome.end_to_end) == {metric["name"] for metric in CONTRACT["end_to_end"]}
    printed = run.end_to_end_report("paper-scale", outcome, CONTRACT)
    output = capsys.readouterr().out
    for metric in CONTRACT["end_to_end"]:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        assert f"# {metric['name']} = " in output
        assert output.split(f"# {metric['name']} = ")[1].split("\n")[0].endswith(metric["unit"])
    for metric in CONTRACT["per_layer"]:
        assert layers.UNITS[metric["name"]] == metric["unit"], metric["name"]
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["unit"]


def test_service_metrics_match_the_contract():
    cold, plan = workloads.service_requests(3, workloads.SERVICE_TRACE_SIZE)
    rounds = workloads._rounds(len(cold), plan)
    document = {
        "rounds": [{"cold": c, "cold_wall_s": 1.0, "cached": len(k), "cached_wall_s": 0.5}
                   for c, k in rounds],
        "boots": [0.01, 0.02, 0.03],
        "peak_rss_mb": 60.0,
    }
    queries = {workloads.request_key(request): 100 for request in cold}
    metrics = workloads.service_end_to_end(document, queries, cold)
    assert set(metrics) == {metric["name"] for metric in CONTRACT["end_to_end"]}
    assert metrics["queries_per_s"] == 100 * len(rounds[0][0])


def test_cached_rounds_only_resubmit_finished_cold_runs():
    cold, plan = workloads.service_requests(5, workloads.SERVICE_SIZE)
    finished = set()
    for cold_indices, cached in workloads._rounds(len(cold), plan):
        finished.update(cold_indices)
        assert {index for _, index in cached} <= finished
    assert finished == set(range(len(cold)))


def _beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile of ``count``."""
    rank = math.ceil(q / 100 * count)
    values = list(range(count))
    assert workloads._percentile(values, q) == values[rank - 1]
    return count - rank


@pytest.mark.parametrize("q, count", [
    (50, workloads.SERVICE_SIZE[0]),
    (90, workloads.SERVICE_SIZE[0]),
    (50, workloads.SERVICE_SIZE[1]),
    (99, workloads.SERVICE_SIZE[1]),
])
def test_each_reported_percentile_has_ten_samples_beyond_it(q, count):
    assert _beyond(count, q) >= 10


def test_forked_runs_return_results_and_report_failures():
    assert isolate.run_forked(lambda: {"answer": 42})["answer"] == 42

    def boom():
        raise ValueError("expected")

    with pytest.raises(isolate.ChildError, match="expected"):
        isolate.run_forked(boom)


def test_contract_shape():
    import run

    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]
    assert CONTRACT["paths"] == ["perfbench"]
    assert {w["name"] for w in CONTRACT["workloads"]} == set(run.WORKLOADS)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
