"""Self-test of the benchmark at toy scale (toy23, two units, a few ticks).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import canvault  # noqa: E402
from canvault import bus, harness  # noqa: E402

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_report(name, seed=0):
    raw = workloads.scenario_dict(name, seed, toy=True)
    return raw, harness.run_scenario(harness.ScenarioConfig.from_dict(raw))


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracer.metric_specs()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_shape_gives_a_valid_result(name, trace):
    result, lines = bench.measure(name, workloads.PINNED_SEED, 0, trace, toy=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    json.loads(json.dumps(result))
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    for key, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
        assert math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0, key


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pinned_digest_and_invariants_hold(name):
    raw, report = toy_report(name)
    group = canvault.get_group(raw["group"])
    assert workloads.check_report(name, raw, report, group, toy=True) == []
    raw, report = toy_report(name, seed=1)
    assert workloads.check_report(name, raw, report, group, toy=True) == []


def test_digest_check_catches_a_changed_report():
    raw, report = toy_report("keying_schnorr256")
    report.phase_times["session"]["elapsed_us"] += 1
    problems = workloads.check_report("keying_schnorr256", raw, report,
                                      canvault.get_group("toy23"), toy=True)
    assert len(problems) == 1 and "digest" in problems[0]


def test_invariants_catch_wrong_counts_at_any_seed():
    group = canvault.get_group("toy23")
    raw, report = toy_report("fanout_toy23", seed=5)
    report.frames += 1
    report.logical_messages += 1
    problems = workloads.check_report("fanout_toy23", raw, report, group, toy=True)
    assert any("frames" in p for p in problems)
    assert any("logical messages" in p for p in problems)

    raw, report = toy_report("hostile_schnorr256", seed=5)
    report.rejections = [r for r in report.rejections if r["reason"] != "mac"]
    problems = workloads.check_report("hostile_schnorr256", raw, report, group, toy=True)
    assert problems == ["expected rejection reasons missing: ['mac']"]


def test_a_failing_run_is_counted_and_the_loop_goes_on(monkeypatch):
    real = harness.run_scenario
    calls = []

    def flaky(cfg):
        calls.append(cfg)
        if len(calls) == 2:
            raise canvault.DeadlockError("injected")
        return real(cfg)

    monkeypatch.setattr(harness, "run_scenario", flaky)
    scn = bench.Scenario("refresh_toy23", 0, toy=True)
    scn.timed_runs(0, 3)
    assert scn.attempted == 3
    assert scn.problems == ["DeadlockError: injected"]


def test_traced_run_keeps_report_bytes_and_restores_targets():
    _, plain = toy_report("hostile_schnorr256")
    original = bus.reassemble
    tr = tracer.Tracer()
    with tr.installed():
        assert bus.reassemble is not original
        _, traced = toy_report("hostile_schnorr256")
        snap = tr.snapshot()
    assert bus.reassemble is original
    assert traced.to_json() == plain.to_json()
    assert tr.missing == []
    assert snap["kem.decode_ciphertext"]["outcomes"] == {"rejected": 1}
    assert snap["protocol.handle"]["outcomes"]["rejected"] == len(plain.rejections)


def test_missing_trace_target_is_absent_not_zero(capsys):
    layers = dict(tracer.LAYERS)
    layers["bus.reassemble"] = tracer.Layer(("canvault.bus:no_such_function",),
                                            tracer.LAYERS["bus.reassemble"].fields)
    tr = tracer.Tracer(layers)
    with tr.installed():
        toy_report("fanout_toy23")
        snap = tr.snapshot()
    assert tr.missing == ["canvault.bus:no_such_function"]
    assert "canvault.bus:no_such_function" in capsys.readouterr().err
    metrics = tracer.layer_metrics([snap])
    assert not any(k.startswith("bus.reassemble.") for k in metrics)
    assert metrics["bus.fragment.calls"][0] == 5


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "keying_schnorr256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
