"""The benchmark's own tests, at a tiny size (300 ASes, seconds per workload).

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import paper_sweep
import service_feed
import trace_replay
from common import CheckFailed, Outcome, build_env
from inputs import make_service, make_sweep_jobs, make_trace
from layers import HOST_INDEPENDENT, PER_LAYER
from run import emit, result_line, run_workload
from sizing import TINY

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
TINY_SECONDS = 2.0


@pytest.fixture(scope="module")
def env():
    return build_env(TINY.as_count)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_lists_the_per_layer_table():
    assert _units(BENCHMARK["per_layer"]) == {name: unit for name, unit, _ in PER_LAYER}
    assert any(entry["name"] == "setup_s" for entry in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, traced, tmp_path, capsys):
    outcome = run_workload(workload, 7, TINY_SECONDS, traced, TINY, tmp_path / workload)
    emit(workload, outcome)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], outcome.failures
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _units(BENCHMARK["per_layer" if traced else "end_to_end"])
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload}  {name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    if not traced:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_host_independent_counts_repeat_for_one_seed(workload, tmp_path):
    first = run_workload(workload, 11, TINY_SECONDS, True, TINY, tmp_path / "a")
    second = run_workload(workload, 11, TINY_SECONDS, True, TINY, tmp_path / "b")
    for name in HOST_INDEPENDENT:
        assert first.metrics[name] == second.metrics[name], name
    exercised = [name for name in HOST_INDEPENDENT if first.metrics[name][0] > 0]
    assert exercised, "no host-independent count was exercised"


def test_inputs_repeat_for_one_seed_and_differ_across_seeds(env, tmp_path):
    first = make_trace(env.lab, 3, tmp_path / "a", TINY.trace)
    second = make_trace(env.lab, 3, tmp_path / "b", TINY.trace)
    third = make_trace(env.lab, 4, tmp_path / "c", TINY.trace)
    assert first.updates_path.read_bytes() == second.updates_path.read_bytes()
    assert first.updates_path.read_bytes() != third.updates_path.read_bytes()
    assert first.update_garbage > 0 and first.interior_withdraws > 0
    assert first.redundant < first.announces / 2  # most updates change the origin set
    one = make_service(env.lab, 3, TINY.service)
    two = make_service(env.lab, 3, TINY.service)
    assert [burst.lines for burst in one.bursts] == [burst.lines for burst in two.bursts]
    assert any(registration["auto_mitigate"] for registration in one.registrations)
    assert make_sweep_jobs(env.lab, 3, 2) == make_sweep_jobs(env.lab, 3, 2)


# -- tampered outputs must fail the checks ------------------------------------


def test_perturbed_ledger_checksum_fails_the_trace_check(env, tmp_path):
    inputs = make_trace(env.lab, 5, tmp_path, TINY.trace)
    replay = trace_replay._replay(env, inputs, capture=True)
    trace_replay._check_replay(env, inputs, replay)
    prefix = next(key for key, entry in replay["result"].report.prefixes.items()
                  if entry["checksum"])
    replay["result"].report.prefixes[prefix]["checksum"] = "0" * 32
    with pytest.raises(CheckFailed, match="checksum"):
        trace_replay._check_replay(env, inputs, replay)


def test_uncounted_garbage_fails_the_trace_check(env, tmp_path):
    inputs = make_trace(env.lab, 5, tmp_path, TINY.trace)
    replay = trace_replay._replay(env, inputs, capture=True)
    inputs.update_garbage += 1
    with pytest.raises(CheckFailed, match="malformed"):
        trace_replay._check_replay(env, inputs, replay)


def test_dropped_verdict_fails_the_service_check(tmp_path):
    inputs = make_service(build_env(TINY.as_count).lab, 5, TINY.service)
    state = service_feed._start(TINY, inputs, None)
    try:
        phase = service_feed._open_loop(state["client"], inputs.bursts, 0, 2000.0, 1.0)
    finally:
        state["thread"].stop()
    replayed, _seconds = service_feed._closed_loop(
        state["env"], inputs, [item.burst for item in phase.requests])
    assert service_feed._compare_verdicts(phase.requests, replayed) == []
    carrying = next(item for item in phase.requests if item.verdicts)
    carrying.verdicts.pop()
    assert service_feed._compare_verdicts(phase.requests, replayed)


def test_tampered_outcome_fails_the_sweep_check(tmp_path):
    state = paper_sweep._setup(TINY, None)
    job = make_sweep_jobs(state["env"].lab, 5, 1)[0]
    result = paper_sweep._job(state, job, TINY, None)
    paper_sweep._check_job(state, job, result, TINY)
    for outcome in result["sweep"].values():
        object.__setattr__(outcome, "polluted_asns", frozenset({-1}))
    with pytest.raises(CheckFailed, match="oracle"):
        paper_sweep._check_job(state, job, result, TINY)


def test_result_line_counts_a_failed_check():
    outcome = Outcome(attempted=10)
    outcome.fail("tampered")
    line = result_line(outcome)
    assert line["correct"] is False and line["attempted"] == 10 and line["failed"] == 1
