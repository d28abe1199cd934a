"""Workload ``paper_sweep``: the paper's batch experiments on one lab.

One job is a Fig. 2 ``sweep_target``, a Figs. 5/6 ``compare_strategies``
ladder and a Fig. 7 ``compare_detectors`` run, sized to take comparable
shares of the job's time. Every job of a run shares one lab and its
convergence cache, as a user reproducing the figures would. This
exercises the lab, the cache and the cold ``converge`` passes and
touches no ``stream``, ``ingest`` or ``service`` code.

A run does ``seconds / job_seconds`` jobs. ``throughput_per_s`` is
scenarios evaluated ÷ job time over all jobs, ``latency_p50_ms`` the
median job time, both at reference host speed (see ``common.HostClock``).
"""

from __future__ import annotations

import random
import statistics
from pathlib import Path
from typing import Any

from common import (
    LAYER_TABLE,
    CheckFailed,
    HostClock,
    Outcome,
    build_env,
    check,
    peak_rss_mb,
    span_metrics,
    timed_setups,
)
from inputs import SweepJob, make_sweep_jobs
from layers import fill_layers
from sizing import Sizes
from tracing import Tracer, install_wrappers

#: Outcomes per job that are re-derived with the reference simulator.
ORACLE_SAMPLES = 2


def _setup(sizes: Sizes, tracer: Tracer | None) -> dict[str, Any]:
    from repro.defense import paper_ladder
    from repro.registry.publication import PublicationState

    env = build_env(sizes.as_count, tracer)
    ladder = paper_ladder(env.graph, seed=0)
    rungs = [ladder[index] for index in sizes.sweep.ladder_rungs if index < len(ladder)]
    authority = PublicationState.full(env.lab.plan).table()
    return {"env": env, "rungs": rungs, "authority": authority}


def _job(state: dict[str, Any], job: SweepJob, sizes: Sizes,
         tracer: Tracer | None) -> dict[str, Any]:
    """One Fig. 2 + Figs. 5/6 + Fig. 7 job; returns results and timings."""
    from repro.core import compare_detectors, compare_strategies

    lab = state["env"].lab
    size = sizes.sweep

    def step(op_id: int, name: str | None, fn):
        # Each of the job's three calls is one operation of the trace.
        if tracer is None:
            return fn()
        tracer.op_id = op_id
        frame = tracer.open(name) if name is not None else None
        try:
            return fn()
        finally:
            tracer.close(frame)

    # The host speed is calibrated between the three calls (not counted).
    clock = HostClock().start()
    sweep = step(1, None, lambda: lab.sweep_target(
        job.sweep_target, sample=size.sweep_attackers, seed=job.sample_seed))
    clock.checkpoint()
    ladder = step(2, "core.compare_strategies", lambda: compare_strategies(
        lab, job.ladder_target, state["rungs"], state["authority"],
        sample=size.ladder_attackers, seed=job.sample_seed,
    ))
    clock.checkpoint()
    detectors = step(3, "core.compare_detectors", lambda: compare_detectors(
        lab, attack_count=size.detector_attacks, seed=job.detector_seed,
    ))
    clock.checkpoint()
    scenarios = (
        len(sweep)
        + sum(evaluation.profile.summary.count for evaluation in ladder.evaluations)
        + detectors.workload_size
    )
    return {"sweep": sweep, "ladder": ladder, "detectors": detectors,
            "wall": clock.raw, "scaled": clock.scaled, "scenarios": scenarios}


def _oracle_pollution(lab: Any, oracle: Any, target: int, attacker: int,
                      blocked_asns: frozenset[int]) -> frozenset[int]:
    view = lab.view
    attacker_node = view.node_of(attacker)
    table = oracle.hijack(
        view.node_of(target), attacker_node,
        blocked={view.node_of(asn) for asn in blocked_asns},
    )
    return view.expand(oracle.holders_of(table, attacker_node)) - {attacker}


def _check_job(state: dict[str, Any], job: SweepJob, result: dict[str, Any],
               sizes: Sizes) -> None:
    """A seeded sample of outcomes agrees with the reference simulator."""
    from repro.core import VulnerabilityProfile
    from repro.defense import Defense
    from repro.oracle import ReferenceSimulator

    lab = state["env"].lab
    size = sizes.sweep
    rng = random.Random(f"perfbench/sweep-check/{job.sample_seed}")
    oracle = ReferenceSimulator(lab.view, tier1_shortest_path=lab.policy.tier1_shortest_path)

    sweep = result["sweep"]
    check(len(sweep) == size.sweep_attackers,
          f"the Fig. 2 sweep returned {len(sweep)} outcomes")
    for attacker in rng.sample(sorted(sweep), min(ORACLE_SAMPLES, len(sweep))):
        outcome = sweep[attacker]
        expected = _oracle_pollution(lab, oracle, job.sweep_target, attacker,
                                     outcome.blocked_asns)
        check(outcome.polluted_asns == expected,
              f"Fig. 2 target AS{job.sweep_target} attacker AS{attacker}: "
              f"{len(outcome.polluted_asns)} polluted, oracle {len(expected)}")

    # One rung of the ladder is swept again through the public per-rung
    # path; its profile must match, and a sampled outcome the oracle.
    ladder = result["ladder"]
    check(len(ladder.evaluations) == len(state["rungs"]), "a ladder rung is missing")
    evaluation = rng.choice(list(ladder.evaluations))
    defended = lab.with_defense(
        Defense(strategy=evaluation.strategy, authority=state["authority"]))
    outcomes = defended.sweep_target(job.ladder_target, transit_only=True,
                                     sample=size.ladder_attackers, seed=job.sample_seed)
    again = VulnerabilityProfile.from_outcomes(job.ladder_target, outcomes.values())
    check(again.curve == evaluation.profile.curve,
          f"rung {evaluation.strategy.name}: the profile does not repeat")
    attacker = rng.choice(sorted(outcomes))
    expected = _oracle_pollution(lab, oracle, job.ladder_target, attacker,
                                 outcomes[attacker].blocked_asns)
    check(outcomes[attacker].polluted_asns == expected,
          f"rung {evaluation.strategy.name} attacker AS{attacker}: "
          f"{outcomes[attacker].pollution_count} polluted, oracle {len(expected)}")

    detectors = result["detectors"]
    check(detectors.workload_size == size.detector_attacks, "Fig. 7 workload size differs")
    for study in detectors.studies:
        check(study.attack_count == size.detector_attacks,
              f"{study.detector.probes.name}: {study.attack_count} attacks judged")
    reports = detectors.studies[0].reports
    for report in rng.sample(reports, min(ORACLE_SAMPLES, len(reports))):
        scenario = report.outcome.scenario
        expected = _oracle_pollution(lab, oracle, scenario.target_asn, scenario.attacker_asn,
                                     report.outcome.blocked_asns)
        check(report.outcome.polluted_asns == expected,
              f"Fig. 7 AS{scenario.attacker_asn}→AS{scenario.target_asn}: "
              f"{len(report.outcome.polluted_asns)} polluted, oracle {len(expected)}")
        probes = set(detectors.studies[0].detector.probes.asns)
        check(report.detected == bool(expected & probes),
              f"Fig. 7 AS{scenario.attacker_asn}: detection differs from the oracle's "
              "pollution at the probes")


def _traced_run(out: Outcome, sizes: Sizes, job: SweepJob, setup_tracer: Tracer,
                work: Path) -> Outcome:
    """One job on two fresh labs, untraced then traced.

    The pair gives the overhead ratio, the traced job the per-layer
    figures; the traced job's outputs are checked like any other.
    """
    base = _job(_setup(sizes, None), job, sizes, None)
    fresh = _setup(sizes, None)
    tracer = Tracer()
    uninstall = install_wrappers(tracer, LAYER_TABLE)
    tracer.enabled = True
    try:
        traced_job = _job(fresh, job, sizes, tracer)
    finally:
        tracer.enabled = False
        uninstall()
    out.attempted += traced_job["scenarios"]
    try:
        _check_job(fresh, job, traced_job, sizes)
    except CheckFailed as error:
        out.fail(str(error))
        out.failed += traced_job["scenarios"] - 1
    stats = fresh["env"].lab.cache.stats  # the fresh lab's cache saw only this job
    layer = span_metrics(tracer, traced_job["wall"])
    layer.update({
        "parallel.cache.lookups": float(stats.lookups),
        "parallel.cache.hit_ratio": stats.hit_rate,
        "trace.overhead_ratio": traced_job["scaled"] / base["scaled"],
    })
    setup_spans = setup_tracer.by_name()
    layer["topology.generate_s"] = statistics.median(
        setup_spans["topology.generate"]["durations"])
    layer["attacks.lab.init_s"] = statistics.median(
        setup_spans["attacks.lab.init"]["durations"])
    out.metrics = fill_layers(layer)
    tracer.write(work / "spans-paper_sweep.jsonl")
    return out


def run(seed: int, seconds: float, traced: bool, sizes: Sizes, work: Path) -> Outcome:
    out = Outcome()
    setup_tracer = Tracer()
    setup_tracer.enabled = traced
    state, setup_raw, setup_s = timed_setups(lambda: _setup(sizes, setup_tracer),
                                             lambda _s: None)
    # A fixed amount of work per measured second, so that every run with
    # the same --seconds does the same jobs whatever the host's speed.
    count = max(1, round(seconds / sizes.sweep.job_seconds))
    jobs = make_sweep_jobs(state["env"].lab, seed, count + 1)

    if traced:
        return _traced_run(out, sizes, jobs[count], setup_tracer, work)
    results: list[dict[str, Any]] = []
    for job in jobs[:count]:
        result = _job(state, job, sizes, None)
        results.append(result)
        out.attempted += result["scenarios"]
        try:
            _check_job(state, job, result, sizes)
        except CheckFailed as error:
            out.fail(str(error))
            out.failed += result["scenarios"] - 1

    scenarios = sum(item["scenarios"] for item in results)
    scaled = [item["scaled"] for item in results]
    attacks_per_s = scenarios / sum(scaled)
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (attacks_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
    }
    out.report("attacks_per_s", attacks_per_s, "scenarios/s",
               f"{scenarios} scenarios over {len(results)} jobs, reference host speed")
    out.report("attacks_per_s_raw", scenarios / sum(item["wall"] for item in results),
               "scenarios/s", "wall clock on this host")
    out.report("job_p50_ms", statistics.median(scaled) * 1e3, "ms",
               "one Fig. 2 + Figs. 5/6 + Fig. 7 job, reference host speed")
    out.report("setup_s_raw", setup_raw, "s", "wall clock on this host")
    out.report("cache_hit_ratio", state["env"].lab.cache.stats.hit_rate, "ratio")
    return out
