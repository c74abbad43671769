"""Traced run: per-phase timings from replicas of the solver loops.

The replicas re-drive ``run_gkbo`` and ``run_pcbo`` from the public phase
functions and time every call with ``perf_counter``, keeping the samples in
memory until the end. Their numbers count only when each replica's report is
bit-identical to the untraced solver's report for the same seed; otherwise
the run names the diverging workload and seed, or the missing public name.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import gkbo

from .checks import spurious_points
from .measure import Outcome, run_blocks
from .workloads import Workload

#: Public names the replicas call; a missing one disables the trace.
TRACE_API = (
    "ClusterState",
    "RunReport",
    "StallTracker",
    "apply_label_transitions",
    "assign_clusters",
    "check_stall",
    "cluster_consensus",
    "cluster_weights",
    "compute_weights",
    "deterministic_label_pass",
    "evaluate_success",
    "init_uniform",
    "interaction_step",
    "pcbo_assign",
    "pcbo_step",
    "preset",
    "run_gkbo",
    "run_pcbo",
)

#: Runs of the other solver per traced run: enough for 1000 timed steps.
COMPANION_RUNS = 2

_GKBO_PHASES = (
    "solver.assign_clusters",
    "solver.interaction_step",
    "solver.cluster_weights",
    "solver.cluster_consensus",
    "solver.check_stall",
    "solver.step",
    "ensemble.apply_label_transitions",
)
_PCBO_PHASES = ("pcbo.pcbo_step", "pcbo.pcbo_assign", "pcbo.stall", "pcbo.step")
_GKBO_COUNTS = (
    "solver.assign_pairs",
    "ensemble.promotions",
    "ensemble.demotions",
    "ensemble.leaderless_recoveries",
    "solver.iterations",
)


class PhaseTimer:
    """Call durations per phase and event counts, held in memory."""

    def __init__(self) -> None:
        self.samples = defaultdict(list)
        self.counts = Counter()
        self.leaders = []
        self.final_leaders = []

    def call(self, phase: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples[phase].append(time.perf_counter() - start)
        return result


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def traced_gkbo(spec, cfg, n_agents: int, timer: PhaseTimer, objective_phase: str):
    """``run_gkbo`` re-driven phase by phase; returns its report."""
    cfg.validate(n_agents)
    rng = np.random.default_rng(cfg.seed)
    omega_bar = cfg.omega_bar(n_agents)
    call = timer.call

    ens = gkbo.init_uniform(n_agents, spec.dim, cfg.init_lo, cfg.init_hi, rng)
    energies = call(objective_phase, spec.evaluate_batch, ens.positions)
    evaluations = n_agents
    weights = gkbo.compute_weights(ens, energies=energies)
    ens = gkbo.deterministic_label_pass(ens, weights, omega_bar)
    clusters = gkbo.cluster_consensus(
        ens, spec, gkbo.assign_clusters(ens), cfg.alpha, energies=energies
    )
    tracker = gkbo.StallTracker(
        counters=np.zeros(n_agents, dtype=np.int64), estimates=clusters.agent_estimate.copy()
    )

    steps = 0
    stall = 0
    while steps < cfg.n_steps and stall < cfg.j_stall:
        start = time.perf_counter()
        ens = call(
            "solver.interaction_step", gkbo.interaction_step, ens, clusters, cfg, rng, step=steps
        )
        energies = call(objective_phase, spec.evaluate_batch, ens.positions)
        evaluations += n_agents
        weights = call(
            "solver.cluster_weights", gkbo.cluster_weights, ens, clusters, energies=energies
        )
        before = ens.labels
        ens = call(
            "ensemble.apply_label_transitions",
            gkbo.apply_label_transitions, ens, weights, omega_bar, cfg.eps, rng,
        )
        moved = ens.labels
        recovered = ens.leader_count == 0
        if recovered:
            ens = gkbo.deterministic_label_pass(ens, weights, omega_bar)
        assigned = call("solver.assign_clusters", gkbo.assign_clusters, ens)
        clusters = call(
            "solver.cluster_consensus",
            gkbo.cluster_consensus, ens, spec, assigned, cfg.alpha, energies=energies,
        )
        tracker, stall = call(
            "solver.check_stall", gkbo.check_stall, tracker, clusters, cfg.delta_stall
        )
        steps += 1
        timer.samples["solver.step"].append(time.perf_counter() - start)

        timer.counts["ensemble.promotions"] += int(np.count_nonzero(moved > before))
        timer.counts["ensemble.demotions"] += int(np.count_nonzero(moved < before))
        timer.counts["ensemble.leaderless_recoveries"] += int(recovered)
        timer.counts["solver.assign_pairs"] += n_agents * assigned.n_clusters
        timer.leaders.append(assigned.n_clusters)
    timer.counts["solver.iterations"] += steps
    timer.final_leaders.append(ens.leader_count)

    return gkbo.RunReport(
        iterations=steps,
        stalled=stall >= cfg.j_stall,
        final_consensus=_distinct_rows(clusters.consensus),
        leader_count=ens.leader_count,
        best_value=float(energies.min()),
        evaluations=evaluations,
        seed=int(cfg.seed),
    )


def _soft_centres(positions, energies, memberships, alpha):
    """The initial fractional-membership centres of ``run_pcbo``, computed the same way."""
    weights = np.exp(-alpha * (energies - energies.min()))
    weighted = memberships * weights[:, np.newaxis]
    denom = weighted.sum(axis=0)
    return (weighted.T @ positions) / denom[:, np.newaxis]


def traced_pcbo(spec, cfg, n_particles: int, timer: PhaseTimer, objective_phase: str):
    """``run_pcbo`` re-driven phase by phase; returns its report."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_clusters = int(cfg.n_clusters)
    call = timer.call

    positions = rng.uniform(cfg.init_lo, cfg.init_hi, size=(n_particles, spec.dim))
    energies = call(objective_phase, spec.evaluate_batch, positions)
    evaluations = n_particles
    memberships = rng.random((n_particles, n_clusters))
    memberships /= memberships.sum(axis=1, keepdims=True)
    centres = _soft_centres(positions, energies, memberships, float(cfg.alpha))
    assignment = gkbo.pcbo_assign(positions, centres)
    tracker = gkbo.StallTracker(
        counters=np.zeros(n_particles, dtype=np.int64), estimates=centres[assignment].copy()
    )
    slots = np.arange(n_clusters)

    steps = 0
    stall = 0
    while steps < cfg.n_steps and stall < cfg.j_stall:
        start = time.perf_counter()
        positions, centres = call(
            "pcbo.pcbo_step",
            gkbo.pcbo_step, positions, assignment, centres, spec, cfg, rng, energies=energies,
        )
        # check_stall reads only the per-particle estimates of the cluster state.
        own_centre = gkbo.ClusterState(
            leaders=slots,
            leader_of=assignment,
            cluster_of=assignment,
            agent_estimate=centres[assignment],
        )
        tracker, stall = call("pcbo.stall", gkbo.check_stall, tracker, own_centre, cfg.delta_stall)
        energies = call(objective_phase, spec.evaluate_batch, positions)
        evaluations += n_particles
        assignment = call("pcbo.pcbo_assign", gkbo.pcbo_assign, positions, centres)
        steps += 1
        timer.samples["pcbo.step"].append(time.perf_counter() - start)
    timer.counts["pcbo.iterations"] += steps

    return gkbo.RunReport(
        iterations=steps,
        stalled=stall >= cfg.j_stall,
        final_consensus=_distinct_rows(centres),
        leader_count=n_clusters,
        best_value=float(energies.min()),
        evaluations=evaluations,
        seed=int(cfg.seed),
    )


def report_differences(traced, untraced) -> list[str]:
    """Fields in which a replica's report is not bit-identical to the solver's."""
    fields = [
        f.name
        for f in dataclasses.fields(untraced)
        if f.name != "final_consensus" and getattr(traced, f.name) != getattr(untraced, f.name)
    ]
    a, b = np.asarray(traced.final_consensus), np.asarray(untraced.final_consensus)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        fields.append("final_consensus")
    return fields


def _replay(cfg, dim: int, seed: int, timer: PhaseTimer, objective_phase: str, traced_first: bool):
    """Untraced solver run and its traced replica; returns (untraced, traced, untraced s, traced s).

    Callers alternate ``traced_first`` so that whichever run goes second and
    finds warm caches does not bias the trace overhead.
    """
    spec = gkbo.preset(cfg.objective, dim)
    solver_cfg = dataclasses.replace(cfg.solver_config, seed=int(seed))
    solve = gkbo.run_gkbo if cfg.solver == "gkbo" else gkbo.run_pcbo
    replica = traced_gkbo if cfg.solver == "gkbo" else traced_pcbo
    timed = {}
    for kind in ("traced", "untraced") if traced_first else ("untraced", "traced"):
        start = time.perf_counter()
        if kind == "traced":
            report = replica(spec, solver_cfg, cfg.n_agents, timer, objective_phase)
        else:
            report = solve(spec, solver_cfg, cfg.n_agents)
        timed[kind] = (report, time.perf_counter() - start)
    (untraced, untraced_s), (traced, traced_s) = timed["untraced"], timed["traced"]
    return untraced, traced, untraced_s, traced_s


def _percentiles_us(out: Outcome, name: str, samples) -> None:
    p50, p99 = np.percentile(np.asarray(samples) * 1e6, [50, 99])
    out.metric(f"{name}.us_p50", p50, "us")
    out.metric(f"{name}.us_p99", p99, "us")


def measure_layers(workload: Workload, seed: int, workdir: Path, workers: int) -> Outcome:
    """Block 0 through the pool for the bench layer, then traced replicas for the solver layers.

    The workload's own solver is replayed for the first ``trace_reps`` seeds
    of block 0 at every dimension; each replica must match both the inline
    untraced run and the pooled report of that seed. Two companion runs of
    the other solver fill the layers the workload's solver does not use.
    """
    out = Outcome()
    missing = [name for name in TRACE_API if name not in gkbo.__all__]
    if missing:
        out.problems.append(f"trace disabled: public names missing from gkbo: {', '.join(missing)}")
        return out
    blocks = run_blocks(workload, seed, 1, workdir, workers, out)
    if not blocks:
        return out
    block = blocks[0]
    cfg = workload.experiment(seed, 0)
    pooled = {
        (spec.dim, s): r for spec, res in block.results for s, r in zip(res.seeds, res.reports)
    }
    run_seconds = sum(t for _, res in block.results for t in res.run_seconds)
    scoring, spurious = [], []
    for spec, res in block.results:
        for report in res.reports:
            start = time.perf_counter()
            gkbo.evaluate_success(report, spec.minimizers)
            scoring.append(time.perf_counter() - start)
            spurious.append(spurious_points(report, spec.minimizers))

    timer = PhaseTimer()
    replays = [
        (cfg, dim, cfg.base_seed + rep, "objectives.evaluate_batch")
        for dim in workload.dims
        for rep in range(workload.trace_reps)
    ]
    companion = workload.companion(seed)
    replays += [
        (companion, companion.dim, companion.base_seed + rep, "companion.evaluate_batch")
        for rep in range(COMPANION_RUNS)
    ]
    untraced_s = traced_s = 0.0
    runs = Counter()
    for index, (run_cfg, dim, run_seed, objective_phase) in enumerate(replays):
        label = f"{workload.name} {run_cfg.solver} d={dim} seed={run_seed}"
        out.attempted += 1
        try:
            untraced, traced, plain_s, timed_s = _replay(
                run_cfg, dim, run_seed, timer, objective_phase, traced_first=index % 2 == 1
            )
        except Exception:  # an API change breaks the replica, never the benchmark
            traceback.print_exc()
            out.failed += 1
            out.problems.append(f"{label}: replica raised")
            continue
        runs[run_cfg.solver] += 1
        diffs = report_differences(traced, untraced)
        if run_cfg is cfg:
            pooled_report = pooled[(dim, run_seed)]
            diffs += [f"{name} (pooled)" for name in report_differences(traced, pooled_report)]
            untraced_s += plain_s
            traced_s += timed_s
        if diffs:
            out.failed += 1
            out.problems.append(
                f"{label}: replica differs from run_{run_cfg.solver} in {', '.join(diffs)}"
            )
    if not out.correct:
        return out

    for name in _GKBO_PHASES + _PCBO_PHASES + ("objectives.evaluate_batch",):
        _percentiles_us(out, name, timer.samples[name])
    calls = len(timer.samples["objectives.evaluate_batch"])
    out.metric("objectives.evaluate_batch.calls", calls / runs[workload.solver], "count")
    for name in _GKBO_COUNTS:
        out.metric(name, timer.counts[name] / runs["gkbo"], "count")
    out.metric("solver.leaders_mean", statistics.fmean(timer.leaders), "count")
    out.metric("solver.leaders_final", statistics.fmean(timer.final_leaders), "count")
    out.metric("pcbo.iterations", timer.counts["pcbo.iterations"] / runs["pcbo"], "count")
    out.metric("bench.parallel_eff", run_seconds / (workers * block.experiment_s), "ratio")
    out.metric("bench.pool_overhead_s", block.experiment_s - run_seconds / workers, "s")
    out.metric("bench.evaluate_success.us_p50", statistics.median(scoring) * 1e6, "us")
    out.metric("bench.write_results.ms", block.write_s * 1e3, "ms")
    out.metric("bench.write_results.bytes", block.written_bytes, "bytes")
    successes = [ok for _, res in block.results for ok in res.successes]
    out.metric("bench.success_rate", statistics.fmean(successes), "frac")
    out.metric("bench.spurious_points", statistics.fmean(spurious), "count")
    out.metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")
    return out
