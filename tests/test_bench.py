import csv
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

import gkbo.bench as bench_module
from gkbo.bench import (
    CSV_HEADER,
    ExperimentConfig,
    _seed_batches,
    evaluate_success,
    run_experiment,
    write_results,
)
from gkbo.cli import _parse_number
from gkbo.errors import NumericError
from gkbo.objectives import preset
from gkbo.pcbo import PcboConfig, run_pcbo
from gkbo.solver import DiffusionMode, RunReport, SolverConfig, run_gkbo


def tiny_experiment(**overrides) -> ExperimentConfig:
    """A dimension sweep small enough to run in a fraction of a second."""
    fields = {
        "objective": "rastrigin2",
        "dim": 1,
        "solver": "gkbo",
        "solver_config": SolverConfig(n_steps=15, n_leaders=3),
        "n_agents": 24,
        "repetitions": 3,
        "sweep": "dimension",
        "sweep_values": (1, 2),
        "base_seed": 11,
    }
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.mark.parametrize(
    "cfg",
    [
        tiny_experiment(),
        tiny_experiment(
            solver="pcbo",
            solver_config=PcboConfig(sigma=0.3, n_steps=7, diffusion="isotropic"),
            sweep="sigma_f",
            sweep_values=(0.1, 0.5),
        ),
        ExperimentConfig(),
    ],
)
def test_experiment_config_json_round_trip(cfg):
    text = json.dumps(cfg.to_dict(), indent=2)
    back = ExperimentConfig.from_dict(json.loads(text))
    assert back == cfg
    assert isinstance(back.solver_config.diffusion, DiffusionMode)
    assert json.dumps(back.to_dict(), indent=2) == text


@pytest.mark.parametrize(
    "cfg, message",
    [
        (ExperimentConfig(solver_config=SolverConfig(eps=2.0)), "eps must be in"),
        (ExperimentConfig(solver="pcbo", solver_config=PcboConfig(nu=0.0)), "nu must be"),
        (tiny_experiment(n_agents=2), "population size"),
        (tiny_experiment(sweep="n_leaders", sweep_values=(3, 30)), "population size"),
        (tiny_experiment(sweep="sigma_f", sweep_values=(0.5, float("inf"))), "sigma_f must be"),
        (
            tiny_experiment(
                solver="pcbo", solver_config=PcboConfig(), sweep="sigma_f", sweep_values=(-1, 1)
            ),
            "sigma must be",
        ),
        (tiny_experiment(solver="pcbo", solver_config=PcboConfig(), n_agents=0), "population size"),
    ],
)
def test_experiment_config_validates_the_solver_config_of_every_sweep_value(cfg, message):
    # caught before any run starts, not inside a pool worker
    with pytest.raises(ValueError, match=message):
        cfg.validate()


def test_experiment_config_rejects_unknown_keys():
    data = tiny_experiment().to_dict()
    data["solver_config"]["sigma"] = 1.0  # a pcbo field on a gkbo run
    with pytest.raises(ValueError, match="solver_config.sigma"):
        ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_dict({"objectiv": "ackley2"})


@pytest.mark.parametrize("solver", ["gkbo", "pcbo"])
def test_an_absent_or_null_solver_config_means_every_default(solver):
    data = tiny_experiment(solver=solver, solver_config=None).to_dict()
    defaults = SolverConfig() if solver == "gkbo" else PcboConfig()
    data["solver_config"] = None
    assert ExperimentConfig.from_dict(data).solver_config == defaults
    del data["solver_config"]
    assert ExperimentConfig.from_dict(data).solver_config == defaults


@pytest.mark.parametrize("raw", [[], 0, "", False, [1], "n_steps", 5.0])
def test_a_solver_config_that_is_not_an_object_is_rejected(raw):
    data = tiny_experiment().to_dict()
    data["solver_config"] = raw
    with pytest.raises(ValueError, match="^solver_config must be a JSON object, got "):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize(
    "cfg",
    [
        tiny_experiment(),
        tiny_experiment(sweep="sigma_f", sweep_values=(0.1, 0.5)),
        tiny_experiment(sweep="none", sweep_values=()),
    ],
    ids=["dimension", "sigma_f", "none"],
)
def test_write_results_writes_every_result_column_and_a_config_sidecar(tmp_path, cfg):
    summary = run_experiment(cfg, workers=1)
    path = write_results(summary, tmp_path / "results.csv")

    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    assert tuple(reader.fieldnames) == CSV_HEADER
    # every number as str spells it, so floats read back exactly; no sweep is an empty field
    assert rows == [
        {
            column: "" if getattr(result, column) is None else str(getattr(result, column))
            for column in CSV_HEADER
        }
        for result in summary.results
    ]
    sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(sidecar) == cfg


def test_sidecar_records_every_runs_seconds_iterations_and_evaluations(tmp_path):
    cfg = tiny_experiment()
    summary = run_experiment(cfg, workers=1)
    path = write_results(summary, tmp_path / "results.csv")
    runs = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))["runs"]
    assert runs == [
        {
            "sweep_value": result.sweep_value,
            "seeds": list(result.seeds),
            "run_seconds": list(result.run_seconds),
            "iterations": list(result.iterations),
            "evaluations": [report.evaluations for report in result.reports],
        }
        for result in summary.results
    ]
    for record in runs:
        assert all(seconds > 0.0 for seconds in record["run_seconds"])
        assert record["evaluations"] == [
            cfg.n_agents * (steps + 1) for steps in record["iterations"]
        ]


def test_a_point_in_a_local_minimum_is_spurious():
    # rastrigin2 at d = 1 plants its minimizers at -5 and 5; rastrigin has a
    # local minimum near every integer, so -4 and 1 sit in local minima
    points = np.array([[-5.1], [-4.0], [1.0], [5.25], [4.7]])
    report = RunReport(0, False, points, 5, 0.0, 1, 0)
    minimizers = preset("rastrigin2", 1).minimizers
    assert bench_module._scores(points, minimizers, 0.25) == (True, 2, 3)
    assert evaluate_success(report, minimizers) == (True, 2)


def test_score_columns_are_the_means_over_the_runs():
    summary = run_experiment(tiny_experiment(), workers=1)
    for result, dim in zip(summary.results, (1, 2)):
        minimizers = preset("rastrigin2", dim).minimizers
        points = [report.final_consensus for report in result.reports]
        gaps = [np.abs(p[:, None, :] - minimizers[None]).max(axis=2).min(axis=1) for p in points]
        assert result.mean_spurious_points == np.mean([(g > 0.25).sum() for g in gaps])
        assert result.mean_consensus_points == np.mean([len(p) for p in points])
        assert result.mean_leader_count == np.mean([r.leader_count for r in result.reports])


@pytest.mark.parametrize(
    "token, value", [("3", 3), ("-2", -2), ("0.5", 0.5), ("1e-3", 1e-3)]
)
def test_parse_number(token, value):
    parsed = _parse_number(token)
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize("solver", ["gkbo", "pcbo"])
def test_summary_does_not_depend_on_the_worker_count(solver):
    # each run owns its scratch memory, so pooled runs share no state and
    # must reproduce the inline reports exactly; the 5 seeds per sweep value
    # go in batches of 5, 3 + 2 and 2 + 2 + 1, and both solvers' runs stall
    # at different steps within a batch
    if solver == "gkbo":
        config = SolverConfig(n_steps=60, n_leaders=3, j_stall=5, delta_stall=0.01)
    else:
        config = PcboConfig(n_steps=40, j_stall=4)
    cfg = tiny_experiment(solver=solver, solver_config=config, repetitions=5)
    inline, *pooled = (run_experiment(cfg, workers=workers) for workers in (1, 2, 3))
    assert all(len(set(result.iterations)) > 1 for result in inline.results)
    for summary in (inline, *pooled):
        for result in summary.results:
            assert result.seeds == tuple(range(11, 16))
            assert len(result.run_seconds) == 5
            assert all(seconds > 0.0 for seconds in result.run_seconds)
    for other in pooled:
        for a, b in zip(inline.results, other.results, strict=True):
            assert (a.successes, a.detected, a.iterations) == (b.successes, b.detected, b.iterations)
            for x, y in zip(a.reports, b.reports, strict=True):
                assert (x.iterations, x.stalled, x.leader_count, x.evaluations, x.seed) == (
                    y.iterations,
                    y.stalled,
                    y.leader_count,
                    y.evaluations,
                    y.seed,
                )
                assert x.best_value == y.best_value
                assert x.final_consensus.tobytes() == y.final_consensus.tobytes()


@pytest.mark.parametrize(
    "repetitions, workers, batches",
    [(4, 2, [(0, 1), (2, 3)]), (5, 2, [(0, 1, 2), (3, 4)]), (5, 3, [(0, 1), (2, 3), (4,)]),
     (2, 4, [(0,), (1,)]), (3, 1, [(0, 1, 2)])],
)
def test_pcbo_seeds_go_in_one_contiguous_batch_per_worker(repetitions, workers, batches):
    # one rule for both solvers; 24 agents in 2-d are far below the cap
    assert _seed_batches(range(repetitions), workers, 24 * 2) == batches


@pytest.mark.parametrize(
    "repetitions, workers, coordinates, sizes",
    [
        (24, 2, 600 * 2, [12, 12]),  # 600 agents at d = 2: 12 replicas fit
        (12, 2, 600 * 10, [2] * 6),  # at d = 10 only 2 do
        (4, 2, 600 * 5, [2, 2]),  # the cap binds only past 4 replicas
        (25, 2, 600 * 2, [9, 8, 8]),
        (3, 1, 20_000, [1, 1, 1]),  # one replica alone may exceed it
    ],
)
def test_no_seed_batch_stacks_more_than_the_coordinate_cap(
    repetitions, workers, coordinates, sizes
):
    batches = _seed_batches(range(100, 100 + repetitions), workers, coordinates)
    assert [len(batch) for batch in batches] == sizes
    assert [seed for batch in batches for seed in batch] == list(range(100, 100 + repetitions))


@pytest.mark.parametrize(
    "repetitions, workers, coordinates, values, sizes",
    [
        (4, 2, 600 * 5, 5, [4]),  # more values than workers: one batch per value
        (4, 2, 600 * 5, 2, [4]),  # as many values as workers
        (4, 2, 600 * 5, 1, [2, 2]),  # a single value splits as it always has
        (4, 4, 24 * 2, 3, [1, 1, 1, 1]),  # fewer values than workers: one per worker
        (2, 8, 24 * 2, 3, [1, 1]),  # at most one batch per seed
        (12, 2, 600 * 10, 5, [2] * 6),  # the coordinate cap still binds
    ],
)
def test_one_batch_per_value_only_where_the_values_cover_the_workers(
    repetitions, workers, coordinates, values, sizes
):
    batches = _seed_batches(range(repetitions), workers, coordinates, values)
    assert [len(batch) for batch in batches] == sizes
    assert [seed for batch in batches for seed in batch] == list(range(repetitions))


def test_a_sweep_with_as_many_values_as_workers_runs_one_batch_per_value(monkeypatch):
    # the pcbo benchmark's shape: 5 dimensions of 4 seeds on 2 workers
    import concurrent.futures

    built, tasks = [], []

    class InlinePool:
        def __init__(self, max_workers=None):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, submitted):
            submitted = list(submitted)
            tasks.extend((task[2], task[-1]) for task in submitted)
            return map(fn, submitted)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = tiny_experiment(
        solver="pcbo",
        solver_config=PcboConfig(n_steps=10),
        repetitions=4,
        sweep_values=(1, 2, 3, 4, 5),
    )
    summary = run_experiment(cfg, workers=2)
    seeds = tuple(range(cfg.base_seed, cfg.base_seed + 4))
    assert built == [2]
    assert tasks == [(dim, seeds) for dim in (1, 2, 3, 4, 5)]
    assert [result.seeds for result in summary.results] == [seeds] * 5


@pytest.mark.parametrize(
    "solver_config",
    [
        SolverConfig(n_steps=15, n_leaders=3),  # no run can stall before the budget
        SolverConfig(n_steps=15, n_leaders=3, j_stall=4),  # runs may stop far apart
        PcboConfig(n_steps=15, n_clusters=2, j_stall=4),
    ],
)
def test_every_solver_and_budget_goes_in_seed_batches(monkeypatch, solver_config):
    tasks = []

    def spy(task):
        tasks.append(task[-1])
        return execute(task)

    execute = bench_module._execute_run
    monkeypatch.setattr(bench_module, "_execute_run", spy)
    cfg = tiny_experiment(
        solver="gkbo" if isinstance(solver_config, SolverConfig) else "pcbo",
        solver_config=solver_config,
        repetitions=4,
    )
    run_experiment(cfg, workers=1)
    seeds = tuple(range(cfg.base_seed, cfg.base_seed + 4))
    assert tasks == [seeds] * 2  # two sweep values


@pytest.mark.parametrize("repetitions, sizes", [(2, [2]), (1, [])], ids=["pool", "inline"])
def test_the_pool_holds_no_more_workers_than_tasks(monkeypatch, repetitions, sizes):
    # a single task runs inline, with no pool at all
    import concurrent.futures

    built = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    cfg = tiny_experiment(repetitions=repetitions, sweep="none", sweep_values=())
    summary = run_experiment(cfg, workers=6)
    assert built == sizes
    assert summary.results[0].seeds == tuple(range(11, 11 + repetitions))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_agents": 3}, r"n_clusters \(4\) cannot exceed the population size \(3\)"),
        (
            {"sweep": "n_leaders", "sweep_values": (24, 25)},
            r"n_clusters \(25\) cannot exceed the population size \(24\)",
        ),
    ],
    ids=["population", "sweep"],
)
def test_a_pcbo_experiment_rejects_more_clusters_than_particles(overrides, message):
    cfg = tiny_experiment(solver="pcbo", solver_config=PcboConfig(n_steps=5), **overrides)
    with pytest.raises(ValueError, match=message):
        cfg.validate()


def test_the_default_pool_size_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(bench_module.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(bench_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert bench_module._worker_count(None) == 1
    # where the platform has no affinity mask, every CPU counts
    monkeypatch.delattr(bench_module.os, "sched_getaffinity", raising=False)
    assert bench_module._worker_count(None) == 8


@pytest.mark.parametrize("workers", [0, -1])
def test_run_experiment_rejects_a_worker_count_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(tiny_experiment(), workers=workers)


@pytest.mark.parametrize(
    "objective, sigma, base_seed",
    [("rastrigin2", 5, 0), ("ackley2", 40, 2)],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_experiment_raises_the_lowest_failing_seeds_error(
    objective, sigma, base_seed, workers
):
    # both seeds diverge and the higher one fails first; whether they share
    # a batch (one worker) or not (two), the lower seed's own error surfaces
    solver_cfg = PcboConfig(sigma=sigma, n_steps=3000)
    with pytest.raises(NumericError) as alone:
        run_pcbo(preset(objective, 1), dataclasses.replace(solver_cfg, seed=base_seed), 60)
    cfg = ExperimentConfig(
        objective=objective,
        dim=1,
        solver="pcbo",
        solver_config=solver_cfg,
        n_agents=60,
        repetitions=2,
        base_seed=base_seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(str(alone.value))}$"):
            run_experiment(cfg, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_gkbo_experiment_raises_the_lowest_failing_seeds_error(workers):
    # seed 3 fails at step 249 and seed 2 at step 262; whether they share a
    # batch (one worker) or not (two), seed 2's own error surfaces
    solver_cfg = SolverConfig(diffusion="isotropic", sigma_f=10, n_steps=400)
    spec = preset("ackley2", 2)
    with pytest.raises(NumericError) as alone:
        run_gkbo(spec, dataclasses.replace(solver_cfg, seed=2), 60)
    with pytest.raises(NumericError, match="at step 249$"):
        run_gkbo(spec, dataclasses.replace(solver_cfg, seed=3), 60)
    cfg = ExperimentConfig(
        objective="ackley2",
        dim=2,
        solver_config=solver_cfg,
        n_agents=60,
        repetitions=2,
        base_seed=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(str(alone.value))}$"):
            run_experiment(cfg, workers=workers)


def execute(solver, objective, dim, cfg, seeds, n_agents=60) -> list:
    """The ``(report, seconds)`` pairs of one harness task, run inline."""
    return bench_module._execute_run((solver, objective, dim, cfg, n_agents, seeds))


RUNS = {"gkbo": run_gkbo, "pcbo": run_pcbo}


def standalone_error(solver, objective, dim, cfg, seed) -> tuple[str, int]:
    """Message and step of the NumericError the 60-agent run with ``seed`` raises."""
    with pytest.raises(NumericError) as raised:
        RUNS[solver](preset(objective, dim), dataclasses.replace(cfg, seed=seed), 60)
    message = str(raised.value)
    return message, int(re.search(r"at step (\d+)$", message).group(1))


DIVERGING_GKBO = SolverConfig(diffusion="isotropic", sigma_f=10)


@pytest.mark.parametrize(
    "solver, objective, dim, cfg, seeds, reported",
    [
        # both fail; the higher seed fails first (step 249 vs 262)
        ("gkbo", "ackley2", 2, dataclasses.replace(DIVERGING_GKBO, n_steps=400), (2, 3), 0),
        # only the second replica fails, so the agent is counted within it
        ("gkbo", "ackley2", 2, dataclasses.replace(DIVERGING_GKBO, n_steps=255), (2, 3), 1),
        # the second replica fails at step 249, the last of the first one's budget
        ("gkbo", "ackley2", 2, dataclasses.replace(DIVERGING_GKBO, n_steps=250), (2, 3), 1),
        # both fail; the higher seed fails first (step 307 vs 318)
        ("pcbo", "rastrigin2", 1, PcboConfig(sigma=5, n_steps=3000), (0, 1), 0),
        # both fail, in different phases; the higher seed fails first (215 vs 222)
        ("pcbo", "ackley2", 1, PcboConfig(sigma=40, n_steps=3000), (2, 3), 0),
        # only the second replica fails, so the agent is counted within it
        ("pcbo", "rastrigin2", 1, PcboConfig(sigma=5, n_steps=310), (0, 1), 1),
        # the second replica fails at step 307, the last of the first one's budget
        ("pcbo", "rastrigin2", 1, PcboConfig(sigma=5, n_steps=308), (0, 1), 1),
        # the second replica fails at step 307 and the third at 318; the
        # seeds run again in batch order, so the third's error cannot surface
        ("pcbo", "rastrigin2", 1, PcboConfig(sigma=5, n_steps=320), (2, 1, 0), 1),
    ],
)
def test_a_failing_batch_raises_its_first_failing_seeds_own_error(
    solver, objective, dim, cfg, seeds, reported
):
    message, step = standalone_error(solver, objective, dim, cfg, seeds[reported])
    if reported == 0:
        assert standalone_error(solver, objective, dim, cfg, seeds[1])[1] < step
    else:
        first = RUNS[solver](preset(objective, dim), dataclasses.replace(cfg, seed=seeds[0]), 60)
        assert first.iterations == cfg.n_steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            execute(solver, objective, dim, cfg, seeds)


def test_the_seeds_after_the_first_failing_one_cannot_surface():
    # seed 3 fails at step 249 and seed 4 at 276; seed 1 would fail at 299,
    # after the budget, so only seed 3's error may surface
    cfg = dataclasses.replace(DIVERGING_GKBO, n_steps=280)
    message, step = standalone_error("gkbo", "ackley2", 2, cfg, 3)
    assert standalone_error("gkbo", "ackley2", 2, cfg, 4)[1] > step
    with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
        execute("gkbo", "ackley2", 2, cfg, (1, 3, 4))


def test_a_batch_whose_start_fails_raises_the_failing_seeds_own_error():
    # In a box of +-1.2e154 some rastrigin2 values overflow: alone, seeds 2, 3
    # and 5 start and seed 4 fails at agent 1. The batch raises at once,
    # counting the agent over its stacked rows; the harness finds seed 4.
    spec = preset("rastrigin2", 2)
    cfg = SolverConfig(init_lo=-1.2e154, init_hi=1.2e154, n_leaders=1, n_steps=0)
    for seed in (2, 3, 5):
        assert run_gkbo(spec, dataclasses.replace(cfg, seed=seed), 3).iterations == 0
    message = "objective: agent {} has a non-finite objective value"
    with pytest.raises(NumericError, match=f"^{message.format(1)}$"):
        run_gkbo(spec, dataclasses.replace(cfg, seed=4), 3)
    with pytest.raises(NumericError, match=f"^{message.format(7)}$"):
        bench_module._REPLICA_LOOPS["gkbo"](spec, cfg, 3, (2, 3, 4, 5))
    with pytest.raises(NumericError, match=f"^{message.format(1)}$"):
        execute("gkbo", "rastrigin2", 2, cfg, (2, 3, 4, 5), n_agents=3)


def test_a_pcbo_batch_that_fails_as_a_replica_settles_raises_the_failing_seeds_own_error():
    # a box at the edge of the float range: seed 486 overflows in step 75,
    # the step that settles seed 4, after it in the batch; seed 5 settles in
    # step 108, and seed 2 does not settle
    spec = preset("ackley2", 1)
    cfg = PcboConfig(sigma=1.4, n_steps=150, n_clusters=1, init_lo=-1e306, init_hi=1e306)
    with pytest.raises(NumericError, match="at step 75$") as raised:
        run_pcbo(spec, dataclasses.replace(cfg, seed=486), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(str(raised.value))}$"):
            execute("pcbo", "ackley2", 1, cfg, (5, 2, 486, 4), n_agents=3)


@pytest.mark.parametrize(
    "n_steps, seeds, calls",
    [
        (400, (2,), [(2,)]),  # a batch of one is not run again
        (400, (2, 3), [(2, 3), (2,)]),  # seed 2 fails at step 262
        (255, (2, 3), [(2, 3), (2,), (3,)]),  # seed 2 runs to the budget, seed 3 fails
    ],
)
def test_a_failing_batch_runs_its_seeds_again_up_to_the_first_failing_one(
    monkeypatch, n_steps, seeds, calls
):
    ran = []
    loop = bench_module._REPLICA_LOOPS["gkbo"]

    def spy(spec, cfg, n_agents, seeds):
        ran.append(tuple(seeds))
        return loop(spec, cfg, n_agents, seeds)

    monkeypatch.setitem(bench_module._REPLICA_LOOPS, "gkbo", spy)
    with pytest.raises(NumericError):
        execute("gkbo", "ackley2", 2, dataclasses.replace(DIVERGING_GKBO, n_steps=n_steps), seeds)
    assert ran == calls


@pytest.mark.parametrize(
    "overrides",
    [
        {"solver_config": SolverConfig(n_steps=15, n_leaders=np.int64(4))},
        {"sweep_values": np.arange(1, 3)},
    ],
    ids=["config", "sweep"],
)
def test_numpy_numbers_round_trip_through_the_sidecar(tmp_path, overrides):
    cfg = tiny_experiment(repetitions=1, **overrides)
    path = write_results(run_experiment(cfg, workers=1), tmp_path / "out.csv")
    sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(sidecar) == cfg
    assert [run["sweep_value"] for run in sidecar["runs"]] == [1, 2]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"repetitions": "3"}, "repetitions must be an integer"),
        ({"base_seed": True}, "base_seed must be an integer"),
        ({"solver_config": SolverConfig(eps="0.1")}, "eps must be a number"),
    ],
)
def test_experiment_config_checks_types_before_values(overrides, message):
    # values int() or float() would take; the CLI tests cover the JSON cases
    with pytest.raises(ValueError, match=message):
        tiny_experiment(**overrides).validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"sweep": "noise"},
            "unknown sweep 'noise'; available: none, dimension, n_leaders, sigma_f",
        ),
        ({"sweep": "none"}, "sweep_values must be empty when sweep is 'none'"),
        ({"sweep_values": ()}, "sweep 'dimension' needs at least one sweep value"),
        ({"sweep_values": (2, 1)}, "sweep_values must be strictly increasing"),
        ({"sweep_values": (1, 1)}, "sweep_values must be strictly increasing"),
        ({"solver": "pcbo"}, "solver 'pcbo' requires a PcboConfig, got SolverConfig"),
    ],
    ids=["unknown-sweep", "values-without-sweep", "sweep-without-values", "decreasing",
         "repeated", "config-of-another-solver"],
)
def test_experiment_config_rejects_an_inconsistent_sweep_or_solver_config(overrides, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tiny_experiment(**overrides).validate()


@pytest.mark.parametrize("data", [[1], "objective", None])
def test_a_config_that_is_not_an_object_is_rejected(data):
    with pytest.raises(ValueError, match="^experiment config must be a JSON object$"):
        ExperimentConfig.from_dict(data)


def test_a_flat_list_of_minimizers_is_one_per_entry_on_a_1d_run():
    report = RunReport(
        iterations=0,
        stalled=False,
        final_consensus=np.array([[-3.1], [0.0]]),
        leader_count=2,
        best_value=0.0,
        evaluations=1,
        seed=0,
    )
    assert evaluate_success(report, [-3.0, 3.0]) == (False, 1)
    assert evaluate_success(report, preset("ackley2", 1).minimizers) == (False, 1)
    message = r"^minimizers must have shape \(n_min, 1\), got \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        evaluate_success(report, [[-3.0, 3.0]])


@pytest.mark.parametrize("points", [[[np.nan, 5.0], [np.inf, 5.0]], [[0.0, -np.inf]]])
def test_evaluate_success_rejects_a_non_finite_final_consensus(points):
    # scored as nothing detected, such a run would pass as a plain miss
    report = RunReport(0, False, np.array(points), 2, 0.0, 1, 0)
    with pytest.raises(ValueError, match="^final consensus must have finite coordinates$"):
        evaluate_success(report, preset("rastrigin2", 2).minimizers)


@pytest.mark.parametrize(
    "points, shape", [(np.zeros((0, 2)), r"\(0, 2\)"), (np.zeros(2), r"\(2,\)")], ids=["empty", "1-d"]
)
def test_evaluate_success_rejects_a_final_consensus_without_points(points, shape):
    report = RunReport(0, False, points, 1, 0.0, 1, 0)
    message = rf"^final consensus must be a non-empty \(m, d\) array, got {shape}$"
    with pytest.raises(ValueError, match=message):
        evaluate_success(report, preset("rastrigin2", 2).minimizers)


@pytest.mark.parametrize(
    "minimizers, message",
    [
        (np.zeros((0, 2)), r"minimizers must have shape \(n_min, 2\), got \(0, 2\)"),
        ([[np.nan, 0.0]], "minimizers must have finite coordinates"),
        ([[np.inf, 0.0]], "minimizers must have finite coordinates"),
        (np.zeros((1, 1, 2)), r"minimizers must have shape \(n_min, 2\), got \(1, 1, 2\)"),
    ],
    ids=["empty", "nan", "inf", "3-d"],
)
def test_evaluate_success_rejects_a_malformed_minimizer_set(minimizers, message):
    # the check ObjectiveSpec applies to its own minimizers
    report = RunReport(0, False, np.array([[0.0, 0.0]]), 1, 0.0, 1, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_success(report, minimizers)


@pytest.mark.parametrize(
    "solver_config, sweep, values, field",
    [
        (SolverConfig(n_steps=3, n_leaders=3), "n_leaders", (2, 5), "n_leaders"),
        (SolverConfig(n_steps=3, n_leaders=3), "sigma_f", (0.1, 0.5), "sigma_f"),
        (PcboConfig(n_steps=3), "n_leaders", (2, 5), "n_clusters"),
        (PcboConfig(n_steps=3), "sigma_f", (0.1, 0.5), "sigma"),
    ],
)
def test_a_sweep_sets_the_field_in_its_role_on_either_solver(
    monkeypatch, solver_config, sweep, values, field
):
    configs = []

    def spy(task):
        configs.append(task[3])
        return execute(task)

    execute = bench_module._execute_run
    monkeypatch.setattr(bench_module, "_execute_run", spy)
    cfg = tiny_experiment(
        solver="gkbo" if isinstance(solver_config, SolverConfig) else "pcbo",
        solver_config=solver_config,
        repetitions=1,
        sweep=sweep,
        sweep_values=values,
    )
    run_experiment(cfg, workers=1)
    assert configs == [dataclasses.replace(solver_config, **{field: value}) for value in values]


@pytest.mark.parametrize(
    "name, message",
    [
        ("results.json", "results CSV .*results.json must not end in .json"),
        ("missing/results.csv", "output directory .*missing does not exist"),
        ("", "results CSV .* is a directory"),
    ],
)
def test_write_results_rejects_a_path_before_it_writes(tmp_path, name, message):
    summary = run_experiment(tiny_experiment(repetitions=1), workers=1)
    with pytest.raises(ValueError, match=message):
        write_results(summary, tmp_path / name)
    assert list(tmp_path.iterdir()) == []
