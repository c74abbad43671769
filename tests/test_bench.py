import dataclasses
import json
import re
import warnings

import pytest

from gkbo.bench import (
    CSV_HEADER,
    ExperimentConfig,
    _parse_number,
    _seed_batches,
    read_results,
    run_experiment,
    write_results,
)
from gkbo.errors import NumericError
from gkbo.objectives import preset
from gkbo.pcbo import PcboConfig, run_pcbo
from gkbo.solver import DiffusionMode, SolverConfig


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
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert isinstance(back.solver_config.diffusion, DiffusionMode)
    assert back.to_json() == cfg.to_json()


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
    with pytest.raises(ValueError, match="invalid JSON"):
        ExperimentConfig.from_json("{")


def test_write_then_read_results_round_trip(tmp_path):
    cfg = tiny_experiment()
    summary = run_experiment(cfg, workers=1)
    path = write_results(summary, tmp_path / "results.csv")

    assert path.read_text(encoding="utf-8").splitlines()[0] == ",".join(CSV_HEADER)
    rows = read_results(path)
    assert len(rows) == len(summary.results)
    for row, result in zip(rows, summary.results):
        assert row == {
            "sweep_value": result.sweep_value,
            "success_rate": result.success_rate,
            "mean_iterations": result.mean_iterations,
            "mean_detected_minima": result.mean_detected_minima,
            "repetitions": result.repetitions,
            "base_seed": result.base_seed,
        }
    sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(sidecar) == cfg


def test_read_results_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected results header"):
        read_results(path)
    path.write_text(",".join(CSV_HEADER) + "\nx,1,2,3,4,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected a number, got 'x'"):
        read_results(path)


@pytest.mark.parametrize(
    "token, value", [("3", 3), ("-2", -2), ("0.5", 0.5), ("1e-3", 1e-3)]
)
def test_parse_number(token, value):
    parsed = _parse_number(token)
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize("solver", ["gkbo", "pcbo"])
def test_summary_does_not_depend_on_the_worker_count(solver):
    # each run owns its scratch memory, so pooled runs share no state and
    # must reproduce the inline reports exactly; pcbo's 5 seeds per sweep
    # value go in batches of 5, 3 + 2 and 2 + 2 + 1, and stall at different
    # steps within a batch
    if solver == "gkbo":
        config = SolverConfig(n_steps=15, n_leaders=3)
    else:
        config = PcboConfig(n_steps=40, j_stall=4)
    cfg = tiny_experiment(solver=solver, solver_config=config, repetitions=5)
    inline, *pooled = (run_experiment(cfg, workers=workers) for workers in (1, 2, 3))
    if solver == "pcbo":
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
    assert _seed_batches(range(repetitions), "pcbo", workers) == batches
    assert _seed_batches(range(repetitions), "gkbo", workers) == [
        (seed,) for seed in range(repetitions)
    ]


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
