import json

import pytest

import gkbo.cli as cli_module
from gkbo.bench import read_results
from gkbo.cli import main

TINY_RUN = ["--n-agents", "30", "--n-steps", "10"]


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("GKBO_SEED", raising=False)


def effective_config(stdout: str) -> dict:
    """The JSON object the command prints before it runs."""
    return json.JSONDecoder().raw_decode(stdout)[0]


@pytest.mark.parametrize("solver", ["gkbo", "pcbo"])
def test_run_succeeds(solver, capsys):
    assert main(["run", "--solver", solver, "--seed", "3", *TINY_RUN]) == 0
    out = capsys.readouterr().out
    printed = effective_config(out)
    assert printed["solver"] == solver
    assert printed["solver_config"]["seed"] == 3
    assert printed["solver_config"]["n_steps"] == 10
    assert "iterations: 10" in out


def test_run_seed_comes_from_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("GKBO_SEED", "7")
    assert main(["run", *TINY_RUN]) == 0
    assert effective_config(capsys.readouterr().out)["solver_config"]["seed"] == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--no-such-flag"],
        ["run", "--sigma", "0.5"],  # a pcbo flag on the gkbo solver
        ["run", "--dim", "0"],
        ["run", "--n-leaders", "50", *TINY_RUN],  # more leaders than agents
        ["bench", "--sweep", "dimension", "--sweep-values", "1,x"],
        ["compare", "--dims", "1,2.5"],
        [],
    ],
)
def test_usage_and_configuration_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err


def test_invalid_environment_seed_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("GKBO_SEED", "seven")
    assert main(["run", *TINY_RUN]) == 1
    assert "GKBO_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["gkbo", "pcbo"])
def test_an_empty_population_exits_1(solver, capsys):
    assert main(["run", "--solver", solver, "--n-agents", "0"]) == 1
    assert "population size must be an integer of at least 1, got 0" in capsys.readouterr().err


def test_diverging_run_exits_2(capsys):
    argv = ["run", "--objective", "ackley2", "--diffusion", "isotropic", "--sigma-f", "10"]
    assert main([*argv, "--n-agents", "60", "--n-steps", "400"]) == 2
    assert "runtime error: interaction_step: agent 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["bench", "--output", "out.csv"], ["compare", "--output-dir", "."]],
    ids=["bench", "compare"],
)
def test_a_worker_count_below_one_exits_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--workers", "-1"]) == 1
    assert "error: workers must be at least 1, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"sweep": "sigma_f", "sweep_values": [2, "a"]}, "sigma_f sweep values must be numbers"),
        ({"dim": [2]}, "dim must be an integer"),
        ({"dim": 2.5}, "dim must be an integer, got 2.5"),
        ({"n_agents": None}, "n_agents must be an integer, got None"),
        ({"sweep": "dimension", "sweep_values": 3}, "sweep_values must be a list"),
        ({"solver_config": {"n_steps": None}}, "n_steps must be an integer"),
    ],
)
def test_bench_config_of_the_wrong_type_exits_1(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["bench", "--config", str(path), "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--threshold", "-1"], "threshold must be finite and non-negative, got -1.0"),
        (["--threshold", "nan"], "threshold must be finite and non-negative, got nan"),
        (["--n-leaders", "50"], "n_leaders (50) cannot exceed the population size (30)"),
        (["--solver", "pcbo", "--sigma", "-1"], "sigma must be finite and non-negative"),
    ],
    ids=["negative-threshold", "nan-threshold", "leaders", "pcbo-sigma"],
)
def test_run_rejects_a_bad_setting_before_it_prints_or_runs(argv, message, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli_module, "run_gkbo", never)
    monkeypatch.setattr(cli_module, "run_pcbo", never)
    assert main(["run", *TINY_RUN, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("flags", [[], ["--n-steps", "5"]], ids=["config", "flag"])
@pytest.mark.parametrize("raw", [[], 0, "", False])
def test_bench_rejects_a_solver_config_that_is_not_an_object(raw, flags, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"solver_config": raw}), encoding="utf-8")
    argv = ["bench", "--config", str(path), "--output", str(tmp_path / "out.csv"), *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: solver_config must be a JSON object, got ")
    assert not (tmp_path / "out.csv").exists()


def test_bench_reads_a_null_solver_config_as_the_defaults_under_a_flag(tmp_path, capsys):
    path = tmp_path / "config.json"
    config = {"solver_config": None, "n_agents": 30, "repetitions": 1}
    path.write_text(json.dumps(config), encoding="utf-8")
    output = tmp_path / "out.csv"
    argv = ["bench", "--config", str(path), "--output", str(output), "--workers", "1"]
    assert main([*argv, "--n-steps", "5"]) == 0
    printed = effective_config(capsys.readouterr().out)["solver_config"]
    assert printed["n_steps"] == 5 and printed["n_leaders"] == 12
    assert read_results(output)[0]["mean_iterations"] == 5


@pytest.mark.parametrize(
    "argv",
    [["--workers", "0"], ["--n-leaders", "50", "--n-agents", "30"], ["--sigma", "-1"]],
    ids=["workers", "leaders", "sigma"],
)
def test_compare_validates_before_it_creates_the_output_dir(argv, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["compare", *argv, "--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


def test_bench_writes_results_and_sidecar(tmp_path, capsys):
    output = tmp_path / "out.csv"
    argv = ["bench", "--output", str(output), "--repetitions", "2", "--workers", "1"]
    assert main([*argv, "--sweep", "dimension", "--sweep-values", "1,2", *TINY_RUN]) == 0
    rows = read_results(output)
    assert [row["sweep_value"] for row in rows] == [1, 2]
    sidecar = json.loads(output.with_suffix(".json").read_text(encoding="utf-8"))
    runs = sidecar.pop("runs")
    assert sidecar == effective_config(capsys.readouterr().out)
    assert sidecar["solver_config"]["n_steps"] == 10
    assert [run["sweep_value"] for run in runs] == [1, 2]
    assert all(len(run["run_seconds"]) == 2 for run in runs)


def test_compare_writes_both_solvers_results(tmp_path, capsys):
    argv = ["compare", "--dims", "1,2", "--repetitions", "1", "--n-agents", "40"]
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    for solver in ("gkbo", "pcbo"):
        rows = read_results(tmp_path / f"{solver}.csv")
        assert [row["sweep_value"] for row in rows] == [1, 2]
        sidecar = json.loads((tmp_path / f"{solver}.json").read_text(encoding="utf-8"))
        assert (sidecar["solver"], sidecar["n_agents"], sidecar["repetitions"]) == (solver, 40, 1)
    assert "mean success rate: gkbo=" in capsys.readouterr().out
