import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkbo.cli as cli_module
from gkbo import CSV_HEADER
from gkbo.cli import main
from gkbo.pcbo import PcboConfig
from gkbo.solver import SolverConfig

TINY_RUN = ["--n-agents", "30", "--n-steps", "10"]


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("GKBO_SEED", raising=False)


def effective_config(stdout: str) -> dict:
    """The JSON object the command prints before it runs."""
    return json.JSONDecoder().raw_decode(stdout)[0]


def csv_rows(path) -> list[dict]:
    """The rows of a results CSV, by column name."""
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


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
        ({"objective": "sphere"}, "unknown objective preset 'sphere'; available: ackley2, ackley4"),
    ],
)
def test_bench_config_of_the_wrong_type_exits_1(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["bench", "--config", str(path), "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_bench_config_that_is_not_json_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    assert main(["bench", "--config", str(path), "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: invalid JSON in config file {path}" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "content, flags, message",
    [
        (
            "{}",
            ["--sweep", "dimension", "--sweep-values", ","],
            "--sweep-values needs at least one comma-separated value",
        ),
        (None, [], "cannot read config file {path}: "),  # the config path is a directory
        ("[1]", [], "config file {path} must hold a JSON object"),
    ],
    ids=["no-sweep-values", "config-directory", "config-list"],
)
def test_bench_rejects_empty_sweep_values_or_a_config_that_is_no_object(
    content, flags, message, tmp_path, capsys
):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content, encoding="utf-8")
    argv = ["bench", "--config", str(path), "--output", str(tmp_path / "out.csv"), *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: " + message.format(path=path))
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--threshold", "-1"], "threshold must be finite and non-negative, got -1.0"),
        (["--threshold", "nan"], "threshold must be finite and non-negative, got nan"),
        (["--n-leaders", "50"], "n_leaders (50) cannot exceed the population size (30)"),
        (["--solver", "pcbo", "--sigma", "-1"], "sigma must be finite and non-negative"),
        (
            ["--solver", "pcbo", "--n-clusters", "31"],
            "n_clusters (31) cannot exceed the population size (30)",
        ),
    ],
    ids=["negative-threshold", "nan-threshold", "leaders", "pcbo-sigma", "pcbo-clusters"],
)
def test_run_rejects_a_bad_setting_before_it_prints_or_runs(argv, message, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setitem(cli_module._REPLICA_LOOPS, "gkbo", never)
    monkeypatch.setitem(cli_module._REPLICA_LOOPS, "pcbo", never)
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
    assert csv_rows(output)[0]["mean_iterations"] == "5.0"


def test_a_sweep_none_flag_overrides_a_config_files_sweep(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": "dimension", "sweep_values": [1, 2]}), encoding="utf-8")
    output = tmp_path / "out.csv"
    argv = ["bench", "--config", str(path), "--output", str(output), "--sweep", "none"]
    assert main([*argv, "--repetitions", "1", "--workers", "1", *TINY_RUN]) == 0
    printed = effective_config(capsys.readouterr().out)
    assert (printed["sweep"], printed["sweep_values"]) == ("none", [])
    assert [row["sweep_value"] for row in csv_rows(output)] == [""]
    # sweep values given with the flag are still checked against it
    assert main([*argv, "--sweep-values", "1", *TINY_RUN]) == 1
    assert "error: sweep_values must be empty when sweep is 'none'" in capsys.readouterr().err


def test_a_sweep_flag_naming_another_sweep_drops_a_config_files_values(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": "dimension", "sweep_values": [1, 2]}), encoding="utf-8")
    output = tmp_path / "out.csv"
    argv = ["bench", "--config", str(path), "--output", str(output), "--workers", "1", *TINY_RUN]
    assert main([*argv, "--repetitions", "1", "--sweep", "n_leaders"]) == 1
    assert "error: sweep 'n_leaders' needs at least one sweep value" in capsys.readouterr().err
    assert not output.exists()
    # a flag naming the file's own sweep keeps the file's values
    assert main([*argv, "--repetitions", "1", "--sweep", "dimension"]) == 0
    assert [row["sweep_value"] for row in csv_rows(output)] == ["1", "2"]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dims", "2,1"], "--dims must be strictly increasing"),
        (["--dims", "1,1"], "--dims must be strictly increasing"),
        (["--dims", "0"], "--dims must be at least 1, got 0"),
        (["--dims", "1.5"], "--dims must be an integer, got 1.5"),
        (["--nu", "0"], "--nu must be finite and positive, got 0.0"),
        (["--nu", "nan"], "--nu must be finite and positive, got nan"),
        (["--sigma", "-1"], "--sigma must be finite and non-negative, got -1.0"),
        (["--n-leaders", "0"], "--n-leaders must be at least 1, got 0"),
    ],
    ids=[
        "decreasing", "repeated", "zero-dim", "fractional-dim", "nu", "nan-nu", "sigma", "leaders"
    ],
)
def test_compare_names_the_flag_of_a_bad_shared_setting(argv, message, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["compare", *argv, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_bench_writes_results_and_sidecar(tmp_path, capsys):
    output = tmp_path / "out.csv"
    argv = ["bench", "--output", str(output), "--repetitions", "2", "--workers", "1"]
    assert main([*argv, "--sweep", "dimension", "--sweep-values", "1,2", *TINY_RUN]) == 0
    rows = csv_rows(output)
    assert [row["sweep_value"] for row in rows] == ["1", "2"]
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
        rows = csv_rows(tmp_path / f"{solver}.csv")
        assert [row["sweep_value"] for row in rows] == ["1", "2"]
        sidecar = json.loads((tmp_path / f"{solver}.json").read_text(encoding="utf-8"))
        assert (sidecar["solver"], sidecar["n_agents"], sidecar["repetitions"]) == (solver, 40, 1)
    assert "mean success rate: gkbo=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--output", "r.json"], "results CSV r.json must not end in .json, its sidecar's suffix"),
        (["--output", "missing/r.csv"], "output directory missing does not exist"),
        (["--output", "results"], "results CSV results is a directory"),
        (["--output", "r.csv"], "results sidecar r.json is a directory"),
        (["--workers", "0"], "workers must be at least 1, got 0"),
    ],
    ids=["sidecar-name", "missing-dir", "dir", "sidecar-dir", "workers"],
)
def test_bench_rejects_a_bad_output_or_pool_before_it_prints_or_runs(
    flags, message, tmp_path, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli_module, "run_experiment", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    (tmp_path / "r.json").mkdir()
    assert main(["bench", "--output", "out.csv", *TINY_RUN, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert [path for path in tmp_path.rglob("*") if not path.is_dir()] == []


@pytest.mark.parametrize(
    "out_dir, made, message",
    [
        ("taken", None, "cannot create output directory taken: "),
        ("taken/sub", None, "cannot create output directory taken/sub: "),
        ("out", "gkbo.csv", "results CSV out/gkbo.csv is a directory\n"),
        ("out", "pcbo.json", "results sidecar out/pcbo.json is a directory\n"),
    ],
    ids=["dir-is-a-file", "dir-under-a-file", "csv-dir", "sidecar-dir"],
)
def test_compare_rejects_a_bad_output_before_it_prints_or_runs(
    out_dir, made, message, tmp_path, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli_module, "run_experiment", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    if made is not None:
        (tmp_path / out_dir / made).mkdir(parents=True)
    argv = ["compare", "--dims", "1,2", "--repetitions", "1", "--n-agents", "20"]
    assert main([*argv, "--output-dir", out_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert [path for path in tmp_path.rglob("*") if not path.is_dir()] == [tmp_path / "taken"]


@pytest.mark.parametrize(
    "flags", [[], ["--nu-f", "1"], ["--nu", "1"]], ids=["no-flag", "gkbo-flag", "pcbo-flag"]
)
@pytest.mark.parametrize("solver", ["nope", ["gkbo"]])
def test_bench_reports_an_unknown_solver_under_any_flag(solver, flags, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"solver": solver}), encoding="utf-8")
    argv = ["bench", "--config", str(path), "--output", str(tmp_path / "out.csv")]
    assert main([*argv, *flags]) == 1
    message = f"error: unknown solver {solver!r}; available: gkbo, pcbo\n"
    assert capsys.readouterr().err == message


def test_compare_sets_each_shared_setting_on_the_field_in_its_role(tmp_path, capsys):
    argv = ["compare", "--dims", "1", "--repetitions", "1", "--n-agents", "20", "--workers", "1"]
    shared = ["--nu", "1.5", "--sigma", "0.3", "--n-leaders", "3"]
    assert main([*argv, *shared, "--output-dir", str(tmp_path)]) == 0
    roles = {"gkbo": ("nu_f", "sigma_f", "n_leaders"), "pcbo": ("nu", "sigma", "n_clusters")}
    for solver, names in roles.items():
        sidecar = json.loads((tmp_path / f"{solver}.json").read_text(encoding="utf-8"))
        assert [sidecar["solver_config"][name] for name in names] == [1.5, 0.3, 3]


@pytest.mark.parametrize("command", ["run", "bench"])
def test_every_solver_field_but_the_seed_has_one_flag_and_every_solver_flag_a_field(command):
    fields = {
        field.name
        for config_cls in (SolverConfig, PcboConfig)
        for field in dataclasses.fields(config_cls)
        if field.name != "seed"
    }
    subcommands = next(
        action for action in cli_module._build_parser()._actions if action.dest == "command"
    )
    parser = subcommands.choices[command]
    flags = {}
    for action in parser._actions:
        for option in action.option_strings:
            flags.setdefault(action.dest, []).append(option)
    for name in fields:
        assert flags.get(name) == ["--" + name.replace("_", "-")], name
    (group,) = [group for group in parser._action_groups if group.title == "solver options"]
    assert sorted(action.dest for action in group._group_actions) == sorted(fields)


RUN_STDOUT = {
    "gkbo": """\
{
  "command": "run",
  "objective": "rastrigin2",
  "dim": 2,
  "solver": "gkbo",
  "n_agents": 30,
  "threshold": 0.25,
  "solver_config": {
    "nu_f": 1.0,
    "nu_l": 2.0,
    "sigma_f": 2.5,
    "eps": 0.1,
    "alpha": 5000000.0,
    "n_leaders": 12,
    "n_steps": 10,
    "delta_stall": 0.0001,
    "j_stall": 1000,
    "diffusion": "anisotropic",
    "seed": 3,
    "init_lo": -10.0,
    "init_hi": 10.0
  }
}
iterations: 10
stalled: false
evaluations: 330
leader count: 16
best value: -5.27536201277943
consensus points (16 distinct):
  [-8.287017, -5.263790]
  [6.025489, 1.643241]
  [-3.991477, -4.214716]
  [4.756756, 9.125345]
  [-8.041350, -2.933939]
  [7.628722, 1.449245]
  [-2.515123, -8.182946]
  [3.210001, 8.629277]
  [-4.208093, -2.170660]
  [2.850785, 8.282391]
  [-0.330970, -5.931291]
  [6.597737, 3.153044]
  [3.017907, 6.216591]
  [7.332561, 1.083167]
  [-1.106489, -7.215413]
  [7.322734, -0.891013]
detected minimizers: 0/2 (threshold 0.25)
success: false
""",
    "pcbo": """\
{
  "command": "run",
  "objective": "rastrigin2",
  "dim": 2,
  "solver": "pcbo",
  "n_agents": 30,
  "threshold": 0.25,
  "solver_config": {
    "nu": 1.0,
    "sigma": 0.5,
    "alpha": 5000000.0,
    "n_clusters": 4,
    "n_steps": 10,
    "delta_stall": 0.0001,
    "j_stall": 1000,
    "diffusion": "anisotropic",
    "seed": 3,
    "init_lo": -10.0,
    "init_hi": 10.0
  }
}
iterations: 10
stalled: false
evaluations: 330
leader count: 4
best value: -8.126401808250108
consensus points (4 distinct):
  [-4.005789, -6.990147]
  [-4.009584, -6.090110]
  [-0.251125, -5.275765]
  [-4.031213, -0.815326]
detected minimizers: 0/2 (threshold 0.25)
success: false
""",
}


@pytest.mark.parametrize("solver", ["gkbo", "pcbo"])
def test_run_prints_exactly_the_pinned_text(solver, capsys):
    assert main(["run", "--solver", solver, "--seed", "3", *TINY_RUN]) == 0
    assert capsys.readouterr().out == RUN_STDOUT[solver]


def test_python_dash_m_gkbo_prints_what_main_prints(capsys):
    argv = ["run", "--n-agents", "24", "--n-steps", "5", "--seed", "0"]
    assert main(argv) == 0
    src = str(Path(cli_module.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    done = subprocess.run(
        [sys.executable, "-m", "gkbo", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == capsys.readouterr().out


BENCH_CONFIG_STDOUT = """\
{
  "objective": "rastrigin2",
  "dim": 2,
  "solver": "gkbo",
  "n_agents": 30,
  "repetitions": 2,
  "sweep": "dimension",
  "sweep_values": [
    1,
    2
  ],
  "base_seed": 0,
  "solver_config": {
    "nu_f": 1.0,
    "nu_l": 2.0,
    "sigma_f": 2.5,
    "eps": 0.1,
    "alpha": 5000000.0,
    "n_leaders": 12,
    "n_steps": 10,
    "delta_stall": 0.0001,
    "j_stall": 1000,
    "diffusion": "anisotropic",
    "seed": 0,
    "init_lo": -10.0,
    "init_hi": 10.0
  }
}
"""


def test_bench_writes_exactly_the_pinned_csv(tmp_path, capsys):
    output = tmp_path / "out.csv"
    argv = ["bench", "--output", str(output), "--repetitions", "2", "--workers", "1"]
    assert main([*argv, "--sweep", "dimension", "--sweep-values", "1,2", *TINY_RUN]) == 0
    wrote = f"wrote {output} and {output.with_suffix('.json')}\n"
    assert capsys.readouterr().out == BENCH_CONFIG_STDOUT + wrote
    assert output.read_bytes() == (
        b"sweep_value,success_rate,mean_iterations,mean_detected_minima,repetitions,base_seed,"
        b"mean_consensus_points,mean_spurious_points,mean_leader_count\n"
        b"1,0.5,10.0,1.5,2,0,18.0,15.0,18.0\n"
        b"2,0.0,10.0,0.0,2,0,17.0,17.0,17.0\n"
    )


COMPARE_STDOUT = """\
{
  "command": "compare",
  "objective": "ackley2",
  "dims": [
    1,
    2
  ],
  "n_agents": 20,
  "repetitions": 1,
  "nu": 1.0,
  "sigma": 0.5,
  "n_leaders": 4,
  "base_seed": 0,
  "output_dir": "{out}"
}
wrote {out}/gkbo.csv
wrote {out}/pcbo.csv
mean success rate: gkbo=0.000 pcbo=0.000
"""

COMPARE_SIDECAR_CONFIG = {
    solver: {
        "objective": "ackley2",
        "dim": 1,
        "solver": solver,
        "n_agents": 20,
        "repetitions": 1,
        "sweep": "dimension",
        "sweep_values": [1, 2],
        "base_seed": 0,
        "solver_config": {
            **roles,
            "n_steps": 10000,
            "delta_stall": 0.0001,
            "j_stall": 1000,
            "diffusion": "anisotropic",
            "seed": 0,
            "init_lo": -10.0,
            "init_hi": 10.0,
        },
    }
    for solver, roles in [
        (
            "gkbo",
            {
                "nu_f": 1.0,
                "nu_l": 2.0,
                "sigma_f": 0.5,
                "eps": 0.1,
                "alpha": 5000000.0,
                "n_leaders": 4,
            },
        ),
        ("pcbo", {"nu": 1.0, "sigma": 0.5, "alpha": 5000000.0, "n_clusters": 4}),
    ]
}

COMPARE_CSV = {
    "gkbo": b"1,0.0,1168.0,0.0,1,0,17.0,17.0,17.0\n2,0.0,1250.0,0.0,1,0,15.0,15.0,15.0\n",
    "pcbo": b"1,0.0,1012.0,1.0,1,0,4.0,2.0,4.0\n2,0.0,1020.0,1.0,1,0,4.0,2.0,4.0\n",
}


def test_compare_writes_exactly_the_pinned_output(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    argv = ["compare", "--dims", "1,2", "--repetitions", "1", "--n-agents", "20", "--workers", "1"]
    assert main([*argv, "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out == COMPARE_STDOUT.replace("{out}", str(out_dir))
    header = ",".join(CSV_HEADER).encode() + b"\n"
    for solver, rows in COMPARE_CSV.items():
        assert (out_dir / f"{solver}.csv").read_bytes() == header + rows
        sidecar = json.loads((out_dir / f"{solver}.json").read_text(encoding="utf-8"))
        del sidecar["runs"]  # run_seconds are wall times
        assert sidecar == COMPARE_SIDECAR_CONFIG[solver]
