"""Command line interface.

Three subcommands: ``run`` executes one solver run and prints the outcome,
``bench`` runs a Monte Carlo experiment (optionally swept) and writes CSV
results, ``compare`` runs the leader-follower solver and the clustered
baseline head to head across dimensions. Exit codes: 0 success, 1 usage or
configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .bench import (
    _CONFIGS,
    _REPLICA_LOOPS,
    _SWEEPS,
    SUCCESS_THRESHOLD,
    ExperimentConfig,
    _config_as_dict,
    _config_class,
    _in_roles,
    _result_paths,
    _solver_section,
    _worker_count,
    evaluate_success,
    run_experiment,
    write_results,
)
from .errors import _integer, _require_non_negative, _require_positive
from .objectives import PRESET_NAMES, preset
from .solver import DiffusionMode, RunReport

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(flag):
    """A seed flag's value, else the GKBO_SEED environment variable's, else 0."""
    if flag is not None:
        return flag
    raw = os.environ.get("GKBO_SEED")
    if raw is None or not raw.strip():
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GKBO_SEED must be an integer, got {raw!r}") from None
    return _integer("GKBO_SEED", value, 0)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("solver options")
    group.add_argument("--nu-f", type=float, help="follower drift strength (gkbo)")
    group.add_argument("--nu-l", type=float, help="leader drift strength (gkbo)")
    group.add_argument("--sigma-f", type=float, help="follower noise strength (gkbo)")
    group.add_argument("--eps", type=float, help="time step and transition probability (gkbo)")
    group.add_argument("--n-leaders", type=int, help="target leader count (gkbo)")
    group.add_argument("--nu", type=float, help="drift strength (pcbo)")
    group.add_argument("--sigma", type=float, help="noise strength (pcbo)")
    group.add_argument("--n-clusters", type=int, help="cluster count (pcbo)")
    group.add_argument("--alpha", type=float, help="softmax sharpness")
    group.add_argument("--n-steps", type=int, help="step budget")
    group.add_argument("--delta-stall", type=float, help="stall tolerance (max norm)")
    group.add_argument("--j-stall", type=int, help="consecutive quiet steps to stop")
    group.add_argument(
        "--diffusion", choices=tuple(mode.value for mode in DiffusionMode), help="noise shape"
    )
    group.add_argument("--init-lo", type=float, help="initialization box lower bound")
    group.add_argument("--init-hi", type=float, help="initialization box upper bound")


def _solver_overrides(args, solver) -> dict:
    """The solver flags given, by field; ValueError for an unknown solver or another's flag.

    Every field of a solver config but ``seed`` has the flag of its name.
    """
    own = {field.name for field in dataclasses.fields(_config_class(solver))}
    overrides = {}
    for config_cls in _CONFIGS.values():
        for field in dataclasses.fields(config_cls):
            value = getattr(args, field.name, None)
            if field.name == "seed" or value is None:
                continue
            if field.name not in own:
                flag = "--" + field.name.replace("_", "-")
                raise ValueError(f"{flag} does not apply to the {solver!r} solver")
            overrides[field.name] = value
    return overrides


def _experiment(args, data: dict, seed) -> ExperimentConfig:
    """The checked experiment of ``data``, a config file's object, with the flags laid over it.

    ``seed`` is the seed flag's value; without it ``data``'s ``base_seed``
    stands, else the one :func:`_seed` falls back to.
    """
    own_sweep = data.get("sweep", ExperimentConfig.sweep)
    for name in ("objective", "dim", "solver", "n_agents", "repetitions", "sweep"):
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    if getattr(args, "sweep_values", None) is not None:
        data["sweep_values"] = _parse_number_list(args.sweep_values, "--sweep-values")
    elif getattr(args, "sweep", None) not in (None, own_sweep):
        data.pop("sweep_values", None)  # the file's sweep values go with its sweep
    if seed is not None or "base_seed" not in data:
        data["base_seed"] = _seed(seed)
    overrides = _solver_overrides(args, data.get("solver", ExperimentConfig.solver))
    if overrides:
        data["solver_config"] = {**_solver_section(data), **overrides}
    cfg = ExperimentConfig.from_dict(data)
    cfg.validate()
    return cfg


def _parse_number(token: str):
    """An int if ``token`` spells one, else a float; ValueError names the token."""
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            raise ValueError(f"expected a number, got {token!r}") from None


def _parse_number_list(text: str, flag: str) -> list:
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError(f"{flag} needs at least one comma-separated value")
    return [_parse_number(token) for token in tokens]


def _print_report(report: RunReport, minimizers, threshold: float) -> None:
    success, detected = evaluate_success(report, minimizers, threshold)
    print(f"iterations: {report.iterations}")
    print(f"stalled: {str(report.stalled).lower()}")
    print(f"evaluations: {report.evaluations}")
    print(f"leader count: {report.leader_count}")
    print(f"best value: {report.best_value}")
    print(f"consensus points ({report.final_consensus.shape[0]} distinct):")
    for row in report.final_consensus:
        print("  [" + ", ".join(f"{coord:.6f}" for coord in row) + "]")
    print(f"detected minimizers: {detected}/{minimizers.shape[0]} (threshold {threshold})")
    print(f"success: {str(success).lower()}")


def _cmd_run(args) -> int:
    cfg = _experiment(args, {"repetitions": 1}, args.seed)
    # checked before anything prints or runs; evaluate_success would check it after the run
    _require_non_negative(threshold=args.threshold)
    config = dataclasses.replace(cfg.solver_config, seed=cfg.base_seed)
    effective = {
        "command": "run",
        "objective": cfg.objective,
        "dim": cfg.dim,
        "solver": cfg.solver,
        "n_agents": cfg.n_agents,
        "threshold": float(args.threshold),
        "solver_config": _config_as_dict(config),
    }
    print(json.dumps(effective, indent=2))
    spec = preset(cfg.objective, cfg.dim)
    # a batch of one seed: what run_gkbo and run_pcbo are
    (report,) = _REPLICA_LOOPS[cfg.solver](spec, config, cfg.n_agents, (cfg.base_seed,))
    _print_report(report, spec.minimizers, args.threshold)
    return 0


def _cmd_bench(args) -> int:
    if args.config is not None:
        config_path = Path(args.config)
        try:
            text = config_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read config file {config_path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in config file {config_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
    else:
        data = {}
    cfg = _experiment(args, data, args.base_seed)
    workers = _worker_count(args.workers)
    _result_paths(args.output)
    print(json.dumps(cfg.to_dict(), indent=2))
    summary = run_experiment(cfg, workers=workers)
    path = write_results(summary, args.output)
    print(f"wrote {path} and {path.with_suffix('.json')}")
    return 0


def _cmd_compare(args) -> int:
    dims = [_integer("--dims", dim, 1) for dim in _parse_number_list(args.dims, "--dims")]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("--dims must be strictly increasing")
    # under the flags' names, not the config fields they set
    _require_positive(**{"--nu": args.both_nu})
    _require_non_negative(**{"--sigma": args.both_sigma})
    _integer("--n-leaders", args.both_n_leaders, 1)
    shared = {"nu_f": args.both_nu, "sigma_f": args.both_sigma, "n_leaders": args.both_n_leaders}
    # dim is the first dimension in the sweeps too, as each sidecar records it
    sweep = {} if len(dims) == 1 else {"sweep": "dimension", "sweep_values": dims}
    experiments = {
        solver: _experiment(
            args,
            {"dim": dims[0], "solver": solver, **sweep, "solver_config": _in_roles(solver, shared)},
            args.base_seed,
        )
        for solver in _CONFIGS
    }
    workers = _worker_count(args.workers)
    # only once both experiments and the pool size are valid
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out_dir}: {exc}") from exc
    outputs = {solver: _result_paths(out_dir / f"{solver}.csv")[0] for solver in experiments}
    effective = {
        "command": "compare",
        "objective": args.objective,
        "dims": dims,
        "n_agents": args.n_agents,
        "repetitions": args.repetitions,
        "nu": args.both_nu,
        "sigma": args.both_sigma,
        "n_leaders": args.both_n_leaders,
        "base_seed": experiments["gkbo"].base_seed,
        "output_dir": str(out_dir),
    }
    print(json.dumps(effective, indent=2))

    means = {}
    for name, experiment in experiments.items():
        summary = run_experiment(experiment, workers=workers)
        path = write_results(summary, outputs[name])
        rates = [result.success_rate for result in summary.results]
        means[name] = sum(rates) / len(rates)
        print(f"wrote {path}")
    print("mean success rate: " + " ".join(f"{name}={mean:.3f}" for name, mean in means.items()))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gkbo", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    run = commands.add_parser(
        "run", help="execute one solver run", description="Execute one solver run."
    )
    run.add_argument("--objective", choices=PRESET_NAMES, default="rastrigin2")
    run.add_argument("--dim", type=int, default=2)
    run.add_argument("--solver", choices=tuple(_CONFIGS), default="gkbo")
    run.add_argument("--n-agents", type=int, default=600)
    run.add_argument("--seed", type=int, help="overrides the GKBO_SEED environment variable")
    run.add_argument(
        "--threshold",
        type=float,
        default=SUCCESS_THRESHOLD,
        help="max-norm radius for counting a minimizer as detected",
    )
    _add_solver_flags(run)
    run.set_defaults(func=_cmd_run)

    bench = commands.add_parser(
        "bench",
        help="run a Monte Carlo experiment and write CSV results",
        description="Run a Monte Carlo experiment and write CSV results. "
        "Flags override the JSON config file.",
    )
    bench.add_argument("--config", help="JSON experiment config file")
    bench.add_argument("--output", default="results.csv", help="CSV output path")
    bench.add_argument("--workers", type=int, help="process pool size (default: usable CPUs)")
    bench.add_argument("--objective", choices=PRESET_NAMES)
    bench.add_argument("--dim", type=int)
    bench.add_argument("--solver", choices=tuple(_CONFIGS))
    bench.add_argument("--n-agents", type=int)
    bench.add_argument("--repetitions", type=int)
    bench.add_argument("--sweep", choices=_SWEEPS)
    bench.add_argument("--sweep-values", help="comma-separated sweep values")
    bench.add_argument(
        "--base-seed",
        type=int,
        help="seed of repetition 0; repetition r adds r. Overrides the config file's "
        "base_seed, which overrides the GKBO_SEED environment variable",
    )
    _add_solver_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    compare = commands.add_parser(
        "compare",
        help="run both solvers head to head across dimensions",
        description="Run the leader-follower solver and the clustered baseline "
        "on the same objective across dimensions and report mean success rates.",
    )
    compare.add_argument("--objective", choices=PRESET_NAMES, default="ackley2")
    compare.add_argument("--dims", default="1,2,3,4,5", help="comma-separated dimensions")
    compare.add_argument("--n-agents", type=int, default=600)
    compare.add_argument("--repetitions", type=int, default=20)
    # dests apart from the solver fields, which _solver_overrides reads as one solver's flags
    for flag, kind, default, text in (
        ("--nu", float, 1.0, "drift strength for both solvers"),
        ("--sigma", float, 0.5, "noise strength for both solvers"),
        ("--n-leaders", int, 4, "leader count and cluster count"),
    ):
        name = flag[2:].replace("-", "_")
        compare.add_argument(
            flag, type=kind, default=default, dest=f"both_{name}", metavar=name.upper(), help=text
        )
    compare.add_argument(
        "--base-seed",
        type=int,
        help="seed of repetition 0; repetition r adds r. Overrides the GKBO_SEED "
        "environment variable",
    )
    compare.add_argument("--workers", type=int)
    compare.add_argument("--output-dir", default="compare_results")
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 on --help and 1 on a usage error
        return exc.code
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
