"""Monte Carlo experiment harness.

Runs repeated seeded solver runs, optionally sweeping one quantity
(dimension, leader/cluster count, or noise strength), scores each run against
the objective's planted minimizers, and writes aggregate rows to CSV with a
JSON sidecar recording the exact configuration and every run's time, steps
and evaluations.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError
from .errors import _integer, _number, _require_finite, _require_minimizers, _require_non_negative
from .objectives import PRESET_NAMES, preset
from .pcbo import PcboConfig
from .pcbo import _run_replicas as _pcbo_replicas
from .solver import RunReport, SolverConfig
from .solver import _run_replicas as _gkbo_replicas

__all__ = [
    "CSV_HEADER",
    "SUCCESS_THRESHOLD",
    "ExperimentConfig",
    "SweepResult",
    "ExperimentSummary",
    "evaluate_success",
    "run_experiment",
    "write_results",
]

log = logging.getLogger(__name__)

#: Max-norm radius within which a consensus point detects a minimizer.
SUCCESS_THRESHOLD = 0.25

#: The results CSV columns, in order. :func:`write_results` writes the
#: :class:`SweepResult` attribute of each name; a run without a sweep has an
#: empty ``sweep_value``.
CSV_HEADER = (
    "sweep_value",
    "success_rate",
    "mean_iterations",
    "mean_detected_minima",
    "repetitions",
    "base_seed",
    "mean_consensus_points",
    "mean_spurious_points",
    "mean_leader_count",
)

_CONFIGS = {"gkbo": SolverConfig, "pcbo": PcboConfig}
_REPLICA_LOOPS = {"gkbo": _gkbo_replicas, "pcbo": _pcbo_replicas}
_SWEEPS = ("none", "dimension", "n_leaders", "sigma_f")

#: The pcbo field that plays each gkbo field's role, for the ``n_leaders``
#: and ``sigma_f`` sweeps and for ``gkbo compare``'s shared settings.
_PCBO_ROLES = {"nu_f": "nu", "sigma_f": "sigma", "n_leaders": "n_clusters"}

#: Most float64 coordinates, R n d, that one batch of R replicas stacks. At
#: 14400 (115200 bytes) every stacked ``(R n, d)`` array stays below glibc's
#: default mmap threshold of 128 KiB, so the heap serves it. The objective's
#: arrays of shifts times that size live in the batch's workspace, mapped
#: once per batch: at ackley4, d = 10, two 500-step replicas, a worker's
#: first task took 3k-12k minor faults and 0.84-1.15 s, later tasks 1-609
#: faults and 0.73-1.15 s (81k-122k faults for a first task when those
#: arrays were allocated every call).
_MAX_BATCH_COORDINATES = 14_400


def _plain(value):
    """``value`` with a numpy scalar, which ``json`` cannot write, as the Python number it holds."""
    return value.item() if isinstance(value, np.generic) else value


def _config_as_dict(config: SolverConfig | PcboConfig) -> dict:
    """A solver config as JSON-ready fields: Python numbers, the diffusion mode by its value."""
    out = {name: _plain(value) for name, value in dataclasses.asdict(config).items()}
    out["diffusion"] = config.diffusion.value
    return out


def _config_class(solver) -> type:
    """The config class of ``solver``; ValueError names the known solvers."""
    try:
        return _CONFIGS[solver]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise ValueError(f"unknown solver {solver!r}; available: {', '.join(_CONFIGS)}") from None


def _with_roles(config: SolverConfig | PcboConfig, **values) -> SolverConfig | PcboConfig:
    """``config`` with each value, named by its gkbo field, set on the field in that role."""
    own = {field.name for field in dataclasses.fields(config)}
    renamed = {name if name in own else _PCBO_ROLES[name]: value for name, value in values.items()}
    return dataclasses.replace(config, **renamed)


def _solver_section(data: dict) -> dict:
    """A config's ``solver_config`` object; absent or null means every default."""
    raw = data.get("solver_config")
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"solver_config must be a JSON object, got {raw!r}")
    return raw


@dataclass
class ExperimentConfig:
    """A repeatable experiment: objective, solver, repetitions, optional sweep.

    ``sweep`` is one of ``none``, ``dimension``, ``n_leaders`` or ``sigma_f``.
    On the ``pcbo`` baseline a gkbo field's sweep sets the field in its role,
    ``n_clusters`` or ``sigma``, as the one map ``_PCBO_ROLES`` says; ``gkbo
    compare`` sets both solvers' drift, noise and centre count through that
    map too. Repetition ``r`` of every sweep
    value runs with seed ``base_seed + r``; the seed stored inside
    ``solver_config`` is ignored by the harness.
    """

    objective: str = "rastrigin2"
    dim: int = 2
    solver: str = "gkbo"
    solver_config: SolverConfig | PcboConfig | None = None
    n_agents: int = 600
    repetitions: int = 20
    sweep: str = "none"
    sweep_values: tuple = ()
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.solver_config is None:
            self.solver_config = _config_class(self.solver)()
        self.sweep_values = tuple(self.sweep_values)

    def validate(self) -> None:
        """Raise ValueError on any inconsistent experiment setting.

        Each value's type is checked before its range: the integer fields
        must be integers and the sweep values integers or numbers as the
        sweep needs, so a wrong type never reaches a comparison or an
        ``int()`` that would truncate it.
        """
        if self.objective not in PRESET_NAMES:
            raise ValueError(
                f"unknown objective preset {self.objective!r}; available: {', '.join(PRESET_NAMES)}"
            )
        _integer("dim", self.dim, 1)
        _integer("n_agents", self.n_agents)  # its range is the solver config's check
        _integer("repetitions", self.repetitions, 1)
        _integer("base_seed", self.base_seed, 0)
        expected = _config_class(self.solver)
        if not isinstance(self.solver_config, expected):
            raise ValueError(
                f"solver {self.solver!r} requires a {expected.__name__}, "
                f"got {type(self.solver_config).__name__}"
            )
        if self.sweep not in _SWEEPS:
            raise ValueError(f"unknown sweep {self.sweep!r}; available: {', '.join(_SWEEPS)}")
        if self.sweep == "none":
            if self.sweep_values:
                raise ValueError("sweep_values must be empty when sweep is 'none'")
        elif not self.sweep_values:
            raise ValueError(f"sweep {self.sweep!r} needs at least one sweep value")
        for value in self.sweep_values:
            if self.sweep == "sigma_f":
                _number("sigma_f sweep values", value, "numbers")
            else:
                _integer(f"{self.sweep} sweep values", value, 1, "integers")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ValueError("sweep_values must be strictly increasing")
        # every run's solver config and the population size, checked here
        # rather than in a pool worker
        for value in self.sweep_values or (None,):
            _sweep_setup(self, value)[1].validate(self.n_agents)

    def to_dict(self) -> dict:
        """The config as JSON-ready fields in field order, ``solver_config`` last."""
        out = {field.name: _plain(getattr(self, field.name)) for field in dataclasses.fields(self)}
        out["sweep_values"] = [_plain(value) for value in self.sweep_values]
        out["solver_config"] = _config_as_dict(out.pop("solver_config"))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config a JSON object spells; a results sidecar's ``runs`` are ignored."""
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a JSON object")
        data = {key: value for key, value in data.items() if key != "runs"}
        known = {field.name for field in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config key: {key!r}")
        config_cls = _config_class(data.get("solver", cls.solver))
        raw = _solver_section(data)
        allowed = {field.name for field in dataclasses.fields(config_cls)}
        for key in raw:
            if key not in allowed:
                raise ValueError(f"unknown config key: 'solver_config.{key}'")
        kwargs = {key: value for key, value in data.items() if key != "solver_config"}
        if "sweep_values" in kwargs:
            if not isinstance(kwargs["sweep_values"], (list, tuple)):
                raise ValueError(f"sweep_values must be a list, got {kwargs['sweep_values']!r}")
            kwargs["sweep_values"] = tuple(kwargs["sweep_values"])
        return cls(solver_config=config_cls(**raw), **kwargs)


@dataclass(frozen=True)
class SweepResult:
    """Aggregates for one sweep value, plus the per-run records behind them.

    ``mean_consensus_points`` counts each run's distinct final consensus
    points, ``mean_spurious_points`` those farther than ``SUCCESS_THRESHOLD``
    (max norm) from every planted minimizer, so a point in a local minimum
    is spurious, and ``mean_leader_count`` the leaders (pcbo: centres) at
    the end: a run that covers the box with consensus points detects every
    minimizer, and these show it.

    ``run_seconds`` holds each run's share of worker time. Runs step in
    batches of replicas (see :func:`run_experiment`), so each batch's
    elapsed seconds are split among its runs in proportion to their
    reported objective evaluations; the entries still add up to the worker
    time spent. A pcbo run reported at a fixed point reports the
    evaluations of the steps it skipped too, so it is charged for them and
    the runs of its batch that stepped on for less.
    """

    sweep_value: object
    success_rate: float
    mean_iterations: float
    mean_detected_minima: float
    repetitions: int
    base_seed: int
    mean_consensus_points: float
    mean_spurious_points: float
    mean_leader_count: float
    seeds: tuple
    successes: tuple
    detected: tuple
    iterations: tuple
    run_seconds: tuple
    reports: tuple


@dataclass(frozen=True)
class ExperimentSummary:
    """All sweep rows of one experiment, in sweep-value order."""

    config: ExperimentConfig
    results: tuple


def evaluate_success(
    report: RunReport, minimizers, threshold: float = SUCCESS_THRESHOLD
) -> tuple[bool, int]:
    """Score a run against the planted minimizers.

    A minimizer is detected when some final consensus point lies within
    ``threshold`` of it in the max norm; the run is a success when every
    minimizer is detected. Returns ``(success, detected_count)``. A flat
    list of minimizers is one point, or on a 1-d run one point per entry.
    ValueError unless the final consensus is a non-empty finite ``(m, d)``
    array and the minimizers at least one finite point of dimension d.
    """
    _require_non_negative(threshold=threshold)
    points = np.asarray(report.final_consensus, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"final consensus must be a non-empty (m, d) array, got {points.shape}")
    _require_finite("final consensus", points)
    mins = np.asarray(minimizers, dtype=np.float64)
    if mins.ndim == 1 and points.shape[1] == 1:
        mins = mins[:, np.newaxis]  # a flat list of 1-d minimizers, as ObjectiveSpec reads it
    mins = np.atleast_2d(mins)
    _require_minimizers(mins, points.shape[1])
    return _scores(points, mins, float(threshold))[:2]


def _scores(points: np.ndarray, minimizers: np.ndarray, threshold: float) -> tuple[bool, int, int]:
    """:func:`evaluate_success`'s ``(success, detected_count)`` and the spurious point count.

    ``points`` and ``minimizers`` are ``(m, d)`` and ``(n_min, d)`` float64
    arrays, as a solver report and a preset hold them. A consensus point is
    spurious when it lies farther than ``threshold`` from every minimizer in
    the max norm.
    """
    gaps = np.abs(minimizers[:, np.newaxis, :] - points[np.newaxis, :, :]).max(axis=2)
    detected = gaps.min(axis=1) <= threshold
    spurious = int(np.count_nonzero(gaps.min(axis=0) > threshold))
    return bool(detected.all()), int(detected.sum()), spurious


def _sweep_setup(cfg: ExperimentConfig, value) -> tuple[int, SolverConfig | PcboConfig]:
    """Dimension and solver config for one sweep value."""
    if value is None:
        return int(cfg.dim), cfg.solver_config
    if cfg.sweep == "dimension":
        return int(value), cfg.solver_config
    kind = float if cfg.sweep == "sigma_f" else int
    return int(cfg.dim), _with_roles(cfg.solver_config, **{cfg.sweep: kind(value)})


def _execute_run(task) -> list[tuple[RunReport, float]]:
    """Run one batch of seeded solver instances; must stay module-level for pickling.

    The seeds step together as the replicas of one ``solver._Replicas``
    batch, which both solvers' loops (``solver._run_replicas`` and
    ``pcbo._run_replicas``) share. Returns ``(report, seconds)`` per seed:
    the batch's elapsed time split among its runs in proportion to their
    reported objective evaluations (see :class:`SweepResult`).

    A batch raises at its first non-finite value, whichever replica made
    it. A batch of several seeds that raises NumericError runs them again
    one at a time, in order: a replica is its standalone run bit for bit,
    so the first seed to raise is the lowest failing one, with its own
    error. A batch of one raises its error at once.
    """
    solver, objective, dim, solver_cfg, n_agents, seeds = task
    spec = preset(objective, dim)
    loop = _REPLICA_LOOPS[solver]
    start = time.perf_counter()
    try:
        reports = loop(spec, solver_cfg, n_agents, seeds)
    except NumericError:
        if len(seeds) > 1:
            for seed in seeds:
                loop(spec, solver_cfg, n_agents, (seed,))
        raise
    elapsed = time.perf_counter() - start
    evaluations = sum(report.evaluations for report in reports)
    return [(report, elapsed * report.evaluations / evaluations) for report in reports]


def _seed_batches(seeds: range, workers: int, coordinates: int, values: int = 1) -> list[tuple]:
    """The seeds of one of ``values`` sweep values as the batches of the pool's tasks.

    Both solvers step a batch of replicas together, so the seeds go in
    contiguous batches of near-equal size: one batch when the sweep has at
    least as many values as there are workers, else one per worker (at
    most one per seed), and more where a batch would stack more than
    ``_MAX_BATCH_COORDINATES`` coordinates. ``coordinates`` is the size of
    one replica, agents times dimension. The split is fixed before any run
    starts, whatever the solver and the step budget; a pcbo replica that
    settles early leaves its batch at once (see ``pcbo._run_replicas``).
    """
    per_batch = max(1, _MAX_BATCH_COORDINATES // coordinates)
    shared = 1 if values >= workers else min(workers, len(seeds))
    count = max(shared, math.ceil(len(seeds) / per_batch))
    size, extra = divmod(len(seeds), count)
    bounds = [index * size + min(index, extra) for index in range(count + 1)]
    return [tuple(seeds[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _worker_count(workers: int | None) -> int:
    """The pool size ``workers`` asks for: every CPU this process may run on for None."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return _integer("workers", workers, 1)


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentSummary:
    """Run all repetitions of every sweep value and aggregate.

    ``workers`` caps the process pool; ``None`` uses every CPU the process may run on.
    Each task is one batch of a sweep value's seeds, stepped together as
    replicas (see :func:`_seed_batches`): a sweep with at least as many
    values as workers runs one batch per value, anything else one batch
    per worker for each value. Every report is the one its standalone run
    gives; a pcbo replica that settles at a fixed point is reported at once
    with the report the full loop gives. The pool holds no more workers
    than there are tasks, and a single worker runs the tasks inline. Results are
    aggregated in seed order, so the summary does not depend on the worker
    count. The population size and every solver config are checked before
    any run starts. A failing run raises the NumericError of the lowest
    failing seed, the error its standalone run raises: a batch raises at
    its first non-finite value, and :func:`_execute_run` then runs the
    batch's seeds one at a time up to the lowest failing one.
    """
    workers = _worker_count(workers)
    cfg.validate()
    values = list(cfg.sweep_values) if cfg.sweep != "none" else [None]
    repetitions = int(cfg.repetitions)
    base_seed = int(cfg.base_seed)
    seeds = range(base_seed, base_seed + repetitions)

    tasks = []
    minimizers = []
    for value in values:
        dim, solver_cfg = _sweep_setup(cfg, value)
        minimizers.append(preset(cfg.objective, dim).minimizers)
        for batch in _seed_batches(seeds, workers, int(cfg.n_agents) * dim, len(values)):
            tasks.append((cfg.solver, cfg.objective, dim, solver_cfg, int(cfg.n_agents), batch))

    workers = min(workers, len(tasks))
    if workers == 1:
        batches = [_execute_run(task) for task in tasks]
    else:
        # imported here, not at the top: concurrent.futures.process is 23-38 ms
        # of a fresh interpreter's `import gkbo.cli`, and `gkbo run` needs no pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_execute_run, tasks))
    outcomes = [outcome for batch in batches for outcome in batch]

    results = []
    for index, value in enumerate(values):
        chunk = outcomes[index * repetitions : (index + 1) * repetitions]
        reports = tuple(report for report, _ in chunk)
        seconds = tuple(elapsed for _, elapsed in chunk)
        scored = [_scores(r.final_consensus, minimizers[index], SUCCESS_THRESHOLD) for r in reports]
        successes = tuple(success for success, _, _ in scored)
        detected = tuple(count for _, count, _ in scored)
        iterations = tuple(report.iterations for report in reports)
        result = SweepResult(
            sweep_value=value,
            success_rate=sum(successes) / repetitions,
            mean_iterations=sum(iterations) / repetitions,
            mean_detected_minima=sum(detected) / repetitions,
            repetitions=repetitions,
            base_seed=base_seed,
            mean_consensus_points=sum(len(r.final_consensus) for r in reports) / repetitions,
            mean_spurious_points=sum(spurious for _, _, spurious in scored) / repetitions,
            mean_leader_count=sum(report.leader_count for report in reports) / repetitions,
            seeds=tuple(seeds),
            successes=successes,
            detected=detected,
            iterations=iterations,
            run_seconds=seconds,
            reports=reports,
        )
        results.append(result)
        label = "run" if value is None else f"{cfg.sweep}={value}"
        log.info(
            "%s: success_rate=%.3f mean_iterations=%.1f mean_detected=%.2f (M=%d, %.1fs)",
            label,
            result.success_rate,
            result.mean_iterations,
            result.mean_detected_minima,
            repetitions,
            sum(seconds),
        )
    return ExperimentSummary(config=cfg, results=tuple(results))


def write_results(summary: ExperimentSummary, path) -> Path:
    """Write one CSV row per sweep value, plus a JSON sidecar.

    The CSV is plain: the :data:`CSV_HEADER` line, then per sweep value the
    :class:`SweepResult` attributes of those names, numbers as ``str``
    spells them, so ``csv.DictReader`` reads each row back. The sidecar
    lands next to the CSV with extension ``.json``. It holds the experiment
    config, which :meth:`ExperimentConfig.from_dict` reads back, and under
    ``runs`` one record per sweep value: the seeds and, per seed,
    ``run_seconds`` (see :class:`SweepResult`), ``iterations`` and
    ``evaluations``. Lines use LF endings regardless of platform. Returns
    the CSV path. Both paths are checked before anything is written (see
    :func:`_result_paths`).
    """
    path, sidecar_path = _result_paths(path)
    sidecar = summary.config.to_dict()
    sidecar["runs"] = [
        {
            "sweep_value": _plain(result.sweep_value),
            "seeds": list(result.seeds),
            "run_seconds": list(result.run_seconds),
            "iterations": list(result.iterations),
            "evaluations": [report.evaluations for report in result.reports],
        }
        for result in summary.results
    ]
    text = json.dumps(sidecar, indent=2)  # before the CSV, so a failure writes neither
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")  # writes None as an empty field
        writer.writerow(CSV_HEADER)
        for result in summary.results:
            writer.writerow([getattr(result, column) for column in CSV_HEADER])
    sidecar_path.write_text(text + "\n", encoding="utf-8")
    return path


def _result_paths(path) -> tuple[Path, Path]:
    """The results CSV path and its sidecar's, the CSV's with suffix ``.json``.

    ValueError where the two would be one file, the CSV path is a
    directory or their directory is missing, so ``gkbo bench`` can reject
    such an output before it runs.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    if sidecar == path:
        raise ValueError(f"results CSV {path} must not end in .json, its sidecar's suffix")
    if path.is_dir():
        raise ValueError(f"results CSV {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"output directory {path.parent} does not exist")
    return path, sidecar

