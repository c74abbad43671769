"""Clustered consensus-based baseline solver.

Plain consensus dynamics extended with a fixed number of cluster centres:
every particle is hard-assigned to its nearest centre, each centre is the
softmax consensus of its particles, and every particle drifts toward its
centre with multiplicative noise. Unlike the leader-follower solver there are
no labels, no per-step time scale on the drift, and noise is applied to every
particle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, _check_energies, _check_positions
from .objectives import ObjectiveSpec
from .solver import (
    DiffusionMode,
    RunReport,
    StallTracker,
    _consensus,
    _diffusion_scale,
    _distinct_rows,
    _first_failure,
    _integer,
    _keep,
    _nearest_centre,
    _require_non_negative,
    _require_positive,
    _require_run_limits,
    _update_stall,
    _Workspace,
)

__all__ = ["PcboConfig", "pcbo_assign", "pcbo_step", "run_pcbo"]


@dataclass
class PcboConfig:
    """Hyperparameters of the clustered baseline solver."""

    nu: float = 1.0
    sigma: float = 0.5
    alpha: float = 5e6
    n_clusters: int = 4
    n_steps: int = 10_000
    delta_stall: float = 1e-4
    j_stall: int = 1000
    diffusion: DiffusionMode = DiffusionMode.ANISOTROPIC
    seed: int = 0
    init_lo: float = -10.0
    init_hi: float = 10.0

    def __post_init__(self) -> None:
        self.diffusion = DiffusionMode(self.diffusion)

    def validate(self) -> None:
        """Raise ValueError on any out-of-range hyperparameter."""
        _require_positive(self, "nu")
        _require_non_negative(self, "sigma", "delta_stall")
        _require_positive(self, "alpha")
        if _integer(self, "n_clusters") < 1:
            raise ValueError(f"n_clusters must be at least 1, got {self.n_clusters}")
        _require_run_limits(self)


def pcbo_assign(positions: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of the nearest centre for every particle, ties to the lowest index.

    Squared distances are summed one axis at a time, as in the leader-follower
    solver's assignment, which shares this kernel.
    """
    positions = np.asarray(positions, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    if positions.ndim != 2 or centres.ndim != 2 or centres.shape[0] < 1:
        raise ValueError("positions and centres must be 2-d with at least one centre")
    if positions.shape[1] != centres.shape[1]:
        raise ValueError(
            f"dimension mismatch: particles are {positions.shape[1]}-d, "
            f"centres are {centres.shape[1]}-d"
        )
    if not (np.isfinite(positions).all() and np.isfinite(centres).all()):
        raise ValueError("positions and centres must have finite coordinates")
    return _nearest_centre(positions, centres, _Workspace())


def _soft_centres(
    positions: np.ndarray,
    energies: np.ndarray,
    memberships: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Softmax centres under fractional memberships (rows of ``memberships`` sum to 1).

    The objective weights are shifted by the global minimum before
    exponentiation; the shift cancels in the ratio and keeps every exponent
    non-positive.
    """
    # an exponent that overflows to -inf gives weight 0, the value it rounds to anyway
    with np.errstate(over="ignore"):
        weights = np.exp(-alpha * (energies - energies.min()))
    weighted = memberships * weights[:, np.newaxis]
    denom = weighted.sum(axis=0)
    return (weighted.T @ positions) / denom[:, np.newaxis]


def _move(
    positions: np.ndarray, estimates: np.ndarray, cfg: PcboConfig, noise: np.ndarray
) -> np.ndarray:
    """Unchecked new positions after one synchronous move toward ``estimates``.

    See :func:`pcbo_step`. An overflow gives a non-finite position without a
    warning; the caller reports it as NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = estimates - positions
        scale = _diffusion_scale(gap, cfg.diffusion)
        return positions + cfg.nu * gap + cfg.sigma * scale * noise


def pcbo_step(
    positions: np.ndarray,
    assignment: np.ndarray,
    centres: np.ndarray,
    spec: ObjectiveSpec,
    cfg: PcboConfig,
    rng: np.random.Generator,
    energies: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous baseline step: refresh centres, then move every particle.

    Centres are recomputed from the pre-move positions under the given
    assignment (clusters left empty keep their previous centre from
    ``centres``). Every particle then moves by ``nu`` times its gap to its
    cluster's new centre plus ``sigma * D(x) xi`` with a fresh standard normal
    draw per particle in particle order. Returns the new positions and the new
    centres. Raises NumericError naming the first offending particle if an
    energy or a new position is non-finite.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if energies is None:
        energies = spec.evaluate_batch(positions)
    else:
        energies = np.asarray(energies, dtype=np.float64)
        if energies.shape != (positions.shape[0],):
            raise ValueError(
                f"energies must have shape ({positions.shape[0]},), got {energies.shape}"
            )
    _check_energies(energies, "pcbo_step")
    new_centres = _consensus(
        positions, energies, assignment, centres.shape[0], float(cfg.alpha), centres
    )
    noise = rng.standard_normal(positions.shape)
    new_positions = _move(positions, new_centres[assignment], cfg, noise)
    _check_positions(new_positions, "pcbo_step")
    return new_positions, new_centres


def run_pcbo(spec: ObjectiveSpec, cfg: PcboConfig, n_particles: int = 600) -> RunReport:
    """Run the clustered baseline to stall or the step budget.

    Initialization draws positions uniformly from the configured box, then
    fractional memberships uniformly from [0, 1] (rows normalized); those only
    seed the first centres, after which assignment is always hard nearest
    centre. Stall detection watches each particle's own centre, same rule as
    the leader-follower solver. Equal configurations produce identical
    reports. A non-finite position or objective value raises NumericError
    naming the phase, the step and the first offending particle.
    """
    return _run_replicas(spec, cfg, n_particles, (cfg.seed,))[0]


def _run_replicas(
    spec: ObjectiveSpec, cfg: PcboConfig, n_particles: int, seeds
) -> list[RunReport]:
    """One :func:`run_pcbo` report per seed, from replicas stepped together.

    Replica r is the run with ``seed=seeds[r]``: it owns
    ``default_rng(seeds[r])``, draws from it in that run's order, and its
    rows of the stacked ``(R n, d)`` arrays go through the same kernels,
    whose result for a row does not depend on other rows. Its centres are
    slots ``r k .. r k + k - 1`` of one consensus, so ``bincount`` still adds
    each cluster's terms in particle order, and the report is bit-identical.
    A replica that stalls or reaches the step budget is frozen there: its
    report is taken and its rows are dropped.

    When a replica fails, it and the replicas after it are dropped, the ones
    before it run on, and the NumericError of the first failing replica is
    raised at the end: the error its own run raises, with replica-local agent
    and step.
    """
    n = int(n_particles)
    if n < 1:
        raise ValueError(f"need at least one particle, got {n}")
    cfg.validate()
    k = int(cfg.n_clusters)
    dim = spec.dim
    alpha = float(cfg.alpha)
    delta_stall = float(cfg.delta_stall)
    work = _Workspace()
    reports: list[RunReport | None] = [None] * len(seeds)
    error = None

    rngs, starts = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        positions = rng.uniform(cfg.init_lo, cfg.init_hi, size=(n, dim))
        energies = spec.evaluate_batch(positions)
        try:
            _check_energies(energies, "objective")
        except NumericError as exc:
            error = exc
            break
        memberships = rng.random((n, k))
        memberships /= memberships.sum(axis=1, keepdims=True)
        rngs.append(rng)
        starts.append((positions, energies, _soft_centres(positions, energies, memberships, alpha)))
    if not rngs:
        raise error
    positions, energies, centres = (np.concatenate(part) for part in zip(*starts))
    live = np.arange(len(rngs))  # the replica in every slot of the stack
    nearest = _nearest_centre(positions.reshape(-1, n, dim), centres.reshape(-1, k, dim), work)
    offsets = live[:, np.newaxis] * k
    tracker = StallTracker(
        counters=np.zeros(positions.shape[0], dtype=np.int64),
        estimates=centres[(nearest + offsets).ravel()],
    )
    stall = [0] * live.size  # the minimum stall counter of every slot
    failed = live.size  # slots from here on are dropped
    noise = np.empty_like(positions)
    draws = list(zip(rngs, noise.reshape(-1, n, dim)))

    # As in run_gkbo, the loop checks what it made once: the energies right
    # after the objective, which turns a non-finite position into a
    # non-finite value (see _first_failure). A replica that fails there is
    # dropped at the top of the next step; until then its rows only pass the
    # stall update and the assignment, which take non-finite rows without a
    # warning.
    steps = 0
    while True:
        if steps >= cfg.n_steps or max(stall) >= cfg.j_stall or failed < live.size:
            done = (np.array(stall) >= cfg.j_stall) | (steps >= cfg.n_steps)
            for slot in np.flatnonzero(done[:failed]):
                reports[live[slot]] = RunReport(
                    iterations=steps,
                    stalled=stall[slot] >= cfg.j_stall,
                    final_consensus=_distinct_rows(centres[slot * k : (slot + 1) * k]),
                    leader_count=k,
                    best_value=float(energies[slot * n : (slot + 1) * n].min()),
                    evaluations=n * (steps + 1),
                    seed=int(seeds[live[slot]]),
                )
            keep = ~done
            keep[failed:] = False
            positions, energies, centres, nearest, live, noise = (
                _keep(a, keep) for a in (positions, energies, centres, nearest, live, noise)
            )
            tracker = StallTracker(_keep(tracker.counters, keep), _keep(tracker.estimates, keep))
            stall = [count for count, kept in zip(stall, keep) if kept]
            rngs = [rng for rng, kept in zip(rngs, keep) if kept]
            draws = list(zip(rngs, noise.reshape(-1, n, dim)))
            offsets = offsets[: live.size]
            failed = live.size
            if not live.size:
                break

        slots = (nearest + offsets).ravel()
        centres = _consensus(positions, energies, slots, centres.shape[0], alpha, centres)
        estimates = centres[slots]
        for rng, rows in draws:
            rng.standard_normal(out=rows)
        positions = _move(positions, estimates, cfg, noise)
        tracker = _update_stall(tracker, estimates, delta_stall)
        stall = tracker.counters.reshape(-1, n).min(axis=1).tolist()
        energies = spec._values(positions)
        failure = _first_failure(positions, energies, n, steps, "pcbo_step")
        if failure is not None:
            failed, error = failure
        nearest = _nearest_centre(positions.reshape(-1, n, dim), centres.reshape(-1, k, dim), work)
        steps += 1

    if error is not None:
        raise error
    return reports
