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

from .errors import _check_energies, _check_positions
from .objectives import ObjectiveSpec
from .solver import (
    DiffusionMode,
    RunReport,
    StallTracker,
    _consensus,
    _diffusion_scale,
    _distinct_rows,
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
        if int(self.n_clusters) < 1:
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
    positions: np.ndarray,
    estimates: np.ndarray,
    cfg: PcboConfig,
    rng: np.random.Generator,
    step: int | None,
) -> np.ndarray:
    """New positions after one synchronous move toward ``estimates``; see :func:`pcbo_step`."""
    noise = rng.standard_normal(positions.shape)
    # an overflow here is reported as NumericError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        gap = estimates - positions
        scale = _diffusion_scale(gap, cfg.diffusion)
        new_positions = positions + cfg.nu * gap + cfg.sigma * scale * noise
    _check_positions(new_positions, "pcbo_step", step)
    return new_positions


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
    return _move(positions, new_centres[assignment], cfg, rng, None), new_centres


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
    n_particles = int(n_particles)
    if n_particles < 1:
        raise ValueError(f"need at least one particle, got {n_particles}")
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_clusters = int(cfg.n_clusters)
    alpha = float(cfg.alpha)
    delta_stall = float(cfg.delta_stall)
    work = _Workspace()

    positions = rng.uniform(cfg.init_lo, cfg.init_hi, size=(n_particles, spec.dim))
    energies = spec.evaluate_batch(positions)
    evaluations = n_particles
    _check_energies(energies, "objective")

    memberships = rng.random((n_particles, n_clusters))
    memberships /= memberships.sum(axis=1, keepdims=True)
    centres = _soft_centres(positions, energies, memberships, alpha)
    assignment = _nearest_centre(positions, centres, work)
    tracker = StallTracker(
        counters=np.zeros(n_particles, dtype=np.int64), estimates=centres[assignment]
    )

    # As in run_gkbo, each array is checked once, where it is made: positions
    # by the move, energies right after the objective.
    steps = 0
    stall = 0
    while steps < cfg.n_steps and stall < cfg.j_stall:
        centres = _consensus(positions, energies, assignment, n_clusters, alpha, centres)
        estimates = centres[assignment]
        positions = _move(positions, estimates, cfg, rng, steps)
        tracker, stall = _update_stall(tracker, estimates, delta_stall)
        energies = spec._values(positions)
        _check_energies(energies, "objective", steps)
        assignment = _nearest_centre(positions, centres, work)
        evaluations += n_particles
        steps += 1

    return RunReport(
        iterations=steps,
        stalled=stall >= cfg.j_stall,
        final_consensus=_distinct_rows(centres),
        leader_count=n_clusters,
        best_value=float(energies.min()),
        evaluations=evaluations,
        seed=int(cfg.seed),
    )
