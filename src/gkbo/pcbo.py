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

from .errors import (
    _check_positions,
    _energies_of,
    _indices,
    _points_and_centres,
    _require_centres,
    _require_non_negative,
    _require_population,
    _require_positive,
    _require_run_limits,
)
from .objectives import ObjectiveSpec, _Workspace
from .solver import (
    DiffusionMode,
    RunReport,
    _consensus,
    _keep,
    _move,
    _nearest_centre,
    _Replicas,
    _require_diffusion,
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

    def validate(self, n_particles: int | None = None) -> None:
        """Raise ValueError on any out-of-range hyperparameter, or population size when given."""
        if n_particles is not None:
            _require_population(n_particles)
        _require_positive(nu=self.nu)
        _require_non_negative(sigma=self.sigma)
        _require_centres("n_clusters", self.n_clusters, n_particles)
        _require_run_limits(self)
        _require_diffusion(self.diffusion)


def pcbo_assign(positions: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of the nearest centre for every particle, ties to the lowest index.

    Squared distances are summed one axis at a time, as in the leader-follower
    solver's assignment, which shares this kernel.
    """
    positions, centres = _points_and_centres(positions, centres, "pcbo_assign")
    return _nearest_centre(positions, centres, _Workspace())


def _soft_centres(
    positions: np.ndarray,
    energies: np.ndarray,
    memberships: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Softmax centres under fractional memberships (rows of ``memberships`` sum to 1).

    ``positions`` ``(R, n, d)``, ``energies`` ``(R, n)`` and ``memberships``
    ``(R, n, k)`` give ``(R, k, d)`` centres, each replica's from its own
    rows. The objective weights are shifted by the replica's minimum before
    exponentiation; the shift cancels in the ratio and keeps every exponent
    non-positive.
    """
    # an exponent that overflows to -inf gives weight 0, the value it rounds to anyway
    with np.errstate(over="ignore"):
        weights = np.exp(-alpha * (energies - energies.min(axis=-1, keepdims=True)))
    weighted = memberships * weights[..., np.newaxis]
    denom = weighted.sum(axis=-2)
    return (weighted.swapaxes(-1, -2) @ positions) / denom[..., np.newaxis]


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
    draw per particle in particle order, through ``solver._move``, the move
    kernel the leader-follower solver's followers share. Returns the new
    positions and the new centres. ``positions`` must be n finite points,
    ``assignment`` hold one centre index in [0, k) per particle and
    ``centres`` k finite points.
    Raises NumericError naming the first offending particle if an energy or
    a new position is non-finite.
    """
    cfg.validate()
    positions, centres = _points_and_centres(positions, centres, "pcbo_step")
    energies = _energies_of(positions, spec, energies, "pcbo_step")
    n_clusters = centres.shape[0]
    assignment = _indices(assignment, "assignment", positions.shape[0], n_clusters, "pcbo_step")
    new_centres = _consensus(positions, energies, assignment, n_clusters, float(cfg.alpha), centres)
    noise = rng.standard_normal(positions.shape)
    estimates = new_centres[assignment]
    new_positions = _move(positions, estimates, estimates, cfg.nu, cfg.sigma, cfg.diffusion, noise)
    _check_positions(new_positions, "pcbo_step")
    return new_positions, new_centres


def run_pcbo(spec: ObjectiveSpec, cfg: PcboConfig, n_particles: int = 600) -> RunReport:
    """Run the clustered baseline to stall or the step budget.

    Initialization draws positions uniformly from the configured box, then
    fractional memberships uniformly from [0, 1] (rows normalized); those only
    seed the first centres, after which assignment is always hard nearest
    centre. The run stops after ``n_steps`` steps or once it stalls: after
    ``j_stall`` consecutive steps in which no particle's consensus estimate,
    its own centre, moved more than ``delta_stall`` in the max norm.
    ``n_particles`` must be an integer of at least 1; it is checked before
    the configuration. Equal configurations produce identical reports. A
    non-finite position or objective value raises NumericError naming the
    phase, the step and the first offending particle; at the start, before
    any step, it names the objective. A run that reaches a fixed point,
    every particle bit for bit on its centre and no centre moving, is
    reported at once with the report the full loop gives. The run is a
    batch of one replica; see :func:`_run_replicas`.
    """
    return _run_replicas(spec, cfg, n_particles, (cfg.seed,))[0]


def _run_replicas(
    spec: ObjectiveSpec, cfg: PcboConfig, n_particles: int, seeds
) -> list[RunReport]:
    """One :func:`run_pcbo` report per seed, from the replicas of one ``solver._Replicas`` batch.

    Replica r's centres are slots ``r k .. r k + k - 1`` of one consensus,
    so ``bincount`` still adds each cluster's terms in particle order, and
    the report is bit-identical. Each step assigns every particle once, after
    :meth:`_Replicas.freeze` has dropped the replicas it reported; the loop
    keeps the others' centres. The start draws every replica's memberships
    through the batch, after the positions its constructor drew, and one
    call makes every replica's first centres from its own rows; a step
    draws every replica's normals, one per coordinate.

    A replica is settled after a step that left every centre bit for bit as
    it was and every particle's estimate equal to its position: each later
    step then repeats the same state, since a zero gap gives a zero move
    whatever the draws, and only raises the replica's quiet count by one.
    :meth:`_Replicas.freeze` reports a settled replica at once with the
    report the full loop gives. The mask is computed before the step's
    objective, which replaces the batch's positions.
    """
    batch = _Replicas(spec, cfg, n_particles, seeds)
    n = batch.n
    k = int(cfg.n_clusters)
    dim = spec.dim
    alpha = float(cfg.alpha)

    def slots_of(centres):
        """Every particle's centre slot: the nearest of its own replica's centres."""
        nearest = _nearest_centre(
            batch.positions.reshape(-1, n, dim), centres.reshape(-1, k, dim), batch.work
        )
        return (nearest + offsets[: nearest.shape[0]]).ravel()

    memberships = batch.draws(np.random.Generator.random, k).reshape(-1, n, k)
    memberships /= memberships.sum(axis=2, keepdims=True)
    stacked = batch.positions.reshape(-1, n, dim), batch.energies.reshape(-1, n)
    centres = _soft_centres(*stacked, memberships, alpha).reshape(-1, dim)
    offsets = np.arange(0, centres.shape[0], k)[:, np.newaxis]  # replica r's first slot, r k
    slots = slots_of(centres)
    # take, not centres[slots]: fancy indexing of narrow rows is ~10x slower
    estimates = centres.take(slots, axis=0)
    batch.watch(estimates)
    settled = False

    while (keep := batch.freeze(centres, range(0, centres.shape[0] + 1, k), settled)) is not None:
        if not keep.all():
            centres = _keep(centres, keep)
        slots = slots_of(centres)
        previous = centres
        centres = _consensus(
            batch.positions, batch.energies, slots, centres.shape[0], alpha, centres
        )
        estimates = centres.take(slots, axis=0)
        noise = batch.draws(np.random.Generator.standard_normal, dim)
        positions = _move(
            batch.positions, estimates, estimates, cfg.nu, cfg.sigma, cfg.diffusion, noise
        )
        replicas = batch.live.size
        # bits, not values: a centre that goes from -0.0 to 0.0 has moved
        same = centres.view(np.int64) == previous.view(np.int64)
        settled = same.reshape(replicas, -1).all(axis=1)
        if settled.any():
            # x + nu 0 + sigma 0 z is x bit for bit unless x is -0.0, and no
            # position is: a sum is -0.0 only when both terms are, and the
            # uniform start lo + (hi - lo) u never is
            settled &= (estimates == batch.positions).reshape(replicas, -1).all(axis=1)
        batch.evaluate(positions, "pcbo_step")
        batch.end_step(estimates)

    return batch.reports
