"""Leader-follower kinetic particle solver.

A population of agents minimizes a black-box objective. Agents carry a binary
leadership label. Each step, every agent is grouped with its nearest leader;
each group computes a softmax consensus point concentrated on its best agent;
leaders drift toward their group's consensus point while followers drift
toward their leader's position with multiplicative noise. Leadership itself is
re-negotiated each step from rank-based weights, so exploration and
exploitation are balanced by the population, not by a schedule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import (
    Ensemble,
    WeightVector,
    _relabel,
    compute_weights,
    deterministic_label_pass,
    init_uniform,
)
from .errors import EmptyLeaderSetError, NumericError
from .objectives import ObjectiveSpec

__all__ = [
    "DiffusionMode",
    "SolverConfig",
    "ClusterState",
    "StallTracker",
    "RunReport",
    "assign_clusters",
    "cluster_consensus",
    "cluster_weights",
    "interaction_step",
    "check_stall",
    "run_gkbo",
]


class DiffusionMode(enum.Enum):
    """Shape of the multiplicative noise applied to followers.

    ISOTROPIC scales an independent Gaussian identically in every direction by
    the distance to the agent's consensus estimate; ANISOTROPIC scales each
    coordinate by that coordinate of the gap, so directions already agreed on
    receive no noise.
    """

    ISOTROPIC = "isotropic"
    ANISOTROPIC = "anisotropic"


def _require_positive(cfg, *names: str) -> None:
    """Raise ValueError unless every named field of ``cfg`` is finite and positive."""
    for name in names:
        value = getattr(cfg, name)
        if not np.isfinite(float(value)) or float(value) <= 0.0:
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _require_non_negative(cfg, *names: str) -> None:
    """Raise ValueError unless every named field of ``cfg`` is finite and non-negative."""
    for name in names:
        value = float(getattr(cfg, name))
        if not np.isfinite(value) or value < 0.0:
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _require_run_limits(cfg) -> None:
    """Check the step budget, stall window, seed and initialization box both solvers share."""
    if int(cfg.n_steps) < 0:
        raise ValueError(f"n_steps must be non-negative, got {cfg.n_steps}")
    if int(cfg.j_stall) < 1:
        raise ValueError(f"j_stall must be at least 1, got {cfg.j_stall}")
    if int(cfg.seed) < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")
    lo, hi = float(cfg.init_lo), float(cfg.init_hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid initialization box [{lo}, {hi}]")


@dataclass
class SolverConfig:
    """Hyperparameters of the leader-follower solver.

    Defaults follow the reference operating point used by the benchmark
    experiments: time step ``eps`` 0.1, softmax sharpness ``alpha`` 5e6,
    follower/leader drift strengths 1 and 2, anisotropic noise with strength
    2.5, 12 leaders, at most 10000 steps with a stall window of 1000 steps at
    tolerance 1e-4, and initialization in the box [-10, 10]^d.
    """

    nu_f: float = 1.0
    nu_l: float = 2.0
    sigma_f: float = 2.5
    eps: float = 0.1
    alpha: float = 5e6
    n_leaders: int = 12
    n_steps: int = 10_000
    delta_stall: float = 1e-4
    j_stall: int = 1000
    diffusion: DiffusionMode = DiffusionMode.ANISOTROPIC
    seed: int = 0
    init_lo: float = -10.0
    init_hi: float = 10.0

    def __post_init__(self) -> None:
        self.diffusion = DiffusionMode(self.diffusion)

    def validate(self, n_agents: int | None = None) -> None:
        """Raise ValueError on any out-of-range hyperparameter."""
        _require_positive(self, "nu_f", "nu_l")
        _require_non_negative(self, "sigma_f", "delta_stall")
        if not 0.0 < float(self.eps) <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        _require_positive(self, "alpha")
        if int(self.n_leaders) < 1:
            raise ValueError(f"n_leaders must be at least 1, got {self.n_leaders}")
        _require_run_limits(self)
        if n_agents is not None and int(self.n_leaders) > int(n_agents):
            raise ValueError(
                f"n_leaders ({self.n_leaders}) cannot exceed the population size ({n_agents})"
            )

    def omega_bar(self, n_agents: int) -> float:
        """Weight threshold for label transitions: leaders over population."""
        return int(self.n_leaders) / int(n_agents)


@dataclass
class ClusterState:
    """Leader clusters of a population.

    ``leaders`` holds the leader agent indices in ascending order; cluster
    slot ``k`` belongs to ``leaders[k]``. ``leader_of[i]`` is the agent index
    of agent i's leader and ``cluster_of[i]`` the corresponding slot. After
    :func:`cluster_consensus`, ``consensus`` holds one point per cluster and
    ``agent_estimate[i]`` the consensus point of agent i's cluster.
    """

    leaders: np.ndarray
    leader_of: np.ndarray
    cluster_of: np.ndarray
    consensus: np.ndarray | None = None
    agent_estimate: np.ndarray | None = None

    @property
    def n_clusters(self) -> int:
        return int(self.leaders.shape[0])


@dataclass
class StallTracker:
    """Per-agent consecutive counts of small consensus-estimate moves."""

    counters: np.ndarray
    estimates: np.ndarray


@dataclass
class RunReport:
    """Outcome of one solver run.

    ``final_consensus`` holds the distinct consensus points at termination,
    one row per point, in first-occurrence order over the clusters. For the
    leader-follower solver ``leader_count`` is the number of leaders at
    termination; for the clustered-baseline solver it is the number of cluster
    centres. ``best_value`` is the lowest objective value in the final
    population and ``evaluations`` the total number of single-point objective
    evaluations consumed.
    """

    iterations: int
    stalled: bool
    final_consensus: np.ndarray
    leader_count: int
    best_value: float
    evaluations: int
    seed: int


class _Workspace:
    """Scratch memory of one solver run for the nearest-leader distances.

    Holds two ``(n, leaders)`` float64 matrices in one flat buffer that grows
    geometrically and never shrinks, so a run allocates it a handful of times
    however the leader count moves. Contents between calls are undefined.
    """

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def matrices(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        size = rows * cols
        if 2 * size > self._flat.size:
            self._flat = np.empty(max(2 * size, 2 * self._flat.size))
        return (
            self._flat[:size].reshape(rows, cols),
            self._flat[size : 2 * size].reshape(rows, cols),
        )


def _nearest_leader(positions: np.ndarray, leaders: np.ndarray, work: _Workspace) -> np.ndarray:
    """Cluster slot of every agent: its nearest leader, or its own slot for a leader.

    Squared distances are accumulated one axis at a time, adding terms in the
    same order as a contraction over the trailing axis would, without the
    ``(n, leaders, dim)`` intermediate. ``argmin`` returns the first minimum,
    which is the lowest leader index since ``leaders`` is ascending. A square
    that overflows becomes inf without a warning; it still orders after every
    finite distance.
    """
    leader_pos = positions[leaders]
    sq_dist, term = work.matrices(positions.shape[0], leaders.size)
    with np.errstate(over="ignore"):
        for axis in range(positions.shape[1]):
            out = term if axis else sq_dist
            # x_i - l_k with l_k tiled row-wise first: subtracting a per-row
            # scalar from a contiguous row is the fast broadcast direction.
            np.copyto(out, leader_pos[:, axis])
            np.subtract(positions[:, axis, np.newaxis], out, out=out)
            np.square(out, out=out)
            if axis:
                np.add(sq_dist, term, out=sq_dist)
    cluster_of = np.argmin(sq_dist, axis=1)
    cluster_of[leaders] = np.arange(leaders.size)
    return cluster_of


def assign_clusters(ensemble: Ensemble) -> ClusterState:
    """Group every agent with its nearest leader.

    Followers join the leader at the smallest Euclidean distance, ties going
    to the leader with the lowest agent index. Every leader anchors its own
    cluster, so there are exactly as many clusters as leaders and none is
    empty. Raises EmptyLeaderSetError when the population has no leader.
    """
    leaders = ensemble.leader_indices()
    if leaders.size == 0:
        raise EmptyLeaderSetError("population has no leaders to cluster around")
    cluster_of = _nearest_leader(ensemble.positions, leaders, _Workspace())
    return ClusterState(leaders=leaders, leader_of=leaders[cluster_of], cluster_of=cluster_of)


def _block_starts(sorted_slots: np.ndarray) -> np.ndarray:
    """Mask of the entries that open a new cluster block in sorted slots."""
    starts = np.ones(sorted_slots.shape[0], dtype=bool)
    np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=starts[1:])
    return starts


def _slot_order(slots: np.ndarray, n_clusters: int) -> np.ndarray:
    """Stable argsort of cluster slots; slots that fit 16 bits sort by radix."""
    if n_clusters <= 1 << 16:
        slots = slots.astype(np.uint16)
    return np.argsort(slots, kind="stable")


def _cluster_min(energies: np.ndarray, slots: np.ndarray, n_clusters: int) -> np.ndarray:
    """Lowest energy of every cluster; inf for a cluster without agents."""
    # numpy's unbuffered ufunc.at scatter (numpy >= 1.25) is 4-6x faster than
    # sorting the slots for minimum.reduceat, from 4 to 600 clusters of 600 agents
    cluster_min = np.full(n_clusters, np.inf)
    np.minimum.at(cluster_min, slots, energies)
    return cluster_min


def _consensus(
    positions: np.ndarray,
    energies: np.ndarray,
    slots: np.ndarray,
    n_clusters: int,
    alpha: float,
    previous: np.ndarray | None = None,
) -> np.ndarray:
    """Softmax consensus point of every cluster, one row per slot.

    A cluster without agents, which only the clustered baseline can have,
    keeps its row of ``previous``.
    """
    cluster_min = _cluster_min(energies, slots, n_clusters)
    # an exponent that overflows to -inf gives weight 0, the value it rounds to anyway
    with np.errstate(over="ignore"):
        weights = np.exp(-alpha * (energies - cluster_min[slots]))
    denom = np.bincount(slots, weights=weights, minlength=n_clusters)
    consensus = np.empty((n_clusters, positions.shape[1]))
    for axis in range(positions.shape[1]):
        consensus[:, axis] = np.bincount(
            slots, weights=weights * positions[:, axis], minlength=n_clusters
        )
    if previous is not None:
        # an occupied cluster has denominator at least 1, from its best agent's exp(0)
        empty = denom == 0.0
        if empty.any():
            consensus[empty] = previous[empty]
            denom[empty] = 1.0
    consensus /= denom[:, np.newaxis]
    return consensus


def _check_energies(energies: np.ndarray, phase: str, step: int | None = None) -> None:
    """Raise NumericError naming the phase, the first non-finite agent and the step."""
    if not np.isfinite(energies).all():
        agent = int(np.flatnonzero(~np.isfinite(energies))[0])
        at = "" if step is None else f" at step {step}"
        raise NumericError(f"{phase}: agent {agent} has a non-finite objective value{at}")


def _check_positions(positions: np.ndarray, phase: str, step: int | None = None) -> None:
    """Raise NumericError naming the phase, the first agent with a non-finite coordinate and the step."""
    if not np.isfinite(positions).all():
        agent = int(np.flatnonzero(~np.isfinite(positions).all(axis=1))[0])
        at = "" if step is None else f" at step {step}"
        raise NumericError(f"{phase}: agent {agent} reached a non-finite position{at}")


def cluster_consensus(
    ensemble: Ensemble,
    spec: ObjectiveSpec | None,
    clusters: ClusterState,
    alpha: float,
    energies: np.ndarray | None = None,
) -> ClusterState:
    """Softmax consensus point of every cluster.

    Within each cluster the agents are combined with weights
    ``exp(-alpha * (E_i - E_min))`` where ``E_min`` is the cluster's lowest
    objective value; subtracting the per-cluster minimum keeps the exponent in
    [0, -inf) so the weights never overflow and the denominator is at least 1.
    Returns a new ClusterState carrying ``consensus`` and ``agent_estimate``.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if energies is None:
        if spec is None:
            raise ValueError("either an objective or precomputed energies is required")
        energies = spec.evaluate_batch(ensemble.positions)
    else:
        energies = np.asarray(energies, dtype=np.float64)
        if energies.shape != (ensemble.n_agents,):
            raise ValueError(
                f"energies must have shape ({ensemble.n_agents},), got {energies.shape}"
            )
    _check_energies(energies, "cluster_consensus")
    slots = clusters.cluster_of
    consensus = _consensus(ensemble.positions, energies, slots, clusters.n_clusters, alpha)
    return replace(clusters, consensus=consensus, agent_estimate=consensus[slots])


def _cluster_ranks(energies: np.ndarray, slots: np.ndarray, n_clusters: int) -> np.ndarray:
    """Within-cluster rank weight of every agent; see :func:`cluster_weights`."""
    n_agents = energies.shape[0]
    # Sort by (cluster, energy): each cluster block starts with its best agent,
    # and the gaps to it never decrease along the block, since rounding
    # ``E - E_min`` is monotone in ``E``. The rank of an agent is then the
    # offset of its run of equal gaps from the start of its block, so ties
    # share the lowest rank whatever order the sort left them in.
    by_energy = np.argsort(energies)
    order = by_energy[_slot_order(slots[by_energy], n_clusters)]
    sorted_slots = slots[order]
    sorted_energies = energies[order]
    position = np.arange(n_agents)
    new_block = _block_starts(sorted_slots)
    block_first = np.maximum.accumulate(np.where(new_block, position, -1))
    sorted_gaps = np.abs(sorted_energies - sorted_energies[block_first])
    new_run = new_block.copy()
    new_run[1:] |= sorted_gaps[1:] != sorted_gaps[:-1]
    run_first = np.maximum.accumulate(np.where(new_run, position, -1))
    sizes = np.bincount(slots, minlength=n_clusters)
    omega = np.empty(n_agents, dtype=np.float64)
    omega[order] = (run_first - block_first) / sizes[sorted_slots]
    return omega


def cluster_weights(
    ensemble: Ensemble,
    clusters: ClusterState,
    spec: ObjectiveSpec | None = None,
    energies: np.ndarray | None = None,
) -> WeightVector:
    """Rank every agent against its own cluster instead of the population.

    Within each cluster the weight of an agent is the fraction of cluster
    members whose value lies strictly closer to the cluster's best value, so
    the cluster's best agent always gets weight zero and exact ties share a
    rank. ``best_index`` still reports the population-wide best agent.

    This is the standing used for label transitions inside :func:`run_gkbo`:
    comparing agents only to their own cluster keeps leader turnover local, so
    one well-converged cluster cannot demote the leaders of every other one.
    :func:`gkbo.ensemble.compute_weights` is the population-wide counterpart.
    """
    if energies is None:
        if spec is None:
            raise ValueError("either spec or energies is required")
        energies = spec.evaluate_batch(ensemble.positions)
    energies = np.asarray(energies, dtype=np.float64)
    if energies.shape != (ensemble.n_agents,):
        raise ValueError("energies must hold one value per agent")
    _check_energies(energies, "cluster_weights")
    if clusters.cluster_of.shape != (ensemble.n_agents,):
        raise ValueError("cluster state does not match the population")
    omega = _cluster_ranks(energies, clusters.cluster_of, clusters.n_clusters)
    return WeightVector(omega=omega, best_index=int(np.argmin(energies)))


def _diffusion_scale(delta: np.ndarray, mode: DiffusionMode) -> np.ndarray:
    """Per-agent elementwise noise scale equivalent to applying D to a draw.

    An isotropic norm that overflows becomes inf without a warning; the
    position it scales is then non-finite, which the caller reports.
    """
    if mode is DiffusionMode.ISOTROPIC:
        with np.errstate(over="ignore"):
            return np.linalg.norm(delta, axis=1, keepdims=True)
    return delta


def _interact(
    positions: np.ndarray,
    labels: np.ndarray,
    leader_of: np.ndarray,
    estimates: np.ndarray,
    cfg: SolverConfig,
    rng: np.random.Generator,
    step: int | None,
) -> np.ndarray:
    """New positions after one synchronous move; see :func:`interaction_step`.

    Both updates are formed for every agent and the label picks one, so the
    draws land in follower rows in agent order and leader rows draw nothing.
    """
    followers = labels == 0
    noise = np.zeros(positions.shape)
    noise[followers] = rng.standard_normal((np.count_nonzero(followers), positions.shape[1]))
    gap = estimates - positions
    # an overflow here is reported as NumericError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        leader_step = positions + cfg.eps * cfg.nu_l * gap
        drift = cfg.eps * cfg.nu_f * (positions[leader_of] - positions)
        scale = _diffusion_scale(gap, cfg.diffusion)
        follower_step = positions + drift + math.sqrt(cfg.eps) * cfg.sigma_f * scale * noise
        new_positions = np.where(followers[:, np.newaxis], follower_step, leader_step)
    _check_positions(new_positions, "interaction_step", step)
    return new_positions


def interaction_step(
    ensemble: Ensemble,
    clusters: ClusterState,
    cfg: SolverConfig,
    rng: np.random.Generator,
    step: int | None = None,
) -> Ensemble:
    """Move every agent once, synchronously.

    All reads (leader positions, consensus estimates) refer to the pre-step
    state. A leader moves by ``eps * nu_l`` of its gap to its cluster's
    consensus point and draws no randomness. A follower moves by
    ``eps * nu_f`` of its gap to its leader's position plus
    ``sqrt(eps) * sigma_f * D(x) xi`` with a fresh standard normal draw per
    follower, taken in agent order; D is shaped by the follower's consensus
    estimate according to ``cfg.diffusion``. Labels are unchanged. Raises
    NumericError naming the phase, the first offending agent and the step
    (when given) if any new position is non-finite.
    """
    if clusters.agent_estimate is None:
        raise ValueError("cluster state lacks consensus estimates; run cluster_consensus first")
    new_positions = _interact(
        ensemble.positions,
        ensemble.labels,
        clusters.leader_of,
        clusters.agent_estimate,
        cfg,
        rng,
        step,
    )
    return Ensemble._unchecked(new_positions, ensemble.labels.copy())


def _update_stall(
    tracker: StallTracker, new_estimates: np.ndarray, delta_stall: float
) -> tuple[StallTracker, int]:
    """Advance ``tracker``; the new tracker keeps ``new_estimates`` without copying it."""
    moved = np.abs(new_estimates - tracker.estimates)
    # the max over each row, taken down the columns of a transposed copy:
    # a reduction along short rows costs a loop call per agent
    small = np.ascontiguousarray(moved.T).max(axis=0) <= delta_stall
    counters = np.where(small, tracker.counters + 1, 0)
    return StallTracker(counters=counters, estimates=new_estimates), int(counters.min())


def check_stall(
    tracker: StallTracker, clusters: ClusterState, delta_stall: float
) -> tuple[StallTracker, int]:
    """Advance the stall tracker with the latest per-agent consensus estimates.

    An agent's counter increments when its estimate moved by at most
    ``delta_stall`` in the max norm since the previous check and resets to
    zero otherwise, so it counts consecutive quiet steps. Returns the new
    tracker and the population-wide stall indicator: the minimum counter.
    """
    if clusters.agent_estimate is None:
        raise ValueError("cluster state lacks consensus estimates; run cluster_consensus first")
    delta_stall = float(delta_stall)
    if not np.isfinite(delta_stall) or delta_stall < 0.0:
        raise ValueError(f"delta_stall must be finite and non-negative, got {delta_stall}")
    if tracker.estimates.shape != clusters.agent_estimate.shape:
        raise ValueError("stall tracker does not match the population")
    return _update_stall(tracker, clusters.agent_estimate.copy(), delta_stall)


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-d array in first-occurrence order."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def run_gkbo(spec: ObjectiveSpec, cfg: SolverConfig, n_agents: int = 600) -> RunReport:
    """Run the leader-follower solver to stall or the step budget.

    The population starts uniformly in the configured box, all followers, and
    one deterministic transition pass immediately promotes the agents whose
    population-wide rank weight is below ``n_leaders / n_agents``; the same
    pass is reapplied as a safety net if stochastic transitions ever leave the
    population leaderless. Each step then moves all agents, re-evaluates the
    objective once, applies stochastic label transitions driven by
    within-cluster standing (see :func:`cluster_weights`), reclusters, and
    recomputes the consensus points; the run stops after ``n_steps`` steps or
    once every agent's consensus estimate has stayed within ``delta_stall``
    (max norm) for ``j_stall`` consecutive steps.

    All randomness comes from one generator seeded with ``cfg.seed``, so equal
    configurations produce identical reports. A non-finite position or
    objective value raises NumericError naming the phase, the step and the
    first offending agent.
    """
    n_agents = int(n_agents)
    cfg.validate(n_agents)
    rng = np.random.default_rng(cfg.seed)
    omega_bar = cfg.omega_bar(n_agents)
    eps = float(cfg.eps)
    alpha = float(cfg.alpha)
    delta_stall = float(cfg.delta_stall)
    work = _Workspace()

    ens = init_uniform(n_agents, spec.dim, cfg.init_lo, cfg.init_hi, rng)
    positions = ens.positions
    energies = spec.evaluate_batch(positions)
    evaluations = n_agents
    labels = deterministic_label_pass(ens, compute_weights(ens, energies=energies), omega_bar).labels
    leaders = np.flatnonzero(labels)
    slots = _nearest_leader(positions, leaders, work)
    consensus = _consensus(positions, energies, slots, leaders.size, alpha)
    estimates = consensus[slots]
    tracker = StallTracker(counters=np.zeros(n_agents, dtype=np.int64), estimates=estimates)

    # The steps run on raw arrays through the phase kernels. Each array is
    # checked once, where it is made: positions by the interaction kernel,
    # energies right after the objective, whose overflows end in that check.
    steps = 0
    stall = 0
    while steps < cfg.n_steps and stall < cfg.j_stall:
        positions = _interact(positions, labels, leaders[slots], estimates, cfg, rng, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            energies = spec._values(positions)
        _check_energies(energies, "objective", steps)
        evaluations += n_agents
        omega = _cluster_ranks(energies, slots, leaders.size)
        labels = _relabel(labels, omega, omega_bar, rng.random(n_agents) < eps)
        if not labels.any():
            labels = _relabel(labels, omega, omega_bar)
        leaders = np.flatnonzero(labels)
        slots = _nearest_leader(positions, leaders, work)
        consensus = _consensus(positions, energies, slots, leaders.size, alpha)
        estimates = consensus[slots]
        tracker, stall = _update_stall(tracker, estimates, delta_stall)
        steps += 1

    return RunReport(
        iterations=steps,
        stalled=stall >= cfg.j_stall,
        final_consensus=_distinct_rows(consensus),
        leader_count=leaders.size,
        best_value=float(energies.min()),
        evaluations=evaluations,
        seed=int(cfg.seed),
    )
