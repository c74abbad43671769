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

from .ensemble import Ensemble, _cluster_ranks, _relabel
from .errors import (
    EmptyLeaderSetError,
    _check_clusters,
    _check_energies,
    _check_positions,
    _energies_of,
    _require_centres,
    _require_non_negative,
    _require_population,
    _require_positive,
    _require_run_limits,
    _require_unit,
)
from .objectives import ObjectiveSpec, _Workspace

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


def _require_diffusion(mode) -> None:
    """Raise ValueError unless ``mode`` is a DiffusionMode.

    A string assigned after construction misses ``__post_init__``'s
    conversion, and :func:`_diffusion_scale` would read it as anisotropic.
    """
    if not isinstance(mode, DiffusionMode):
        raise ValueError(f"diffusion must be a DiffusionMode, got {mode!r}")


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
        """Raise ValueError on any out-of-range hyperparameter, or population size when given."""
        if n_agents is not None:
            _require_population(n_agents)
        _require_positive(nu_f=self.nu_f, nu_l=self.nu_l)
        _require_non_negative(sigma_f=self.sigma_f)
        _require_unit(eps=self.eps)
        _require_centres("n_leaders", self.n_leaders, n_agents)
        _require_run_limits(self)
        _require_diffusion(self.diffusion)

    def omega_bar(self, n_agents: int) -> float:
        """Weight threshold for label transitions: leaders over population.

        Raises ValueError unless ``n_agents`` is a population size and
        ``n_leaders`` a count in [1, ``n_agents``].
        """
        n_agents = _require_population(n_agents)
        _require_centres("n_leaders", self.n_leaders, n_agents)
        return self.n_leaders / n_agents


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
    evaluations the full loop uses, ``n (iterations + 1)``: a pcbo run
    reported at a fixed point counts the steps it skipped too (see
    ``pcbo._run_replicas``).
    """

    iterations: int
    stalled: bool
    final_consensus: np.ndarray
    leader_count: int
    best_value: float
    evaluations: int
    seed: int


#: Dimension from which :func:`_nearest_centre` screens with a matrix product.
_SCREEN_MIN_DIM = 6

#: Centres times dimension up to which :func:`_nearest_centre` stays dense from
#: ``_SCREEN_MIN_DIM`` on.
_DENSE_MAX_TERMS = 48

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _dense_nearest(positions: np.ndarray, centres: np.ndarray, work: _Workspace) -> np.ndarray:
    """Index of the nearest centre of every agent, from every exact squared distance.

    Squared distances are accumulated one axis at a time, without the
    ``(n, centres, dim)`` intermediate. ``argmin`` returns the first minimum.
    Leading axes, if any, index replicas with centres of their own.

    The distances are laid out ``(n, centres)``, and each axis's
    differences ``x_i - c_k`` come from one matrix product
    ``[x, 1] @ [1; -c]``, stacked replicas included, which skips numpy's
    buffered broadcast iteration. The product is exact to the last
    bit: each entry sums two products, ``x 1`` and ``1 (-c)``, both exact,
    so any summation order, fused multiply-add or thread split of the BLAS
    rounds once, to ``fl(x - c)``, the value ``np.subtract`` gives, an
    overflow to inf included. The sign of a zero difference is lost in the
    square, and a BLAS that flushed subnormal inputs or results would change
    only differences below ``2**-967``, whose squares are zero anyway. So
    the sums are those of a per-axis subtract. Median microseconds per call,
    600 agents near some centres, the lower of two processes (numpy 2.4.6,
    OpenBLAS 0.3.31, 2 vCPUs):

    ==========  =====  =====  =====
    centres     d = 1  d = 3  d = 5
    ==========  =====  =====  =====
    1           24     43     68
    2           33     49     76
    4           34     59     81
    8           39     66     95
    12          45     79     115
    2 x 4       53     87     100
    ==========  =====  =====  =====

    (``2 x 4``: two replicas of 4 centres each, the shape of a two-replica
    pcbo batch.) A row-per-centre ``(centres, n)`` broadcast subtract per
    axis takes 16-36% less time at 1 centre and 6-22% less at 2, is level
    at 4, and takes more from 6 centres and at ``2 x 4``.
    """
    shape = positions.shape[:-1] + centres.shape[-2:-1]
    sq_dist, term, lhs, rhs = work.arrays(
        shape, shape, positions.shape[:-1] + (2,), centres.shape[:-2] + (2, shape[-1])
    )
    lhs[..., 1] = 1.0
    rhs[..., 0, :] = 1.0
    for axis in range(positions.shape[-1]):
        out = term if axis else sq_dist
        # x_i - c_k as x_i 1 + 1 (-c_k): both products are exact
        np.copyto(lhs[..., 0], positions[..., axis])
        np.negative(centres[..., axis], out=rhs[..., 1, :])
        np.matmul(lhs, rhs, out=out)
        np.square(out, out=out)
        if axis:
            np.add(sq_dist, term, out=sq_dist)
    return np.argmin(sq_dist, axis=-1)


def _screened_nearest(positions: np.ndarray, centres: np.ndarray, work: _Workspace) -> np.ndarray:
    """Nearest centres from a matrix-product screen, rows in doubt from :func:`_dense_nearest`.

    One matrix product ``[-2x, 1] @ [c; |c|^2]`` gives ``s_k = |c_k|^2 - 2 x.c_k``,
    the squared distance minus ``|x|^2``, for every agent and centre at
    once. Its argmin ``g`` is a guess. A row where a second centre has
    ``s_k`` within ``slack = 8 (d + 2) eps (|x|^2 + max|c|^2) + tiny`` of
    ``s_g`` is in doubt, and :func:`_dense_nearest` decides it from every
    exact per-axis distance.

    The slack is rigorous for any summation order of the product, with or
    without fused multiply-adds, so neither BLAS nor its thread count can
    change a result. With ``u = eps / 2`` and ``M = |x|^2 + max|c|^2``:
    ``-2x`` is exact; ``|c|^2`` is within ``d u |c|^2``; the product of
    ``d + 1`` terms whose magnitudes sum to at most ``|x|^2 + 2|c|^2`` is
    within ``(d + 1) u (|x|^2 + 2|c|^2)``, so each ``s_k`` is within
    ``(3d + 2) u M``; each exact per-axis distance is within
    ``(d + 2) u |x - c|^2 <= (2d + 4) u M`` of the true one. A centre with
    ``s_k > s_g + slack`` therefore has an exact distance strictly above
    that of ``g``, since ``slack`` exceeds the four errors together,
    ``4 (3d + 4) u M``, with room for higher-order terms. So a row no other
    centre comes within the slack of has ``g`` as its first exact minimum,
    and every other row gets the dense kernel's answer. ``tiny``, the
    smallest normal float, covers the absolute error of squares and products
    that underflow. When ``4 (|x|^2 + |c|^2)``, a bound on every
    intermediate, could overflow (coordinates beyond about 1e154, or a NaN),
    the dense kernel, whose inf distances order last, takes the whole call.
    """
    n_agents, dim = positions.shape
    sq_norm = np.einsum("ij,ij->i", centres, centres)
    agent_sq = np.einsum("ij,ij->i", positions, positions)
    if not np.isfinite(4.0 * (agent_sq.max() + sq_norm.max())):
        return _dense_nearest(positions, centres, work)
    lhs = np.empty((n_agents, dim + 1))
    np.multiply(positions, -2.0, out=lhs[:, :dim])
    lhs[:, dim] = 1.0
    rhs = np.empty((dim + 1, centres.shape[0]))
    rhs[:dim] = centres.T
    rhs[dim] = sq_norm
    (approx,) = work.arrays((n_agents, centres.shape[0]))
    np.matmul(lhs, rhs, out=approx)
    rows = np.arange(n_agents)
    guess = np.argmin(approx, axis=1)
    bound = approx[rows, guess]
    bound += (8.0 * (dim + 2) * _EPS) * (agent_sq + sq_norm.max()) + _TINY
    # rows whose second-best screened centre is also within the slack
    approx[rows, guess] = np.inf
    doubt = np.flatnonzero(approx.min(axis=1) <= bound)
    if doubt.size:
        guess[doubt] = _dense_nearest(positions.take(doubt, axis=0), centres, work)
    return guess


def _nearest_centre(positions: np.ndarray, centres: np.ndarray, work: _Workspace) -> np.ndarray:
    """Index of the nearest centre of every agent, ties to the lowest index.

    ``positions`` ``(n, d)`` with ``centres`` ``(k, d)`` give ``(n,)``
    indices; a stack of replicas, ``(R, n, d)`` with ``(R, k, d)``, gives
    ``(R, n)`` indices, each replica against its own centres. A dense pass
    covers every replica at once; the screen runs replica by replica.

    The one assignment kernel of both solvers. Distances are squared
    Euclidean distances summed one axis at a time, and a tie goes to the
    first minimum. :func:`_dense_nearest` computes all of those sums. From
    ``_SCREEN_MIN_DIM`` dimensions on, :func:`_screened_nearest` rules
    centres out with a matrix-product screen and hands the dense kernel only
    the rows it cannot decide, with the same result. A difference or square
    that overflows, or an inf - inf, gives an inf or NaN distance without a
    warning. With many centres the screen replaces d difference products
    and 2d - 1 passes over the ``(n, centres)`` matrix by one product and
    three passes, plus a dense pass over the rows in doubt. Those are many
    where centres have converged to within about 1e-6 of each other, which
    happens in fewer steps at low d. Median microseconds per call, dense /
    screened, on every seventh call of 600-agent ``run_gkbo`` runs of 500
    steps, seeds 0-1, 10 to 197 leaders, the lower of two processes
    (numpy 2.4.6, OpenBLAS 0.3.31, 2 vCPUs):

    =========  =========  =========  =========  =========  =========  =========
    objective  d = 3      d = 4      d = 5      d = 6      d = 7      d = 10
    =========  =========  =========  =========  =========  =========  =========
    rastrigin  150 / 173  211 / 263  214 / 176  229 / 187  243 / 161  332 / 170
    ackley     163 / 269  171 / 256  203 / 293  227 / 216  263 / 239  379 / 198
    =========  =========  =========  =========  =========  =========  =========

    (rastrigin4 and ackley4; at d = 2, rastrigin2 reads 100 / 169 and
    ackley2 112 / 249.) On Ackley 40-67% of the rows are in doubt up to
    d = 5, 26-31% at d = 6 and 7, and 4% at d = 10; on Rastrigin at most 7%.
    From d = 5 on the screen wins on Rastrigin; on Ackley it loses up to
    d = 5 and wins from d = 6, so the dimension rule stays at 6.

    With few centres the dense kernel is cheaper still, so the screen also
    waits until centres times d exceeds ``_DENSE_MAX_TERMS``. Median
    microseconds per call, 600 agents near their centres, dense / screened,
    the lower of two processes:

    =========  ===========  ===========  ===========
    centres    d = 6        d = 10       d = 17
    =========  ===========  ===========  ===========
    4          64 / 100     136 / 151    215 / 148
    8          103 / 119    129 / 166    264 / 150
    2 x 4      101 / 240    197 / 318    293 / 291
    9          105 / 156    187 / 144    304 / 158
    12         136 / 164    207 / 162    337 / 183
    =========  ===========  ===========  ===========

    At 9 and 12 centres, d = 6, the dense kernel is faster on these inputs,
    while recorded rastrigin4 inputs at d = 6 still favour the screen.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dim = positions.shape[-1]
        if dim < _SCREEN_MIN_DIM or centres.shape[-2] * dim <= _DENSE_MAX_TERMS:
            return _dense_nearest(positions, centres, work)
        if positions.ndim == 3:
            return np.stack([_screened_nearest(p, c, work) for p, c in zip(positions, centres)])
        return _screened_nearest(positions, centres, work)


def assign_clusters(ensemble: Ensemble) -> ClusterState:
    """Group every agent with its nearest leader.

    Followers join the leader at the smallest Euclidean distance, ties going
    to the leader with the lowest agent index. Every leader anchors its own
    cluster, so there are exactly as many clusters as leaders and none is
    empty. Raises EmptyLeaderSetError when the population has no leader.
    """
    if not ensemble.labels.any():
        raise EmptyLeaderSetError("population has no leaders to cluster around")
    leaders, _, cluster_of = _clusters(
        ensemble.positions, ensemble.labels, ensemble.n_agents, _Workspace()
    )
    return ClusterState(leaders=leaders, leader_of=leaders[cluster_of], cluster_of=cluster_of)


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
    _require_positive(alpha=alpha)
    energies = _energies_of(ensemble.positions, spec, energies, "cluster_consensus")
    _check_clusters(clusters, "cluster_consensus", ensemble.positions.shape)
    slots = clusters.cluster_of
    consensus = _consensus(ensemble.positions, energies, slots, clusters.n_clusters, float(alpha))
    return replace(clusters, consensus=consensus, agent_estimate=consensus[slots])


def cluster_weights(
    ensemble: Ensemble,
    clusters: ClusterState,
    spec: ObjectiveSpec | None = None,
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Rank every agent against its own cluster instead of the population.

    Returns the ``(n,)`` float64 weights ``omega``. Within each cluster the
    weight of an agent is the fraction of cluster members whose value lies
    strictly closer to the cluster's best value, so the cluster's best agent
    always gets weight zero and exact ties share a rank.

    This is the standing used for label transitions inside :func:`run_gkbo`:
    comparing agents only to their own cluster keeps leader turnover local, so
    one well-converged cluster cannot demote the leaders of every other one.
    :func:`gkbo.ensemble.compute_weights` is the population-wide counterpart.
    """
    energies = _energies_of(ensemble.positions, spec, energies, "cluster_weights")
    _check_clusters(clusters, "cluster_weights", ensemble.positions.shape)
    return _cluster_ranks(energies, clusters.cluster_of, clusters.n_clusters)


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
    followers: np.ndarray,
    leader_of: np.ndarray,
    estimates: np.ndarray,
    cfg: SolverConfig,
    noise: np.ndarray,
) -> np.ndarray:
    """Unchecked new positions after one synchronous move; see :func:`interaction_step`.

    Both updates are formed for every agent and the ``followers`` mask picks
    one, so only the follower rows of ``noise`` matter. An overflow gives a
    non-finite position without a warning; the caller reports it as
    NumericError.
    """
    gap = estimates - positions
    with np.errstate(over="ignore", invalid="ignore"):
        leader_step = positions + cfg.eps * cfg.nu_l * gap
        # take, not positions[leader_of]: fancy indexing of narrow rows is ~10x slower
        drift = cfg.eps * cfg.nu_f * (positions.take(leader_of, axis=0) - positions)
        scale = _diffusion_scale(gap, cfg.diffusion)
        follower_step = positions + drift + math.sqrt(cfg.eps) * cfg.sigma_f * scale * noise
        return np.where(followers[:, np.newaxis], follower_step, leader_step)


def _draws(out: np.ndarray, draw, rngs: list, counts: list) -> np.ndarray:
    """``out`` filled replica by replica: ``counts[r]`` rows of ``draw(rngs[r], out=rows)``.

    ``draw`` is a Generator method such as ``np.random.Generator.random``. A
    replica's numbers are those of its own run's fresh draw; filling one
    array costs less than joining fresh ones.
    """
    first = 0
    for rng, count in zip(rngs, counts):
        draw(rng, out=out[first : first + count])
        first += count
    return out


def _follower_noise(followers: np.ndarray, dim: int, rngs: list, counts) -> np.ndarray:
    """Noise row of every agent: the k-th follower's is the k-th drawn row, a leader's zeros.

    Replica r's generator ``rngs[r]`` draws its ``counts[r]`` followers' rows
    of ``dim`` standard normals in agent order, after one zero row. One
    ``take`` by follower rank, 0 for a leader, places them: at (7200, 2)
    that takes about 50 us, a zero array plus a boolean-mask scatter 190 us
    (numpy 2.4).
    """
    block = np.empty((1 + sum(counts), dim))
    block[0] = 0.0
    _draws(block[1:], np.random.Generator.standard_normal, rngs, counts)
    rank = np.cumsum(followers, dtype=np.intp)
    rank *= followers
    return block.take(rank, axis=0)


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
    cfg.validate()
    positions = ensemble.positions
    _check_clusters(clusters, "interaction_step", positions.shape, estimates=True)
    followers = ensemble.labels == 0
    noise = _follower_noise(followers, positions.shape[1], [rng], [np.count_nonzero(followers)])
    new_positions = _interact(
        positions, followers, clusters.leader_of, clusters.agent_estimate, cfg, noise
    )
    _check_positions(new_positions, "interaction_step", step)
    return Ensemble._unchecked(new_positions, ensemble.labels.copy())


def _update_stall(
    tracker: StallTracker, new_estimates: np.ndarray, delta_stall: float
) -> StallTracker:
    """Advance ``tracker``; the new tracker keeps ``new_estimates`` without copying it.

    The caller takes the stall indicator, the minimum counter, over the
    agents it stops on.
    """
    moved = np.abs(new_estimates - tracker.estimates)
    # the max over each row, taken down the columns of a transposed copy:
    # a reduction along short rows costs a loop call per agent
    small = np.ascontiguousarray(moved.T).max(axis=0) <= delta_stall
    counters = np.where(small, tracker.counters + 1, 0)
    return StallTracker(counters=counters, estimates=new_estimates)


def check_stall(
    tracker: StallTracker, clusters: ClusterState, delta_stall: float
) -> tuple[StallTracker, int]:
    """Advance the stall tracker with the latest per-agent consensus estimates.

    An agent's counter increments when its estimate moved by at most
    ``delta_stall`` in the max norm since the previous check and resets to
    zero otherwise, so it counts consecutive quiet steps. Returns the new
    tracker and the population-wide stall indicator: the minimum counter.
    The tracker must hold ``(n, d)`` estimates and n integer counters.
    """
    _require_non_negative(delta_stall=delta_stall)
    shape = np.shape(tracker.estimates)
    if len(shape) != 2:
        raise ValueError(f"check_stall: estimates must have shape (n, d), got {shape}")
    counters = np.asarray(tracker.counters)
    if counters.shape != shape[:1] or counters.dtype.kind not in "iu":
        raise ValueError(f"check_stall: counters must hold {shape[0]} integers, one per agent")
    _check_clusters(clusters, "check_stall", shape, estimates=True)
    tracker = _update_stall(tracker, clusters.agent_estimate.copy(), float(delta_stall))
    return tracker, int(tracker.counters.min())


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-d array in first-occurrence order."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def run_gkbo(spec: ObjectiveSpec, cfg: SolverConfig, n_agents: int = 600) -> RunReport:
    """Run the leader-follower solver to stall or the step budget.

    The population starts uniformly in the configured box, all followers, and
    one deterministic transition pass immediately promotes the agents whose
    population-wide rank weight is below ``n_leaders / n_agents``. Each step
    then moves all agents, re-evaluates the objective once, applies
    stochastic label transitions driven by within-cluster standing (see
    :func:`cluster_weights`); should they leave the population leaderless, a
    deterministic pass with that step's within-cluster weights, not the
    population-wide ranks of the start, promotes every agent whose weight is
    below the same threshold. The step then reclusters and recomputes the
    consensus points. The run stops after ``n_steps`` steps or once every
    agent's consensus estimate has stayed within ``delta_stall`` (max norm)
    for ``j_stall`` consecutive steps.

    ``n_agents`` must be an integer of at least 1; it is checked before the
    configuration. All randomness comes from one generator seeded with
    ``cfg.seed``, so equal configurations produce identical reports. A
    non-finite position or objective value raises NumericError naming the
    phase, the step and the first offending agent; at the start, before any
    step, it names the objective. The run is a batch of one replica; see
    :func:`_run_replicas`.
    """
    return _run_replicas(spec, cfg, n_agents, (cfg.seed,))[0]


def _keep(stacked: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows of the replicas ``keep`` selects from an array stacked replica by replica."""
    rest = stacked.shape[1:]
    return stacked.reshape(keep.size, -1, *rest)[keep].reshape(-1, *rest)


class _Replicas:
    """The seeded replicas of one solver batch, stepped together on stacked ``(R n, d)`` arrays.

    Replica r is the run with ``seed=seeds[r]``: it owns
    ``default_rng(seeds[r])`` and draws from it in that run's order, and its
    rows of the stacked arrays go through kernels whose result for a row
    does not depend on other rows, so its report is its own run's, bit for
    bit. The batch holds what both solvers' loops share: the start, the
    draws, the positions and objective values, the stall counters, the
    ``reports`` and ``work``, the scratch memory that every step's objective
    and nearest-centre calls reuse. A loop keeps its own per-replica state,
    such as labels or centres, and keeps in it the slots that :meth:`freeze`
    returns.

    The constructor starts every replica: it draws the start positions
    uniformly from the box, finite by construction, and evaluates the
    stacked draws in one call, so ``work`` takes the batch's size once.

    A replica that stalls or reaches the step budget is frozen there: its
    report is taken and its rows are dropped. A loop may mark replicas
    settled, at a fixed point of its step; :meth:`freeze` reports those at
    once with the report the full loop gives. The batch raises NumericError
    at the first non-finite objective value, at the start or after a step.
    In a batch of one replica that is its own run's error; in a larger
    batch the agent is counted over the stacked rows, so
    ``bench._execute_run`` runs such a batch's seeds again one at a time to
    raise the lowest failing seed's own error.
    """

    def __init__(self, spec: ObjectiveSpec, cfg, n_agents: int, seeds) -> None:
        self.n = _require_population(n_agents)  # validate(None) means no population given
        cfg.validate(self.n)
        self.spec, self.cfg, self.seeds = spec, cfg, seeds
        self.delta_stall = float(cfg.delta_stall)
        self.steps = 0
        self.work = _Workspace()
        self.reports: list[RunReport | None] = [None] * len(seeds)
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.live = np.arange(len(seeds))  # the replica in every slot of the stack
        shape = (self.n, spec.dim)
        self.positions = np.concatenate(
            [rng.uniform(cfg.init_lo, cfg.init_hi, shape) for rng in self.rngs]
        )
        self.energies = spec._values(self.positions, self.work)
        self._check("start", None)

    def watch(self, estimates: np.ndarray) -> None:
        """Start every stall counter at zero on the first consensus estimates."""
        self.tracker = StallTracker(np.zeros(estimates.shape[0], dtype=np.int64), estimates)

    def draws(self, draw, *shape) -> np.ndarray:
        """A ``shape`` block of draws per agent from every replica's generator, stacked.

        ``draw`` is a Generator method that fills ``out``, such as
        ``np.random.Generator.random``. Each replica fills its own n rows of
        one new array with the numbers of its own run's fresh ``(n, *shape)``
        draw: at two replicas of 600 rows, d = 1-5, that costs 2-10 us less
        a step than joining fresh normals, and at 12 replicas of 600 agents
        46-52 us against 54-60 us for uniforms; a batch of one costs what a
        fresh draw does (numpy 2.4, 2 vCPUs).
        """
        out = np.empty((self.energies.size, *shape))
        return _draws(out, draw, self.rngs, [self.n] * len(self.rngs))

    def evaluate(self, positions: np.ndarray, phase: str) -> None:
        """Take a step's new positions and their objective values, checked once.

        ``phase`` names the kernel that made the positions.
        """
        self.positions = positions
        self.energies = self.spec._values(positions, self.work)
        self._check(phase, self.steps)

    def _check(self, phase: str, step: int | None) -> None:
        """Raise NumericError at the first non-finite position, else objective value.

        The values alone decide whether to look: every coordinate of a point
        passes through a cosine in both base functions, so a non-finite
        coordinate gives a NaN value. ``phase`` names the kernel that made
        the positions; a ``step`` of None, the start, is left out of the
        message.
        """
        if not np.isfinite(self.energies).all():
            _check_positions(self.positions, phase, step)
            _check_energies(self.energies, "objective", step)

    def end_step(self, estimates: np.ndarray) -> None:
        """Close a step: advance the stall counters with the new consensus estimates."""
        self.tracker = _update_stall(self.tracker, estimates, self.delta_stall)
        self.steps += 1

    def freeze(
        self, consensus: np.ndarray, bounds, settled: np.ndarray | bool = False
    ) -> np.ndarray | None:
        """Report and drop the replicas that have stalled or used up the step budget.

        Returns the mask of the slots kept, which the loop keeps in its own
        state, or None once every replica is reported. Slot r's consensus
        points are ``consensus[bounds[r]:bounds[r + 1]]``. A slot that
        ``settled`` marks is one whose every later step changes nothing but
        its stall counters, each up by one: it is reported at once with the
        report the full loop gives, at the step where its least counter
        reaches ``j_stall`` or at the step budget, whichever comes first.
        """
        n, cfg, steps = self.n, self.cfg, self.steps
        least = self.tracker.counters.reshape(-1, n).min(axis=1)  # every slot's stall indicator
        if steps < cfg.n_steps and least.max() < cfg.j_stall and not np.any(settled):
            return np.ones(least.size, dtype=bool)
        iterations = np.minimum(steps + settled * np.maximum(0, cfg.j_stall - least), cfg.n_steps)
        stalled = least + iterations - steps >= cfg.j_stall
        keep = ~stalled & (iterations < cfg.n_steps)
        for slot in np.flatnonzero(~keep):
            self.reports[self.live[slot]] = RunReport(
                iterations=int(iterations[slot]),
                stalled=bool(stalled[slot]),
                final_consensus=_distinct_rows(consensus[bounds[slot] : bounds[slot + 1]]),
                leader_count=bounds[slot + 1] - bounds[slot],
                best_value=float(self.energies[slot * n : (slot + 1) * n].min()),
                evaluations=n * (int(iterations[slot]) + 1),
                seed=int(self.seeds[self.live[slot]]),
            )
        self.positions, self.energies, self.live = (
            _keep(a, keep) for a in (self.positions, self.energies, self.live)
        )
        self.tracker = StallTracker(
            _keep(self.tracker.counters, keep), _keep(self.tracker.estimates, keep)
        )
        self.rngs = [rng for rng, kept in zip(self.rngs, keep) if kept]
        return keep if self.live.size else None


def _clusters(
    positions: np.ndarray, labels: np.ndarray, n: int, work: _Workspace
) -> tuple[np.ndarray, list, np.ndarray]:
    """Leaders, leader bounds and cluster slots of stacked replicas of n agents.

    ``leaders`` holds every leader, ascending. Replica r's leaders are
    ``leaders[bounds[r]:bounds[r + 1]]`` and own the cluster slots
    ``bounds[r]`` to ``bounds[r + 1] - 1``, a leader its own one; the last
    bound is the leader count. ``slots`` gives every agent's slot: a
    follower takes that of its replica's nearest leader. Only follower rows
    go to :func:`_nearest_centre`, replica by replica since leader counts
    differ; a replica without followers skips it. Every replica with
    followers must have a leader. Leaders were 26-69 of 600 rows at step
    100 of 500-step rastrigin2 runs and 50-194 at the last step.
    """
    leaders = np.flatnonzero(labels)
    bounds = np.searchsorted(leaders, np.arange(0, labels.size + 1, n)).tolist()
    slots = np.empty(labels.size, dtype=np.intp)
    slots[leaders] = np.arange(leaders.size)
    followers = np.flatnonzero(labels == 0)
    for lo, hi, first in zip(bounds, bounds[1:], range(0, labels.size, n)):
        # the replicas before this one hold first - lo followers
        own = followers[first - lo : first + n - hi]
        if own.size:
            # take, not fancy indexing: gathering narrow rows is ~10x faster
            nearest = _nearest_centre(
                positions.take(own, axis=0), positions.take(leaders[lo:hi], axis=0), work
            )
            slots[own] = nearest + lo
    return leaders, bounds, slots


def _run_replicas(
    spec: ObjectiveSpec, cfg: SolverConfig, n_agents: int, seeds
) -> list[RunReport]:
    """One :func:`run_gkbo` report per seed, from the replicas of one :class:`_Replicas` batch.

    A replica starts as its run does, from the positions the batch's
    constructor drew: the population-wide ranks of its agents promote those
    below ``n_leaders / n_agents``, one rank call serving every replica
    with each replica as one cluster. Its leaders take the cluster slots
    after those of replicas 0 .. r-1, so one rank call and one consensus
    call serve every step too: ``bincount`` still adds each cluster's terms
    in agent order, and ranks do not depend on the order of ties, so the
    report is bit-identical. One :func:`_clusters` call clusters the start
    and every step; before it, the leaderless safety net relabels only the
    replicas whose labels hold no leader. When :meth:`_Replicas.freeze`
    drops replicas, the loop keeps the others' labels and clusters them
    again with one more call. A step draws the follower normals of every
    replica before its transition uniforms.
    """
    batch = _Replicas(spec, cfg, n_agents, seeds)
    n = batch.n
    omega_bar = cfg.omega_bar(n)
    eps = float(cfg.eps)
    alpha = float(cfg.alpha)

    replicas = batch.live.size
    ranks = _cluster_ranks(batch.energies, np.arange(replicas).repeat(n), replicas)
    labels = _relabel(np.zeros(replicas * n, dtype=np.int64), ranks, omega_bar)
    leaders, bounds, slots = _clusters(batch.positions, labels, n, batch.work)
    consensus = _consensus(batch.positions, batch.energies, slots, leaders.size, alpha)
    # take, not consensus[slots]: fancy indexing of narrow rows is ~10x slower
    batch.watch(consensus.take(slots, axis=0))

    while (keep := batch.freeze(consensus, bounds)) is not None:
        if not keep.all():
            labels = _keep(labels, keep)
            leaders, bounds, slots = _clusters(batch.positions, labels, n, batch.work)
        followers = labels == 0
        noise = _follower_noise(followers, spec.dim, batch.rngs, n - np.diff(bounds))
        positions = _interact(
            batch.positions, followers, leaders[slots], batch.tracker.estimates, cfg, noise
        )
        batch.evaluate(positions, "interaction_step")

        omega = _cluster_ranks(batch.energies, slots, bounds[-1])
        labels = _relabel(labels, omega, omega_bar, batch.draws(np.random.Generator.random) < eps)
        leaderless = ~labels.reshape(-1, n).any(axis=1)
        if leaderless.any():
            rows = leaderless.repeat(n)
            labels[rows] = _relabel(labels[rows], omega[rows], omega_bar)
        leaders, bounds, slots = _clusters(batch.positions, labels, n, batch.work)
        consensus = _consensus(batch.positions, batch.energies, slots, leaders.size, alpha)
        batch.end_step(consensus.take(slots, axis=0))

    return batch.reports
