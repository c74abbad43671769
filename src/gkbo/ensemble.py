"""Particle population state, rank-based weights and leader/follower moves.

The population carries a binary label per agent: 1 marks a leader, 0 a
follower. Leadership changes over time through stochastic label transitions
driven by each agent's rank-based weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    _energies_of,
    _integer,
    _omega_of,
    _require_box,
    _require_finite,
    _require_population,
    _require_unit,
)
from .objectives import ObjectiveSpec

__all__ = [
    "Ensemble",
    "init_uniform",
    "compute_weights",
    "apply_label_transitions",
    "deterministic_label_pass",
]


@dataclass
class Ensemble:
    """Population state: positions ``(n, d)`` and leadership labels ``(n,)``."""

    positions: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.float64)
        labels = np.asarray(self.labels)
        if positions.ndim != 2 or positions.shape[0] < 1:
            raise ValueError(
                f"positions must have shape (n, d) with n >= 1, got {positions.shape}"
            )
        if labels.shape != (positions.shape[0],):
            raise ValueError(
                f"labels must have shape ({positions.shape[0]},), got {labels.shape}"
            )
        _require_finite("positions", positions)
        # the values are checked before the cast, which would truncate 0.7 to 0
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError("labels must be 0 (follower) or 1 (leader)")
        self.positions = positions
        self.labels = labels.astype(np.int64, copy=False)

    @classmethod
    def _unchecked(cls, positions: np.ndarray, labels: np.ndarray) -> "Ensemble":
        """Wrap float64 positions and 0/1 int64 labels the caller has already validated."""
        ensemble = object.__new__(cls)
        ensemble.positions = positions
        ensemble.labels = labels
        return ensemble

    @property
    def n_agents(self) -> int:
        return int(self.positions.shape[0])

    @property
    def leader_count(self) -> int:
        return int(self.labels.sum())


def init_uniform(n_agents: int, dim: int, lo: float, hi: float, rng: np.random.Generator) -> Ensemble:
    """Draw an all-follower population uniformly from the box ``[lo, hi]^dim``."""
    n_agents = _require_population(n_agents)
    dim = _integer("dim", dim, 1)
    lo, hi = _require_box(lo, hi)
    positions = rng.uniform(lo, hi, size=(n_agents, dim))
    return Ensemble(positions=positions, labels=np.zeros(n_agents, dtype=np.int64))


def compute_weights(
    ensemble: Ensemble,
    spec: ObjectiveSpec | None = None,
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Rank-based weight of every agent, as an ``(n,)`` float64 array ``omega``.

    With ``E`` the objective values and ``b`` the best agent (lowest value,
    ties broken by lowest index), agent ``i`` gets

        omega[i] = #{j : |E[b] - E[j]| < |E[b] - E[i]|} / n,

    so the best agent always has weight 0 and every weight is a multiple of
    ``1/n``. Pass precomputed ``energies`` to skip re-evaluating the objective.
    """
    energies = _energies_of(ensemble.positions, spec, energies, "compute_weights")
    return _cluster_ranks(energies, np.zeros(ensemble.n_agents, dtype=np.intp), 1)


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


def _cluster_ranks(energies: np.ndarray, slots: np.ndarray, n_clusters: int) -> np.ndarray:
    """Rank weight of every agent within its cluster, one block of agents per slot.

    ``omega[i]`` is the fraction of agent ``i``'s cluster whose gap to the
    cluster's best value is strictly smaller than its own. With one cluster
    this is :func:`compute_weights`; :func:`gkbo.solver.cluster_weights` is
    the per-cluster form. A gap that overflows becomes inf without a
    warning and ranks after every finite gap.
    """
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
    with np.errstate(over="ignore"):
        sorted_gaps = np.abs(sorted_energies - sorted_energies[block_first])
    new_run = new_block.copy()
    new_run[1:] |= sorted_gaps[1:] != sorted_gaps[:-1]
    run_first = np.maximum.accumulate(np.where(new_run, position, -1))
    sizes = np.bincount(slots, minlength=n_clusters)
    omega = np.empty(n_agents, dtype=np.float64)
    omega[order] = (run_first - block_first) / sizes[sorted_slots]
    return omega


def apply_label_transitions(
    ensemble: Ensemble,
    omega: np.ndarray,
    omega_bar: float,
    eps: float,
    rng: np.random.Generator,
) -> Ensemble:
    """One synchronous round of stochastic leadership transitions.

    A follower with weight strictly below ``omega_bar`` becomes a leader with
    probability ``eps``; a leader with weight strictly above ``omega_bar``
    becomes a follower with probability ``eps``. Agents whose weight equals
    ``omega_bar`` keep their label. All decisions read the pre-round labels;
    positions are untouched. One uniform variate is drawn per agent, in agent
    order.
    """
    _require_unit(eps=eps)
    omega = _omega_of(omega, ensemble.n_agents, omega_bar, "apply_label_transitions")
    fire = rng.random(ensemble.n_agents) < float(eps)
    labels = _relabel(ensemble.labels, omega, float(omega_bar), fire)
    return Ensemble._unchecked(ensemble.positions, labels)


def deterministic_label_pass(
    ensemble: Ensemble,
    omega: np.ndarray,
    omega_bar: float,
) -> Ensemble:
    """Leadership transitions with every eligible transition taken.

    Same eligibility rules as :func:`apply_label_transitions` but with
    certainty instead of probability ``eps``, and no randomness consumed.
    Applied to an all-follower population it promotes exactly the agents with
    weight below ``omega_bar``. The solver loops apply the same rule on their
    stacked labels through :func:`_relabel`, not through this function, to
    seed leadership at startup and to recover a leaderless replica.
    """
    omega = _omega_of(omega, ensemble.n_agents, omega_bar, "deterministic_label_pass")
    labels = _relabel(ensemble.labels, omega, float(omega_bar))
    return Ensemble._unchecked(ensemble.positions, labels)


def _relabel(
    labels: np.ndarray, omega: np.ndarray, omega_bar: float, fire: np.ndarray | None = None
) -> np.ndarray:
    """New 0/1 labels: eligible agents switch, all of them or those where ``fire`` is set.

    A follower is eligible when its weight is strictly below ``omega_bar``, a
    leader when its weight is strictly above it.
    """
    switch = np.where(labels == 1, omega > omega_bar, omega < omega_bar)
    if fire is not None:
        switch &= fire
    return labels ^ switch
