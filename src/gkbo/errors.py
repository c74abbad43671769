"""Exceptions raised by the solvers, and the input checks the package shares.

Every scalar check of a config, a phase function or the harness lives
here, as do the argument checks that several phase functions share and
the minimizer-set check of both an objective and the harness's scoring. The
scalar checkers take values, not configs: each raises ValueError naming the
quantity, and those that accept a value return it as a float or an int. A
bool is never taken for a number, and a fractional count is rejected, never
truncated. Configs are checked once per experiment and once per solver
batch; the solvers' step loops call none of these checkers, only the
finiteness checks of the positions and values they produce.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmptyLeaderSetError", "NumericError"]


class NumericError(RuntimeError):
    """A numeric quantity (objective value or position) became non-finite."""


class EmptyLeaderSetError(RuntimeError):
    """An operation that needs at least one leader was given none."""


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _number(name: str, value, kind: str = "a number") -> float:
    """``value`` as a float; ValueError unless it is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return float(value)


def _integer(name: str, value, least: int | None = None, kind: str = "an integer") -> int:
    """``value`` as an int; ValueError unless it is an integer of at least ``least``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _require_positive(**values) -> None:
    """Raise ValueError unless every named value is a finite positive number."""
    for name, value in values.items():
        value = _number(name, value)
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _require_non_negative(**values) -> None:
    """Raise ValueError unless every named value is a finite non-negative number."""
    for name, value in values.items():
        value = _number(name, value)
        if not np.isfinite(value) or value < 0.0:
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _require_unit(**values) -> None:
    """Raise ValueError unless every named value is a number in (0, 1]."""
    for name, value in values.items():
        if not 0.0 < _number(name, value) <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {value}")


def _require_population(n_agents) -> int:
    """The population size as an int; ValueError unless it is an integer of at least 1."""
    if not _is_integer(n_agents) or n_agents < 1:
        raise ValueError(f"population size must be an integer of at least 1, got {n_agents!r}")
    return int(n_agents)


def _require_centres(name: str, count, n_agents: int | None) -> None:
    """Raise ValueError unless ``count`` is an integer in [1, ``n_agents``]; None sets no cap."""
    count = _integer(name, count, 1)
    if n_agents is not None and count > n_agents:
        raise ValueError(f"{name} ({count}) cannot exceed the population size ({n_agents})")


def _require_finite(name: str, *arrays: np.ndarray) -> None:
    """Raise ValueError unless every coordinate of the arrays ``name`` spells is finite."""
    if not all(np.isfinite(array).all() for array in arrays):
        raise ValueError(f"{name} must have finite coordinates")


def _require_minimizers(minimizers: np.ndarray, dim: int) -> None:
    """Raise ValueError unless ``minimizers`` is a finite ``(n_min, dim)`` array with n_min >= 1."""
    if minimizers.ndim != 2 or minimizers.shape[0] < 1 or minimizers.shape[1] != dim:
        raise ValueError(f"minimizers must have shape (n_min, {dim}), got {minimizers.shape}")
    _require_finite("minimizers", minimizers)


def _points_and_centres(positions, centres, phase: str | None = None):
    """``(n, d)`` positions and ``(k, d)`` centres, k >= 1, as float64 arrays of finite coordinates.

    Raises ValueError otherwise. A phase function names itself in
    ``phase`` and is told which array is at fault; without it the message
    covers both arrays, as ``pcbo_assign`` has always reported them.
    """
    positions = np.asarray(positions, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    if phase is not None:
        if positions.ndim != 2 or not np.isfinite(positions).all():
            raise ValueError(f"{phase}: positions must be finite, of shape (n, d)")
        dim = positions.shape[1]
        fits = centres.ndim == 2 and centres.shape[0] >= 1 and centres.shape[1] == dim
        if not (fits and np.isfinite(centres).all()):
            raise ValueError(f"{phase}: centres must be finite, of shape (k, {dim})")
        return positions, centres
    if positions.ndim != 2 or centres.ndim != 2 or centres.shape[0] < 1:
        raise ValueError("positions and centres must be 2-d with at least one centre")
    if positions.shape[1] != centres.shape[1]:
        raise ValueError(
            f"dimension mismatch: particles are {positions.shape[1]}-d, "
            f"centres are {centres.shape[1]}-d"
        )
    _require_finite("positions and centres", positions, centres)
    return positions, centres


def _require_box(lo, hi) -> tuple[float, float]:
    """The initialization box as floats; ValueError unless ``lo < hi``, both finite."""
    lo, hi = _number("init_lo", lo), _number("init_hi", hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid initialization box [{lo}, {hi}]")
    return lo, hi


def _require_run_limits(cfg) -> None:
    """Check what both solver configs share: alpha, the stall rule, budget, seed and box."""
    _require_positive(alpha=cfg.alpha)
    _require_non_negative(delta_stall=cfg.delta_stall)
    _integer("n_steps", cfg.n_steps, 0)
    _integer("j_stall", cfg.j_stall, 1)
    _integer("seed", cfg.seed, 0)
    _require_box(cfg.init_lo, cfg.init_hi)


def _energies_of(positions: np.ndarray, spec, energies, phase: str) -> np.ndarray:
    """The finite objective values of ``positions``: ``energies`` when given, else ``spec``'s.

    The argument check of every public phase function that takes optional
    precomputed values; ``phase`` names the function in the NumericError.
    """
    if energies is None:
        if spec is None:
            raise ValueError("either an objective or precomputed energies is required")
        energies = spec.evaluate_batch(positions)
    else:
        energies = np.asarray(energies, dtype=np.float64)
        if energies.shape != (positions.shape[0],):
            raise ValueError(
                f"energies must have shape ({positions.shape[0]},), got {energies.shape}"
            )
    _check_energies(energies, phase)
    return energies


def _omega_of(omega, n_agents: int, omega_bar, phase: str) -> np.ndarray:
    """The finite rank weights of a transition round as float64, checked with their threshold."""
    _require_unit(omega_bar=omega_bar)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (n_agents,):
        raise ValueError(f"{phase}: omega must have shape ({n_agents},), got {omega.shape}")
    if not np.isfinite(omega).all():
        raise ValueError(f"{phase}: omega must have finite weights")
    return omega


def _indices(value, name: str, n: int, bound: int, phase: str) -> np.ndarray:
    """``value`` as an array; ValueError naming ``phase`` unless it holds n integers in [0, bound)."""
    value = np.asarray(value)
    fits = value.shape == (n,) and value.dtype.kind in "iu"
    if not (fits and (n == 0 or (value.min() >= 0 and value.max() < bound))):
        raise ValueError(f"{phase}: {name} must hold {n} integers in [0, {bound})")
    return value


def _check_clusters(clusters, phase: str, shape: tuple, estimates: bool = False) -> None:
    """Raise ValueError naming ``phase`` unless the cluster state fits a population of ``shape``.

    ``shape`` is the population's ``(n, d)``: ``cluster_of`` must hold n
    slots in ``[0, n_clusters)``, ``leader_of`` n agent indices and
    ``agent_estimate``, required when ``estimates`` is set, n points.
    """
    n_agents = shape[0]
    for field, bound in (("cluster_of", clusters.n_clusters), ("leader_of", n_agents)):
        _indices(getattr(clusters, field), field, n_agents, bound, phase)
    estimate = clusters.agent_estimate
    if estimate is None and estimates:
        raise ValueError(f"{phase}: no consensus estimates; run cluster_consensus first")
    if estimate is not None and np.shape(estimate) != shape:
        raise ValueError(f"{phase}: agent_estimate must have shape {shape}")


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
