"""Exceptions raised by the solvers, and the finiteness checks that raise them."""

from __future__ import annotations

import numpy as np


class NumericError(RuntimeError):
    """A numeric quantity (objective value or position) became non-finite."""


class EmptyLeaderSetError(RuntimeError):
    """An operation that needs at least one leader was given none."""


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
