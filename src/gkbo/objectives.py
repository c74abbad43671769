"""Benchmark objectives for multi-modal global minimization.

Two classic non-convex base functions (Rastrigin and Ackley, both with their
global minimum at the origin) are turned into multi-modal landscapes by
min-composition over a set of planted shifts: the objective value at ``x`` is
the smallest base value over all shifted copies, so every planted shift is a
global minimizer with the base minimum value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kind",
    "ObjectiveSpec",
    "BASE_MINIMUM",
    "PRESET_SHIFTS",
    "evaluate_base",
    "preset",
]

_TWO_PI = 2.0 * math.pi


class Kind(enum.Enum):
    """Base function family."""

    RASTRIGIN = "rastrigin"
    ACKLEY = "ackley"


#: Row length up to which numpy sums a contiguous row with eight interleaved
#: accumulators; longer rows are split in halves first.
_PAIRWISE_BLOCK = 128


def _axis_sum(terms: np.ndarray, lo: int, count: int) -> np.ndarray:
    """Sum of ``terms[:, lo:lo + count]`` over axis 1, in the order numpy sums a row.

    ``terms`` has shape ``(shifts, d, n)``. Every ``(shift, point)`` column gets
    the additions ``np.add.reduce`` applies to a contiguous row: in sequence
    below 8 terms; up to 128 terms, eight stride-8 accumulators combined
    pairwise, then the tail in sequence; beyond that, the two halves split at
    a multiple of 8. The result is bit-identical to the row sums of the
    ``(n, d)`` layout, while each addition runs over all shifts and points.
    """
    if count < 8:
        if count == 1:
            return terms[:, lo].copy()
        total = terms[:, lo] + terms[:, lo + 1]
        for j in range(lo + 2, lo + count):
            total += terms[:, j]
        return total
    if count <= _PAIRWISE_BLOCK:
        end = lo + count - count % 8
        acc = terms[:, lo : lo + 8].copy()
        for start in range(lo + 8, end, 8):
            acc += terms[:, start : start + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        pairs = acc[:, 0::2] + acc[:, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        total = quads[:, 0] + quads[:, 1]
        for j in range(end, lo + count):
            total += terms[:, j]
        return total
    half = count // 2
    half -= half % 8
    return _axis_sum(terms, lo, half) + _axis_sum(terms, lo + half, count - half)


def _axis_mean(terms: np.ndarray) -> np.ndarray:
    """``np.mean`` over axis 1 of a ``(shifts, d, n)`` array, bit for bit as over rows."""
    dim = terms.shape[1]
    return _axis_sum(terms, 0, dim) / dim


def _rastrigin(diff: np.ndarray) -> np.ndarray:
    """mean_i(x_i^2 - 10 cos(2 pi x_i)) over axis 1 of ``(shifts, d, n)`` offsets.

    Minimum -10 at the origin.
    """
    return _axis_mean(diff * diff - 10.0 * np.cos(_TWO_PI * diff))


def _ackley(diff: np.ndarray) -> np.ndarray:
    """-20 exp(-0.2 rms(x)) - exp(mean_i cos(2 pi x_i)) + 20 + e over axis 1.

    ``diff`` holds ``(shifts, d, n)`` offsets. The root-mean-square and the
    cosine average both use the dimension-normalized form, so the landscape
    keeps the same scale in every dimension. Minimum 0 at the origin.
    """
    rms = np.sqrt(_axis_mean(diff * diff))
    cos_mean = _axis_mean(np.cos(_TWO_PI * diff))
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + math.e


_BASE_EVAL = {
    Kind.RASTRIGIN: _rastrigin,
    Kind.ACKLEY: _ackley,
}

#: Global minimum value of each base function (attained at the origin).
BASE_MINIMUM = {
    Kind.RASTRIGIN: -10.0,
    Kind.ACKLEY: 0.0,
}

#: Scalar shifts defining the named presets. Each shift c plants a global
#: minimizer at c * (1, ..., 1) in whatever dimension the preset is built for.
PRESET_SHIFTS: dict[str, tuple[Kind, tuple[float, ...]]] = {
    "rastrigin2": (Kind.RASTRIGIN, (-5.0, 5.0)),
    "rastrigin4": (Kind.RASTRIGIN, (-7.0, -3.0, 3.0, 7.0)),
    "ackley2": (Kind.ACKLEY, (-3.0, 3.0)),
    "ackley4": (Kind.ACKLEY, (-7.0, -3.0, 3.0, 7.0)),
}

PRESET_NAMES = tuple(sorted(PRESET_SHIFTS))


def evaluate_base(kind: Kind | str, x) -> float:
    """Evaluate a uni-modal base function at a single point.

    Parameters
    ----------
    kind : Kind or str
        Base family, ``Kind.RASTRIGIN`` / ``"rastrigin"`` or the Ackley
        equivalents.
    x : array_like
        Point with at least one coordinate.
    """
    point = np.asarray(x, dtype=np.float64)
    if point.ndim != 1 or point.size < 1:
        raise ValueError(
            f"expected a 1-d point with at least one coordinate, got shape {point.shape}"
        )
    if not np.isfinite(point).all():
        raise ValueError("point has non-finite coordinates")
    return float(_BASE_EVAL[Kind(kind)](point[np.newaxis, :, np.newaxis])[0, 0])


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """A multi-modal benchmark objective.

    Attributes
    ----------
    kind : Kind
        Base function family.
    dim : int
        Search-space dimension, at least 1.
    minimizers : numpy.ndarray
        Planted global minimizers, shape ``(n_min, dim)``, pairwise distinct.
        Stored read-only.
    """

    kind: Kind
    dim: int
    minimizers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Kind(self.kind))
        dim = int(self.dim)
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        object.__setattr__(self, "dim", dim)

        mins = np.asarray(self.minimizers, dtype=np.float64)
        if mins.ndim == 1 and dim == 1:
            mins = mins[:, np.newaxis]
        if mins.ndim != 2 or mins.shape[0] < 1 or mins.shape[1] != dim:
            raise ValueError(
                f"minimizers must have shape (n_min, {dim}), got {mins.shape}"
            )
        if not np.isfinite(mins).all():
            raise ValueError("minimizers have non-finite coordinates")
        if np.unique(mins, axis=0).shape[0] != mins.shape[0]:
            raise ValueError("minimizers must be pairwise distinct")
        mins = mins.copy()
        mins.setflags(write=False)
        object.__setattr__(self, "minimizers", mins)

    @property
    def n_min(self) -> int:
        """Number of planted global minimizers."""
        return int(self.minimizers.shape[0])

    def evaluate(self, x) -> float:
        """Objective value at a single point of shape ``(dim,)``."""
        point = np.asarray(x, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValueError(
                f"point has shape {point.shape}, objective dimension is {self.dim}"
            )
        return float(self.evaluate_batch(point[np.newaxis, :])[0])

    def evaluate_batch(self, points) -> np.ndarray:
        """Objective values for an ``(n, dim)`` array of points, as ``(n,)``.

        The value at each point is the minimum of the base function over all
        planted shifts: ``min_k base(x - m_k)``.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points must have shape (n, {self.dim}), got {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise ValueError("points have non-finite coordinates")
        return self._values(pts)

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """:meth:`evaluate_batch` for an ``(n, dim)`` float64 array already known to be finite.

        All shifts go through the base function at once, as one C-ordered
        ``(shifts, dim, n)`` array of offsets whose rows are coordinates.
        """
        diff = np.subtract(pts.T, self.minimizers[:, :, np.newaxis], order="C")
        return np.minimum.reduce(_BASE_EVAL[self.kind](diff), axis=0)


def preset(name: str, dim: int) -> ObjectiveSpec:
    """Build a named objective preset in the given dimension.

    Available names: ``rastrigin2`` (minimizers at -5 and 5), ``rastrigin4``
    (-7, -3, 3, 7), ``ackley2`` (-3, 3) and ``ackley4`` (-7, -3, 3, 7). Each
    scalar shift c becomes the minimizer c * (1, ..., 1).
    """
    try:
        kind, shifts = PRESET_SHIFTS[name]
    except KeyError:
        raise ValueError(
            f"unknown objective preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    if int(dim) < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    minimizers = np.outer(shifts, np.ones(int(dim)))
    return ObjectiveSpec(kind=kind, dim=int(dim), minimizers=minimizers)
