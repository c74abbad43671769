"""Benchmark objectives for multi-modal global minimization.

Two classic non-convex base functions (Rastrigin and Ackley, both with their
global minimum at the origin) are turned into multi-modal landscapes by
min-composition over a set of planted shifts: the objective value at ``x`` is
the smallest base value over all shifted copies, so every planted shift is a
global minimizer with the base minimum value. The cosine term of both bases
has period 1, so shifts with the same fractional part share their cosines:
every preset plants whole-number shifts and takes one cosine per point and
coordinate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import _integer, _require_finite, _require_minimizers

__all__ = [
    "Kind",
    "ObjectiveSpec",
    "BASE_MINIMUM",
    "PRESET_NAMES",
    "preset",
]

_TWO_PI = 2.0 * math.pi


class Kind(enum.Enum):
    """Base function family."""

    RASTRIGIN = "rastrigin"
    ACKLEY = "ackley"


class _Workspace:
    """Scratch memory that the objective and nearest-centre kernels reuse from call to call.

    :meth:`arrays` hands out float64 arrays of the given shapes side by side
    in one flat buffer, which grows geometrically and never shrinks, so a
    solver batch allocates it a handful of times however its shapes move.
    Each call hands out the buffer anew: the arrays of earlier calls may
    share its memory, and their contents are undefined.
    """

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def arrays(self, *shapes: tuple) -> list[np.ndarray]:
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) > self._flat.size:
            self._flat = np.empty(max(sum(sizes), 2 * self._flat.size))
        arrays, start = [], 0
        for shape, size in zip(shapes, sizes):
            arrays.append(self._flat[start : start + size].reshape(shape))
            start += size
        return arrays


def _ackley_head(mean_sq: np.ndarray) -> np.ndarray:
    """The root-mean-square term of Ackley, -20 exp(-0.2 sqrt(mean_sq)), computed in ``mean_sq``."""
    np.sqrt(mean_sq, out=mean_sq)
    mean_sq *= -0.2
    np.exp(mean_sq, out=mean_sq)
    mean_sq *= -20.0
    return mean_sq


def _min_base(kind: Kind, points: np.ndarray, groups: tuple, work: _Workspace) -> np.ndarray:
    """``min_k base(x - m_k)`` for every row x of ``(n, d)`` points, as a new ``(n,)`` array.

    With offsets ``y = x - m`` the bases are:

    - Rastrigin: ``q - 10 C``, minimum -10 at the origin;
    - Ackley: ``-20 exp(-0.2 sqrt(q)) - exp(C) + 20 + e``, minimum 0 at
      the origin. Both means use the dimension-normalized form, so the
      landscape keeps the same scale in every dimension;

    where ``q = mean_i y_i**2`` and ``C = mean_i cos(2 pi y_i)``. A cosine
    has period 1, so C depends on a minimizer only through its fractional
    offset ``f = m - rint(m)``: C is taken as ``mean_i cos(2 pi (x_i -
    f_i))``. ``groups`` holds, per distinct offset row, that row and the
    ``(shifts, d)`` minimizers that share it (``ObjectiveSpec._groups``);
    every preset has one group. A group costs one cosine per point and
    coordinate whatever its size.

    The argument is not reduced by whole turns first, though that made
    calls 6-30% faster (``BENCH_31.json``): past 2**52 every coordinate is
    a whole number, so reduced cosines make every far Ackley value exactly
    20.0, and a diverging run's far agents tie and stall instead of
    failing. The unreduced ``2 pi x`` keeps far values apart and overflows
    near 1e308, giving the NaN that the solvers report as NumericError.

    One fold over the coordinates serves both means. Coordinate j, left
    to right, adds its squared offsets ``(x_j - m_j)**2`` from the group's
    shifts into one ``(shifts, n)`` row of sums, and ``cos(2 pi (x_j -
    f_j))`` into one ``(n,)`` cosine sum; the first coordinate writes both
    sums. No ``(d, shifts, n)`` or ``(d, n)`` array of terms is formed. The
    sums are explicit additions, never a reduction over the coordinate
    axis: numpy adds a ``(d, m > 1)`` array in axis order but a ``(d, 1)``
    array pairwise, so a reduction would make a point's value depend on how
    many others share its call. Both values are monotone in q at a fixed
    C, and so is the division by d, so each group takes the least
    coordinate sum over its shifts first and finishes one ``(n,)`` row: the
    same bits as finishing every shift and taking the least value. The
    groups' values then meet in one minimum.

    The result for a row does not depend on the other rows, so a stacked
    batch gives each replica's values bit for bit. Squares that overflow
    give inf, and a non-finite coordinate NaN through its cosine, without a
    numpy warning; the solvers report such a value as NumericError.
    """
    n, dim = points.shape
    most = max(len(shifts) for _, shifts in groups)
    columns, sums, row, cos_sum, cosine = work.arrays((dim, n), (most, n), (most, n), (n,), (n,))
    values = None
    with np.errstate(over="ignore", invalid="ignore"):
        # one contiguous copy of the columns makes every subtract fast
        np.copyto(columns, points.T)
        for offset, shifts in groups:
            total = sums[: len(shifts)]
            for j in range(dim):
                # the first coordinate writes the sums, each later one adds to them
                square, cos_term = (total, cos_sum) if j == 0 else (row[: len(shifts)], cosine)
                np.subtract(columns[j], shifts[:, j : j + 1], out=square)
                square *= square
                np.subtract(columns[j], offset[j], out=cos_term)
                cos_term *= _TWO_PI
                np.cos(cos_term, out=cos_term)
                if j:
                    total += square
                    cos_sum += cos_term
            mean_sq = np.minimum.reduce(total, axis=0)
            mean_sq /= dim
            cos_mean = np.divide(cos_sum, dim, out=cos_sum)
            if kind is Kind.RASTRIGIN:
                cos_mean *= 10.0
                value = np.subtract(mean_sq, cos_mean, out=mean_sq)
            else:
                value = _ackley_head(mean_sq)
                value -= np.exp(cos_mean, out=cos_mean)
                value += 20.0
                value += math.e
            values = value if values is None else np.minimum(values, value, out=values)
    return values


#: Global minimum value of each base function (attained at the origin).
BASE_MINIMUM = {
    Kind.RASTRIGIN: -10.0,
    Kind.ACKLEY: 0.0,
}

#: Scalar shifts defining the named presets. Each shift c plants a global
#: minimizer at c * (1, ..., 1) in whatever dimension the preset is built for.
_PRESETS: dict[str, tuple[Kind, tuple[float, ...]]] = {
    "rastrigin2": (Kind.RASTRIGIN, (-5.0, 5.0)),
    "rastrigin4": (Kind.RASTRIGIN, (-7.0, -3.0, 3.0, 7.0)),
    "ackley2": (Kind.ACKLEY, (-3.0, 3.0)),
    "ackley4": (Kind.ACKLEY, (-7.0, -3.0, 3.0, 7.0)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


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
        Planted global minimizers, shape ``(n_min, dim)``, finite and pairwise
        distinct; on a 1-d objective a flat list holds one per entry. Stored
        read-only.
    """

    kind: Kind
    dim: int
    minimizers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Kind(self.kind))
        dim = _integer("dim", self.dim, 1)
        object.__setattr__(self, "dim", dim)

        mins = np.asarray(self.minimizers, dtype=np.float64)
        if mins.ndim == 1 and dim == 1:
            mins = mins[:, np.newaxis]
        _require_minimizers(mins, dim)
        if np.unique(mins, axis=0).shape[0] != mins.shape[0]:
            raise ValueError("minimizers must be pairwise distinct")
        mins = mins.copy()
        mins.setflags(write=False)
        object.__setattr__(self, "minimizers", mins)
        # the minimizers grouped by their fractional offset rows; see _min_base
        offsets, group = np.unique(mins - np.rint(mins), axis=0, return_inverse=True)
        group = group.reshape(-1)
        groups = tuple((offset, mins[group == g]) for g, offset in enumerate(offsets))
        object.__setattr__(self, "_groups", groups)

    def evaluate_batch(self, points) -> np.ndarray:
        """Objective values for an ``(n, dim)`` array of points, as ``(n,)``.

        The value at each point is the minimum of the base function over all
        planted shifts: ``min_k base(x - m_k)``. A single point ``x`` of
        shape ``(dim,)`` is the one-row batch: ``evaluate_batch(x[np.newaxis])[0]``.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points must have shape (n, {self.dim}), got {pts.shape}"
            )
        _require_finite("points", pts)
        return self._values(pts, _Workspace())

    def _values(self, pts: np.ndarray, work: _Workspace) -> np.ndarray:
        """:meth:`evaluate_batch` for an ``(n, dim)`` float64 array already known to be finite.

        ``work`` holds the scratch arrays; a solver passes its batch's own.
        """
        return _min_base(self.kind, pts, self._groups, work)


def preset(name: str, dim: int) -> ObjectiveSpec:
    """Build a named objective preset in the given dimension.

    Available names: ``rastrigin2`` (minimizers at -5 and 5), ``rastrigin4``
    (-7, -3, 3, 7), ``ackley2`` (-3, 3) and ``ackley4`` (-7, -3, 3, 7). Each
    scalar shift c becomes the minimizer c * (1, ..., 1).
    """
    try:
        kind, shifts = _PRESETS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(
            f"unknown objective preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    dim = _integer("dim", dim, 1)
    return ObjectiveSpec(kind=kind, dim=dim, minimizers=np.outer(shifts, np.ones(dim)))
