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


def _axis_mean(terms: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of a ``(d, ...)`` array, its rows added left to right.

    The fold is one explicit addition per row, never a reduction over axis
    0: numpy adds a ``(d, m > 1)`` array in axis order but a ``(d, 1)``
    array pairwise, so a reduction would make a point's value depend on how
    many others share its call.
    """
    dim = terms.shape[0]
    total = terms[0].copy() if dim == 1 else terms[0] + terms[1]
    for j in range(2, dim):
        total += terms[j]
    total /= dim
    return total


def _ackley_head(mean_sq: np.ndarray) -> np.ndarray:
    """The root-mean-square term of Ackley, -20 exp(-0.2 sqrt(mean_sq)), computed in ``mean_sq``."""
    np.sqrt(mean_sq, out=mean_sq)
    mean_sq *= -0.2
    np.exp(mean_sq, out=mean_sq)
    mean_sq *= -20.0
    return mean_sq


def _min_base(kind: Kind, points: np.ndarray, groups: tuple, work: _Workspace) -> np.ndarray:
    """``min_k base(x - m_k)`` for every row x of ``(n, d)`` points, as a new ``(n,)`` array.

    With offsets ``y = x - m`` the bases are, coordinate means taken left
    to right by :func:`_axis_mean`:

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
    the calls below 6-30% faster: past 2**52 every coordinate is a whole
    number, so reduced cosines make every far Ackley value exactly 20.0,
    and a diverging run's far agents tie and stall instead of failing. The
    unreduced ``2 pi x`` keeps far values apart and overflows near 1e308,
    giving the NaN that the solvers report as NumericError.

    Each shift's q is folded coordinate by coordinate, a subtract, a square
    and an addition over one ``(shifts, n)`` row of the workspace, so no
    ``(d, shifts, n)`` array is formed. Both values are monotone in q at a
    fixed C, and so is the division by d, so each group takes the least
    coordinate sum over its shifts first and finishes one ``(n,)`` row: the
    same bits as finishing every shift and taking the least value. The
    groups' values then meet in one minimum.

    Median microseconds per call, the previous kernel (one cosine per
    shift, point and coordinate, with a bracket screen of the shifts from
    d = 4) > this kernel, on inputs recorded from 300-step, 600-agent
    ``run_gkbo`` runs with shifts from (-3, 3, -7, 7), one replica each,
    both alternated in one workspace, medians of three processes (numpy
    2.4, 2 vCPUs):

    =========  ======  ========  =========  =========  =========  =========
    kind       shifts  d = 3     d = 4      d = 5      d = 6      d = 10
    =========  ======  ========  =========  =========  =========  =========
    Ackley     2       85 > 58   151 > 117  110 > 86   207 > 166  305 > 242
    Ackley     3       171 > 97  108 > 82   135 > 102  148 > 116  260 > 196
    Ackley     4       152 > 71  121 > 85   150 > 105  174 > 125  320 > 209
    Rastrigin  2       75 > 53   102 > 69   121 > 84   143 > 102  233 > 175
    Rastrigin  3       110 > 62  126 > 81   155 > 98   180 > 114  294 > 198
    Rastrigin  4       135 > 65  155 > 84   182 > 100  216 > 122  331 > 205
    =========  ======  ========  =========  =========  =========  =========

    At the batch shapes of the benchmark workloads, recorded the same way
    from stacked replicas: rastrigin2, d = 2, 7200 points, 502 > 251;
    ackley4, d = 10, 3600 points, 1724 > 925; pcbo on ackley2, 2400
    points, 124 > 90, 164 > 104, 217 > 139, 372 > 272 and 448 > 359 at
    d = 1 to 5.

    The result for a row does not depend on the other rows, so a stacked
    batch gives each replica's values bit for bit. Squares that overflow
    give inf, and a non-finite coordinate NaN through its cosine, without a
    numpy warning; the solvers report such a value as NumericError.
    """
    n, dim = points.shape
    most = max(len(shifts) for _, shifts in groups)
    columns, turns, sums, row = work.arrays((dim, n), (dim, n), (most, n), (most, n))
    values = None
    with np.errstate(over="ignore", invalid="ignore"):
        # one contiguous copy of the columns makes every subtract fast
        np.copyto(columns, points.T)
        for offset, shifts in groups:
            total, square = sums[: len(shifts)], row[: len(shifts)]
            np.subtract(columns[0], shifts[:, :1], out=total)
            total *= total
            for j in range(1, dim):
                np.subtract(columns[j], shifts[:, j : j + 1], out=square)
                square *= square
                total += square
            mean_sq = np.minimum.reduce(total, axis=0)
            mean_sq /= dim
            np.subtract(columns, offset[:, np.newaxis], out=turns)
            turns *= _TWO_PI
            cos_mean = _axis_mean(np.cos(turns, out=turns))
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
