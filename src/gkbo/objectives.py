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


def _cos_mean(diff: np.ndarray) -> np.ndarray:
    """mean_i cos(2 pi x_i) over axis 0 of ``(d, ...)`` offsets, computed in ``diff``."""
    np.multiply(diff, _TWO_PI, out=diff)
    np.cos(diff, out=diff)
    return _axis_mean(diff)


def _ackley_head(mean_sq: np.ndarray) -> np.ndarray:
    """The root-mean-square term of Ackley, -20 exp(-0.2 sqrt(mean_sq)), computed in ``mean_sq``."""
    np.sqrt(mean_sq, out=mean_sq)
    mean_sq *= -0.2
    np.exp(mean_sq, out=mean_sq)
    mean_sq *= -20.0
    return mean_sq


def _ackley_value(head: np.ndarray, cos_mean: np.ndarray) -> np.ndarray:
    """The Ackley value from its head term and cosine mean, in the full formula's order."""
    return head - np.exp(cos_mean) + 20.0 + math.e


def _rastrigin(diff: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """mean_i(x_i^2 - 10 cos(2 pi x_i)) over axis 0 of ``(d, ...)`` offsets.

    Minimum -10 at the origin. ``diff`` is overwritten; ``squares``, of its
    shape, is scratch.
    """
    np.multiply(diff, diff, out=squares)
    np.multiply(diff, _TWO_PI, out=diff)
    np.cos(diff, out=diff)
    diff *= 10.0
    return _axis_mean(np.subtract(squares, diff, out=squares))


def _ackley(diff: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """-20 exp(-0.2 rms(x)) - exp(mean_i cos(2 pi x_i)) + 20 + e over axis 0.

    ``diff`` holds ``(d, ...)`` offsets and is overwritten, as for
    :func:`_rastrigin`. The root-mean-square and the cosine average both use
    the dimension-normalized form, so the landscape keeps the same scale in
    every dimension. Minimum 0 at the origin.
    """
    head = _ackley_head(_axis_mean(np.multiply(diff, diff, out=squares)))
    return _ackley_value(head, _cos_mean(diff))


_BASE_EVAL = {
    Kind.RASTRIGIN: _rastrigin,
    Kind.ACKLEY: _ackley,
}

#: Dimension from which :func:`_min_base` screens the shifts of an objective
#: with at least two planted minimizers.
_SCREEN_MIN_DIM = 4

#: Rounding allowance of the Ackley bracket; see :func:`_screened_min_base`.
_ACKLEY_MARGIN = 1e-12

_EPS = float(np.finfo(np.float64).eps)


def _screened_min_base(
    kind: Kind, diff: np.ndarray, row: np.ndarray, work: _Workspace
) -> np.ndarray | None:
    """:func:`_min_base` computing the base only where it can be the minimum.

    Each ``(shift, point)`` value is first bracketed from its mean square
    ``q = mean(diff**2)``: a Rastrigin value lies in ``[q - 10, q + 10]``,
    since each cosine lies in [-1, 1]; an Ackley value lies in
    ``[h + 20, h + 20 + e - 1/e]`` with ``h = -20 exp(-0.2 sqrt(q))``,
    since ``exp`` of a cosine mean lies in ``[1/e, e]``. The base function
    then runs, column by column in the order it always uses, only on the
    pairs whose lower bound reaches the point's smallest upper bound; the
    other pairs lie above a computed value and cannot be the minimum, so the
    result is bit-identical to the full evaluation. An Ackley candidate
    takes its ``h`` from the bracket's array, the value the full evaluation
    computes, and evaluates only its cosines.

    The margins widen each bracket by more than the rounding of both the
    bound and the value. Rastrigin, per pair with ``u = eps / 2``: the
    computed value is within ``(d + 67) u (q + 10)`` of the exact value of
    the computed offsets (squares, cosines whose argument carries a relative
    error of ``2u``, any summation order, the division by d), and each bound
    within ``(d + 2) u (q + 10)``; the margin ``(2d + 70) eps (q + 10)`` is
    twice their sum. Ackley: ``h`` is the same computed array in bound and
    value, every later intermediate is below 46 in magnitude, and the
    roundings of both sides together, one ulp of ``exp`` included, stay
    under 1e-13; the margin is 1e-12.

    The mean squares are folded row by row: ``diff[0]**2``, then each
    further coordinate's squares, formed in the ``(shifts, n)`` scratch
    ``row``, added in place. These are the products and the left-to-right
    additions of :func:`_axis_mean` over a ``(d, shifts, n)`` squares array,
    so the values are the same bit for bit, and no such array is needed.

    Returns None, with ``diff`` intact, when a mean square is not finite, so
    that the caller's full evaluation keeps its inf and NaN values.
    Otherwise ``diff`` and ``row`` are scratch, and the candidates' squares
    come from ``work``.
    """
    mean_sq = np.multiply(diff[0], diff[0])
    for coordinate in diff[1:]:
        mean_sq += np.multiply(coordinate, coordinate, out=row)
    mean_sq /= len(diff)
    if not np.isfinite(mean_sq).all():
        return None
    if kind is Kind.ACKLEY:
        head = _ackley_head(mean_sq)
        lower = head + (20.0 - _ACKLEY_MARGIN)
        upper = head + (20.0 + math.e - math.exp(-1.0) + _ACKLEY_MARGIN)
    else:
        margin = (2 * len(diff) + 70) * _EPS * (mean_sq + 10.0)
        lower = mean_sq - 10.0 - margin
        upper = mean_sq + 10.0 + margin
    kept = np.flatnonzero(lower <= upper.min(axis=0))  # flat (shift, point) indices
    # The candidate columns as one new (d, kept) array; diff is free after
    # it. nonzero, the gather, the scatter and the head lookup by (shift,
    # point) index pairs took 71 against 32 us with flat indices and take,
    # at 4 shifts of 1200 points (numpy 2.4).
    candidates = diff.reshape(len(diff), -1).take(kept, axis=1)
    values = upper  # the bounds are spent
    values.fill(np.inf)
    if kind is Kind.ACKLEY:
        found = _ackley_value(head.take(kept), _cos_mean(candidates))
    else:
        (squares,) = work.arrays(candidates.shape)
        found = _rastrigin(candidates, squares)
    values.ravel()[kept] = found  # a view: values is contiguous
    return np.minimum.reduce(values, axis=0)


def _min_base(kind: Kind, points: np.ndarray, shifts: np.ndarray, work: _Workspace) -> np.ndarray:
    """``min_k base(x - shifts[k])`` for every row x of ``(n, d)`` points, as ``(n,)``.

    All shifts go through the base function at once, as one C-ordered
    ``(d, shifts, n)`` array of offsets: coordinate j of every (shift,
    point) pair is one contiguous block, so each addition of the coordinate
    sums runs over one block. numpy 2.4 buffers the strided rows of a
    ``(shifts, d, n)`` layout instead: the screen's mean square took 81
    against 50 us at ackley4, d = 10, 1200 points. The arrays of that size
    live in ``work``, so a solver that passes the same workspace every step
    maps no new memory for them: the offsets, and on the full evaluation
    their squares. The screen folds its mean squares through one
    ``(shifts, n)`` row instead, so a screened objective's workspace holds
    one ``(d, shifts, n)`` array, not two; the rare fallback to the full
    evaluation after a non-finite mean square allocates its own squares.

    With at least 2 shifts, from d = 4 on, :func:`_screened_min_base`
    evaluates the base only where it can be the minimum, with the same
    result; otherwise, or when a mean square is not finite, every shift is
    evaluated. The screen costs a pass over the squares, a gather and a
    scatter, and saves the cosines of the pairs it discards (about 70% from
    3 shifts on). Median microseconds per call, full > screened, on inputs
    recorded from 300-step, 600-agent ``run_gkbo`` runs with shifts from
    (-3, 3, -7, 7), both alternated in one workspace, medians of three
    processes (numpy 2.4, 2 vCPUs):

    =========  ======  =========  =========  =========  =========  =========
    kind       shifts  d = 3      d = 4      d = 5      d = 6      d = 10
    =========  ======  =========  =========  =========  =========  =========
    Ackley     2       121 > 106  160 > 146  166 > 148  198 > 159  362 > 272
    Ackley     3       144 > 114  199 > 139  231 > 164  277 > 180  606 > 397
    Ackley     4       211 > 141  250 > 148  361 > 186  426 > 204  797 > 448
    Rastrigin  2       99 > 110   153 > 144  192 > 170  194 > 171  375 > 315
    Rastrigin  3       150 > 148  204 > 184  259 > 223  295 > 251  517 > 406
    Rastrigin  4       182 > 186  238 > 214  307 > 252  354 > 300  663 > 471
    =========  ======  =========  =========  =========  =========  =========

    The Rastrigin bracket is 20 wide, against 2.35 for Ackley, so it keeps
    more pairs; at one shift a screen discards nothing. The screen pays in
    every row from d = 4. At d = 3 Rastrigin with 2 or 4 shifts is faster
    in full, so d = 3 keeps the full evaluation for every kind.

    Offsets and squares that overflow give inf, and a cosine of an infinite
    argument NaN, without a numpy warning; the solvers report such a value as
    NumericError.
    """
    n_shifts, dim = shifts.shape
    n = points.shape[0]
    screened = n_shifts > 1 and dim >= _SCREEN_MIN_DIM
    squares_shape = (n_shifts, n) if screened else (dim, n_shifts, n)
    columns, diff, squares = work.arrays((dim, n), (dim, n_shifts, n), squares_shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # one contiguous copy of the columns makes the broadcast subtract fast
        np.copyto(columns, points.T)
        np.subtract(columns[:, np.newaxis], shifts.T[:, :, np.newaxis], out=diff)
        if screened:
            values = _screened_min_base(kind, diff, squares, work)
            if values is not None:
                return values
            squares = np.empty_like(diff)
        return np.minimum.reduce(_BASE_EVAL[kind](diff, squares), axis=0)


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
        return _min_base(self.kind, pts, self.minimizers, work)


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
