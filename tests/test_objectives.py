import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkbo.objectives import (
    BASE_MINIMUM,
    Kind,
    ObjectiveSpec,
    _PRESETS,
    _Workspace,
    preset,
)

PRESETS = sorted(_PRESETS)

_TWO_PI = 2.0 * math.pi


def _row_mean(terms):
    """Mean of every row of an ``(n, d)`` array, its columns added left to right."""
    total = terms[:, 0].copy()
    for column in terms.T[1:]:
        total += column
    return total / terms.shape[1]


def objective_oracle(spec, points):
    """Row-by-row objective: each shift's base value, min-composed one shift at a time.

    A shift m's mean square reads the offsets ``x - m``; its cosine mean
    reads ``x - f`` with the fractional offset ``f = m - rint(m)``.
    """
    values = None
    for shift in spec.minimizers:
        offsets = points - shift
        mean_sq = _row_mean(offsets * offsets)
        cos_mean = _row_mean(np.cos(_TWO_PI * (points - (shift - np.rint(shift)))))
        if spec.kind is Kind.RASTRIGIN:
            value = mean_sq - 10.0 * cos_mean
        else:
            value = -20.0 * np.exp(-0.2 * np.sqrt(mean_sq)) - np.exp(cos_mean) + 20.0 + math.e
        values = value if values is None else np.minimum(values, value)
    return values


def bits(values):
    """The bit patterns of float64 values, every NaN as the one quiet NaN."""
    return np.where(np.isnan(values), np.nan, values).view(np.int64)


def value_at(spec, x):
    """The objective value at one point: the row of a one-point batch."""
    return spec.evaluate_batch(np.asarray(x, dtype=np.float64)[np.newaxis])[0]


def base_value(kind, x):
    """The base function of ``kind`` at one point: an objective whose one minimizer is the origin."""
    dim = np.size(x)
    return value_at(ObjectiveSpec(kind, dim, np.zeros((1, dim))), x)


def test_base_minimum_values():
    assert BASE_MINIMUM[Kind.RASTRIGIN] == -10.0
    assert BASE_MINIMUM[Kind.ACKLEY] == 0.0


def test_base_minimum_attained_at_origin():
    for kind in Kind:
        for dim in (1, 2, 5):
            val = base_value(kind, np.zeros(dim))
            assert abs(val - BASE_MINIMUM[kind]) <= 1e-12


def test_rastrigin_known_point():
    # one full cosine period away from the origin: x^2 - 10 per coordinate
    assert base_value("rastrigin", [1.0, 1.0]) == pytest.approx(-9.0, abs=1e-12)
    assert base_value("rastrigin", [0.5]) == pytest.approx(10.25, abs=1e-12)


def test_ackley_positive_away_from_minimum():
    assert base_value("ackley", [1.0, 1.0]) > 1.0
    assert base_value("ackley", [0.3, -0.4]) > 0.0


def test_base_value_rejects_bad_points():
    with pytest.raises(ValueError):
        base_value("rastrigin", [[0.0, 1.0]])
    with pytest.raises(ValueError):
        base_value("rastrigin", [np.inf])
    with pytest.raises(ValueError):
        base_value("nope", [0.0])


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_preset_shapes(name, dim):
    spec = preset(name, dim)
    kind, shifts = _PRESETS[name]
    assert spec.kind is kind
    assert spec.dim == dim
    assert spec.minimizers.shape == (len(shifts), dim)
    for row, shift in zip(spec.minimizers, shifts):
        assert np.array_equal(row, np.full(dim, shift))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_planted_minimizers_attain_base_minimum(name, dim):
    """Composition with min leaves the planted optima at the base optimum value."""
    spec = preset(name, dim)
    base_min = BASE_MINIMUM[spec.kind]
    for row in spec.minimizers:
        assert abs(value_at(spec, row) - base_min) <= 1e-12


@pytest.mark.parametrize("name", PRESETS)
def test_values_never_below_base_minimum(name):
    spec = preset(name, 3)
    rng = np.random.default_rng(11)
    points = rng.uniform(-10, 10, size=(400, 3))
    values = spec.evaluate_batch(points)
    assert (values >= BASE_MINIMUM[spec.kind] - 1e-12).all()


def test_evaluate_matches_batch():
    spec = preset("rastrigin4", 3)
    rng = np.random.default_rng(5)
    points = rng.uniform(-10, 10, size=(50, 3))
    batch = spec.evaluate_batch(points)
    single = np.array([value_at(spec, p) for p in points])
    assert np.array_equal(batch, single)


@given(
    point=st.lists(st.floats(-12, 12, allow_nan=False), min_size=2, max_size=2),
    name=st.sampled_from(PRESETS),
)
@settings(max_examples=80, deadline=None)
def test_min_composition_property(point, name):
    """The objective equals the least of its one-minimizer objectives at every point."""
    spec = preset(name, 2)
    x = np.asarray(point)
    expected = min(value_at(ObjectiveSpec(spec.kind, 2, m[np.newaxis]), x) for m in spec.minimizers)
    assert value_at(spec, x) == expected


@st.composite
def objective_cases(draw, dims, log_scales, non_finite=False):
    """An objective with 1 to 4 planted minimizers and up to 12 points around them.

    The minimizers are spread at ``10**log_scale``; with a shared offset
    they are whole numbers plus one of at most two fractional rows, so
    several shifts share one cosine group. Points sit near one minimizer
    or at the midpoint of two. With ``non_finite``, some coordinates are
    inf, -inf or NaN.
    """
    kind = draw(st.sampled_from(list(Kind)))
    dim = draw(st.sampled_from(dims))
    n_min = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(*log_scales))
    minimizers = rng.normal(size=(n_min, dim)) * scale
    if draw(st.booleans()):
        offsets = rng.uniform(-0.5, 0.5, (2, dim))
        minimizers = np.rint(minimizers) + offsets[rng.integers(0, 2, n_min)]
    assume(np.unique(minimizers, axis=0).shape[0] == n_min)
    points = []
    for _ in range(draw(st.integers(1, 12))):
        a, b = rng.choice(n_min, 2, replace=n_min == 1)
        if draw(st.booleans()):
            points.append((minimizers[a] + minimizers[b]) / 2)
        else:
            spread = scale * 10.0 ** rng.uniform(-12, 0)
            points.append(minimizers[a] + rng.normal(size=dim) * spread)
    points = np.array(points)
    if non_finite and draw(st.booleans()):
        mask = rng.random(points.shape) < 0.2
        points[mask] = rng.choice([np.inf, -np.inf, np.nan], mask.sum())
    return ObjectiveSpec(kind, dim, minimizers), points


@given(case=objective_cases(dims=(1, 2, 3, 7, 8, 9, 10, 16, 17, 128, 129, 300), log_scales=(-8, 4)))
@settings(max_examples=120, deadline=None)
def test_values_bit_identical_to_row_oracle(case):
    """A batch gives the row oracle's values, and each row alone its own, bit for bit."""
    spec, points = case
    got = spec.evaluate_batch(points)
    assert np.array_equal(bits(got), bits(objective_oracle(spec, points)))
    for point, value in zip(points, got):
        assert bits(spec.evaluate_batch(point[np.newaxis])) == bits(value)


@pytest.fixture(scope="module")
def shared_workspace():
    """One workspace for every example of a test, as a solver batch keeps one for its run."""
    return _Workspace()


@given(
    case=objective_cases(
        dims=(1, 2, 4, 7, 8, 9, 10, 15, 16, 17, 24, 40, 128, 129, 130),
        log_scales=(-3, 300),
        non_finite=True,
    )
)
@settings(max_examples=150, deadline=None)
def test_values_in_a_reused_workspace_bit_identical_to_row_oracle(case, shared_workspace):
    """Values through one workspace reused across shapes, at scales up to 1e300, inf and NaN included.

    The shapes change from example to example, so the columns, arguments
    and sums land on memory that earlier calls left behind.
    """
    spec, points = case
    got = spec._values(points, shared_workspace)
    with np.errstate(over="ignore", invalid="ignore"):
        want = objective_oracle(spec, points)
    assert np.array_equal(bits(got), bits(want))


def test_values_in_a_batch_workspace_allocate_under_a_quarter_of_one_offset_array():
    # Converged points of a batch of two 600-agent replicas, as late in a
    # run, at ackley4, d = 10. In a reused workspace a call allocates its
    # (n,) minimum and the buffers numpy's iterator takes for the broadcast
    # subtracts, under a quarter of the 384 KB (d, shifts, n) offsets array
    # the kernel never forms.
    spec = preset("ackley4", 10)
    rng = np.random.default_rng(3)
    points = spec.minimizers[rng.integers(0, 4, 1200)] + rng.normal(size=(1200, 10)) * 0.3
    work = _Workspace()
    spec._values(points, work)
    tracemalloc.start()
    try:
        values = spec._values(points, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, spec.evaluate_batch(points))
    assert peak < spec.minimizers.size * points.shape[0] * 8 / 4


def test_a_call_leaves_its_workspace_below_one_offset_array():
    # The workspace holds the (d, n) columns, one (shifts, n) row each for
    # the coordinate sums and the squares, and one (n,) row each for the
    # cosine sum and a coordinate's cosines: half of the (d, shifts, n)
    # offsets array the kernel never forms at ackley4, d = 10.
    spec = preset("ackley4", 10)
    points = np.random.default_rng(3).uniform(-10, 10, (600, 10))
    work = _Workspace()
    values = spec._values(points, work)
    assert np.array_equal(values, objective_oracle(spec, points))
    assert work._flat.size == (10 + 2 * 4 + 2) * 600 < spec.minimizers.size * points.shape[0]


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 3, 10, 130])
def test_evaluate_is_the_batch_row(name, dim):
    spec = preset(name, dim)
    points = np.random.default_rng(dim).uniform(-10, 10, size=(6, dim))
    batch = spec.evaluate_batch(points)
    for point, value in zip(points, batch):
        single = spec.evaluate_batch(point[np.newaxis])[0]
        assert single.view(np.int64) == value.view(np.int64)


def long_double_values(spec, points):
    """The objective of a preset in ``np.longdouble``, from its definition.

    Every preset shift is a whole number, so each cosine reads the point
    itself, reduced here by its nearest whole number of turns. ``x - m``,
    that reduction and the squares of points below 1e6 are exact in a
    64-bit significand, so the reference is good to a few units of 1e-19.
    """
    x = points.astype(np.longdouble)
    two_pi = 8 * np.arctan(np.longdouble(1))
    cos_mean = np.cos(two_pi * (x - np.rint(x))).mean(axis=1)
    values = None
    for shift in spec.minimizers.astype(np.longdouble):
        mean_sq = ((x - shift) ** 2).mean(axis=1)
        if spec.kind is Kind.RASTRIGIN:
            value = mean_sq - 10 * cos_mean
        else:
            head = -20 * np.exp(-np.longdouble(0.2) * np.sqrt(mean_sq))
            value = head - np.exp(cos_mean) + 20 + np.exp(np.longdouble(1))
        values = value if values is None else np.minimum(values, value)
    return values


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64 here"
)
@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 2, 3, 10, 30])
def test_values_within_their_rounding_bound_of_a_long_double_reference(name, dim):
    """Every value is within its stated rounding bound, near the box and at |x| up to 1e6.

    With u = eps / 2, a = mean_i |x_i|, and allowing 4 eps for each of
    numpy's cos and exp: a mean square is off by at most (d + 1) u of
    itself; a cosine by 4 pi |x| u from its argument (2 pi and its product
    with x each round) plus 8 u, and their mean by 4 pi a u + (d + 9) u.
    Rastrigin's ``q - 10 C`` then errs by at most (d + 17) u (|f| + 20)
    + 40 pi a u. For Ackley, ``s exp(-s) <= 1/e`` keeps the head's error
    below (3.7 d + 206) u, and exp(C) and the three additions add e (4 pi
    a + d + 17) u + 69 u: together at most (7 d + 340) u + 4 pi e a u. The
    minimum over shifts errs by at most the error of a shift that attains
    it. The argument's error grows with |x|: up to about 1e-9 at |x| = 1e6.
    """
    spec = preset(name, dim)
    rng = np.random.default_rng(dim)
    near = rng.uniform(-10, 10, (500, dim))
    far = rng.uniform(-1, 1, (500, dim)) * 10.0 ** rng.uniform(1, 6, (500, 1))
    points = np.concatenate([near, far])
    want = long_double_values(spec, points)
    error = np.abs(spec.evaluate_batch(points).astype(np.longdouble) - want)
    u = np.finfo(np.float64).eps / 2
    a = np.abs(points).mean(axis=1)
    if spec.kind is Kind.RASTRIGIN:
        bound = (dim + 17) * u * (np.abs(want) + 20) + 40 * np.pi * a * u
    else:
        bound = (7 * dim + 340) * u + 4 * np.pi * np.e * a * u
    assert (error <= bound).all()


def test_far_points_evaluate_without_numpy_warnings():
    # squares beyond about 1.3e154 overflow, without a warning; the suite
    # turns any RuntimeWarning into an error
    assert preset("rastrigin2", 1).evaluate_batch([[1e200]]).tolist() == [np.inf]
    assert value_at(preset("rastrigin2", 1), [1e200]) == np.inf
    assert base_value("rastrigin", [1e200, 0.0]) == np.inf
    # 2 pi x overflows near 1e308 and its cosine is NaN, though the true
    # value there is 20.0 (a whole number of periods). The NaN is kept: a
    # diverging Ackley run fails on it, where exact far values would tie
    # at 20.0 and let the run stall far out
    assert math.isnan(base_value("ackley", [1e308]))
    assert math.isnan(value_at(preset("ackley4", 5), np.full(5, 1e308)))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_a_non_finite_coordinate_gives_nan(name, dim):
    # the cosine of inf or NaN is NaN, so every non-finite coordinate
    # reaches the cosine mean as NaN; the solvers' failure check relies on it
    spec = preset(name, dim)
    points = np.random.default_rng(dim).uniform(-10, 10, (7, dim))
    for row, bad in enumerate([np.inf, -np.inf, np.nan] * 2):
        points[row, row % dim] = bad
    values = spec._values(points, _Workspace())
    assert np.isnan(values[:6]).all()
    assert np.array_equal(values[6:], spec.evaluate_batch(points[6:]))


def test_spec_validation_rejects_mismatched_dim():
    message = r"^minimizers must have shape \(n_min, 3\), got \(2, 2\)$"
    with pytest.raises(ValueError, match=message):
        ObjectiveSpec(Kind.RASTRIGIN, 3, np.zeros((2, 2)))


def test_spec_validation_rejects_duplicates():
    with pytest.raises(ValueError, match="^minimizers must be pairwise distinct$"):
        ObjectiveSpec(Kind.RASTRIGIN, 2, np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_spec_validation_rejects_non_finite():
    with pytest.raises(ValueError, match="^minimizers must have finite coordinates$"):
        ObjectiveSpec(Kind.ACKLEY, 1, np.array([[np.nan]]))


def test_spec_accepts_flat_minimizers_in_one_dim():
    spec = ObjectiveSpec(Kind.RASTRIGIN, 1, np.array([-5.0, 5.0]))
    assert spec.minimizers.shape == (2, 1)


def test_minimizers_are_read_only():
    spec = preset("rastrigin2", 2)
    with pytest.raises(ValueError):
        spec.minimizers[0, 0] = 99.0


def test_unknown_preset_name():
    with pytest.raises(ValueError, match="unknown objective preset"):
        preset("rosenbrock", 2)
    with pytest.raises(ValueError, match=r"unknown objective preset \['ackley2'\]"):
        preset(["ackley2"], 2)


def test_batch_rejects_bad_shapes():
    spec = preset("ackley2", 2)
    with pytest.raises(ValueError):
        spec.evaluate_batch(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        spec.evaluate_batch(np.array([[np.inf, 0.0]]))


def test_ackley_scale_independent_of_dimension():
    # dimension-normalized form: the same offset pattern scores the same
    for d in (1, 3, 7):
        val = base_value("ackley", np.full(d, 0.5))
        assert val == pytest.approx(base_value("ackley", np.array([0.5])), abs=1e-12)


def test_rastrigin_mean_form():
    x = np.array([1.5, -2.5, 0.0])
    expected = np.mean([xi * xi - 10 * math.cos(2 * math.pi * xi) for xi in x])
    assert base_value("rastrigin", x) == pytest.approx(expected, abs=1e-12)
