import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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


def _rastrigin_rows(points):
    """Oracle: the Rastrigin base value of every row of an ``(n, d)`` array."""
    return _row_mean(points * points - 10.0 * np.cos(_TWO_PI * points))


def _ackley_rows(points):
    """Oracle: the Ackley base value of every row of an ``(n, d)`` array."""
    rms = np.sqrt(_row_mean(points * points))
    cos_mean = _row_mean(np.cos(_TWO_PI * points))
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + math.e


_ROW_ORACLE = {Kind.RASTRIGIN: _rastrigin_rows, Kind.ACKLEY: _ackley_rows}


def value_at(spec, x):
    """The objective value at one point: the row of a one-point batch."""
    return spec.evaluate_batch(np.asarray(x, dtype=np.float64)[np.newaxis])[0]


def base_value(kind, x):
    """The base function of ``kind`` at one point: an objective whose one minimizer is the origin."""
    dim = np.size(x)
    return value_at(ObjectiveSpec(kind, dim, np.zeros((1, dim))), x)


def objective_oracle(spec, points):
    """Row-by-row objective: the base value per shift, min-composed one shift at a time."""
    base = _ROW_ORACLE[spec.kind]
    values = base(points - spec.minimizers[0])
    for shift in spec.minimizers[1:]:
        np.minimum(values, base(points - shift), out=values)
    return values


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
    """The objective equals the smallest shifted base value at every point."""
    spec = preset(name, 2)
    x = np.asarray(point)
    expected = min(base_value(spec.kind, x - m) for m in spec.minimizers)
    assert value_at(spec, x) == expected


@given(
    dim=st.sampled_from([1, 2, 3, 7, 8, 9, 10, 16, 17, 128, 129, 300]),
    kind=st.sampled_from(list(Kind)),
    log_scale=st.floats(-8, 4),
    n_points=st.integers(1, 40),
    n_min=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_values_bit_identical_to_row_oracle(dim, kind, log_scale, n_points, n_min, seed):
    """Every dimension sums its coordinates left to right, bit for bit as the row oracle."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    spec = ObjectiveSpec(kind, dim, rng.normal(size=(n_min, dim)) * scale)
    points = rng.normal(size=(n_points, dim)) * scale
    got = spec.evaluate_batch(points)
    assert np.array_equal(got.view(np.int64), objective_oracle(spec, points).view(np.int64))
    single = base_value(kind, points[0])
    want = _ROW_ORACLE[kind](points[:1])[0]
    assert np.array_equal(np.float64(single).view(np.int64), want.view(np.int64))


def balance_offsets(dim):
    """Offsets of 9 in the first quarter of the coordinates and 0 elsewhere.

    A point at these offsets from one minimizer and at 0.5 in every
    coordinate from another has every cosine round to 1 or -1: the first
    shift's Rastrigin value sits on its lower bound, the second's on its
    upper bound, and the two mean squares are exactly 20 apart.
    """
    return np.where(np.arange(dim) < dim // 4, 9.0, 0.0)


@st.composite
def screened_cases(draw, dims=(3, 4, 5, 6, 8, 10, 12, 16), shifts=(2, 6)):
    """An objective with ``shifts`` (a range) planted minimizers and points around them.

    By default dimensions cover both sides of the screen's rule: at least 2
    shifts are screened from d = 4 on.
    Minimizers are spread at a scale of up to 1e300, so squares overflow at
    the top. Points sit near one minimizer, at the midpoint of two, or, for
    Rastrigin in a dimension divisible by 4, a few ulps from a point where
    one shift's lower bound meets another's upper bound (see
    ``balance_offsets``).
    """
    kind = draw(st.sampled_from(list(Kind)))
    dim = draw(st.sampled_from(dims))
    n_min = draw(st.integers(*shifts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 300))
    minimizers = rng.normal(size=(n_min, dim)) * scale
    balanced = kind is Kind.RASTRIGIN and dim % 4 == 0 and n_min > 1 and draw(st.booleans())
    if balanced:
        minimizers[0] = rng.uniform(-10, 10, dim)
        minimizers[1] = minimizers[0] + balance_offsets(dim) - 0.5
    points = []
    for _ in range(draw(st.integers(1, 12))):
        how = draw(st.sampled_from(["near", "midpoint", "balance"]))
        a, b = rng.choice(n_min, 2, replace=n_min == 1)
        if how == "balance" and balanced:
            point = minimizers[0] + balance_offsets(dim)
            points.append(point + rng.integers(-3, 4, dim) * np.spacing(point))
        elif how == "midpoint":
            points.append((minimizers[a] + minimizers[b]) / 2)
        else:
            spread = scale * 10.0 ** rng.uniform(-12, 0)
            points.append(minimizers[a] + rng.normal(size=dim) * spread)
    return ObjectiveSpec(kind, dim, minimizers), np.array(points)


@given(case=screened_cases())
@settings(max_examples=150, deadline=None)
def test_screened_values_bit_identical_to_row_oracle(case):
    """Discarding shifts by their brackets never changes a value, inf and NaN included."""
    spec, points = case
    got = spec.evaluate_batch(points)
    with np.errstate(over="ignore", invalid="ignore"):
        want = objective_oracle(spec, points)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def shared_workspace():
    """One workspace for every example of a test, as a solver batch keeps one for its run."""
    return _Workspace()


@given(
    case=screened_cases(
        dims=(1, 2, 4, 7, 8, 9, 10, 15, 16, 17, 24, 40, 128, 129, 130), shifts=(1, 4)
    )
)
@settings(max_examples=150, deadline=None)
def test_values_in_a_reused_workspace_bit_identical_to_row_oracle(case, shared_workspace):
    """Values through one workspace reused across shapes, screened or not, inf and NaN included.

    The shapes change from example to example, so the offsets and squares
    land on memory that earlier calls left behind.
    """
    spec, points = case
    got = spec._values(points, shared_workspace)
    with np.errstate(over="ignore", invalid="ignore"):
        want = objective_oracle(spec, points)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_screened_values_in_a_batch_workspace_allocate_less_than_one_offset_array():
    # Converged points of a batch of two 600-agent replicas, as late in a
    # run, at ackley4, d = 10, where an offsets array is 384 KB. What is
    # left are the (shifts, n) brackets, the candidates and the buffers
    # numpy's iterator allocates for strided rows, about 320 KB together;
    # at one replica they reach 160 of 192 KB.
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
    assert peak < spec.minimizers.size * points.shape[0] * 8


def test_screen_keeps_a_shift_that_rounding_puts_outside_its_bracket():
    # a balance point a few ulps off, found by search at d = 32 (none turned
    # up at d = 16 or 24): the two bracketed values differ in the last bit,
    # and a bracket without its rounding margin discards the shift that
    # holds the minimum
    base = np.array([
        2.49123499559129, -2.1685923316962796, 9.105698391464827, 4.931896896395873,
        -4.464707772271583, -1.8790724236707153, 5.645945775452272, -0.7366445943655027,
        8.832375792389776, -4.545352159558533, 1.3872564301214076, -5.958625356012739,
        -2.0655585498039635, 5.547496532166596, 3.204864708072181, -2.824979372807624,
        4.948702839359388, 6.3112371452778895, 9.584757088916888, 1.0855754575357182,
        3.9847972729385965, 5.953477621773839, -1.0419238183345563, -9.887175586039163,
        5.572038808602963, 8.34032907479876, -8.083562524235084, -8.826660214311858,
        8.489622405784406, 9.008981519244323, -3.434127868407084, 2.1471767064305585,
    ])
    ulps = np.array([
        -2, -1, 0, 1, 1, -2, -2, -1, -2, 1, 2, 0, 1, -1, 3, -3,
        0, 1, -1, 2, -3, 2, 0, 3, -1, 1, 2, 2, -3, 0, 2, -2,
    ])
    point = base + balance_offsets(32)
    point += ulps * np.spacing(point)
    far = np.full(32, 100.0)
    spec = ObjectiveSpec(
        Kind.RASTRIGIN, 32, np.array([far, -far, base, base + balance_offsets(32) - 0.5])
    )
    got = spec.evaluate_batch(point[np.newaxis])
    want = objective_oracle(spec, point[np.newaxis])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 3, 10, 130])
def test_evaluate_is_the_batch_row(name, dim):
    spec = preset(name, dim)
    points = np.random.default_rng(dim).uniform(-10, 10, size=(6, dim))
    batch = spec.evaluate_batch(points)
    for point, value in zip(points, batch):
        single = spec.evaluate_batch(point[np.newaxis])[0]
        assert single.view(np.int64) == value.view(np.int64)


def test_far_points_evaluate_without_numpy_warnings():
    # squares beyond about 1.3e154 overflow and arguments near 1e308 give a
    # NaN cosine; the suite turns any RuntimeWarning into an error
    assert preset("rastrigin2", 1).evaluate_batch([[1e200]]).tolist() == [np.inf]
    assert value_at(preset("rastrigin2", 1), [1e200]) == np.inf
    assert base_value("rastrigin", [1e200, 0.0]) == np.inf
    assert math.isnan(base_value("ackley", [1e308]))
    assert math.isnan(value_at(preset("ackley4", 5), np.full(5, 1e308)))


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
