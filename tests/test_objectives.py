import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkbo.objectives import (
    BASE_MINIMUM,
    Kind,
    ObjectiveSpec,
    PRESET_SHIFTS,
    evaluate_base,
    preset,
)

PRESETS = sorted(PRESET_SHIFTS)

_TWO_PI = 2.0 * math.pi


def _rastrigin_rows(points):
    """Oracle: the Rastrigin base value of every row of an ``(n, d)`` array."""
    return np.mean(points * points - 10.0 * np.cos(_TWO_PI * points), axis=1)


def _ackley_rows(points):
    """Oracle: the Ackley base value of every row of an ``(n, d)`` array."""
    rms = np.sqrt(np.mean(points * points, axis=1))
    cos_mean = np.mean(np.cos(_TWO_PI * points), axis=1)
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + math.e


_ROW_ORACLE = {Kind.RASTRIGIN: _rastrigin_rows, Kind.ACKLEY: _ackley_rows}


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
            val = evaluate_base(kind, np.zeros(dim))
            assert abs(val - BASE_MINIMUM[kind]) <= 1e-12


def test_rastrigin_known_point():
    # one full cosine period away from the origin: x^2 - 10 per coordinate
    assert evaluate_base("rastrigin", [1.0, 1.0]) == pytest.approx(-9.0, abs=1e-12)
    assert evaluate_base("rastrigin", [0.5]) == pytest.approx(10.25, abs=1e-12)


def test_ackley_positive_away_from_minimum():
    assert evaluate_base("ackley", [1.0, 1.0]) > 1.0
    assert evaluate_base("ackley", [0.3, -0.4]) > 0.0


def test_evaluate_base_rejects_bad_points():
    with pytest.raises(ValueError):
        evaluate_base("rastrigin", [[0.0, 1.0]])
    with pytest.raises(ValueError):
        evaluate_base("rastrigin", [np.inf])
    with pytest.raises(ValueError):
        evaluate_base("nope", [0.0])


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_preset_shapes(name, dim):
    spec = preset(name, dim)
    kind, shifts = PRESET_SHIFTS[name]
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
        assert abs(spec.evaluate(row) - base_min) <= 1e-12


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
    single = np.array([spec.evaluate(p) for p in points])
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
    expected = min(evaluate_base(spec.kind, x - m) for m in spec.minimizers)
    assert spec.evaluate(x) == expected


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
    """The column-order sums reproduce numpy's row sums bit for bit, pairwise blocks included."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    spec = ObjectiveSpec(kind, dim, rng.normal(size=(n_min, dim)) * scale)
    points = rng.normal(size=(n_points, dim)) * scale
    got = spec.evaluate_batch(points)
    assert np.array_equal(got.view(np.int64), objective_oracle(spec, points).view(np.int64))
    single = evaluate_base(kind, points[0])
    want = _ROW_ORACLE[kind](points[:1])[0]
    assert np.array_equal(np.float64(single).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("dim", [1, 3, 10, 130])
def test_evaluate_is_the_batch_row(name, dim):
    spec = preset(name, dim)
    points = np.random.default_rng(dim).uniform(-10, 10, size=(6, dim))
    batch = spec.evaluate_batch(points)
    for point, value in zip(points, batch):
        single = spec.evaluate_batch(point[np.newaxis])[0]
        assert np.float64(spec.evaluate(point)).view(np.int64) == single.view(np.int64)
        assert single.view(np.int64) == value.view(np.int64)


def test_spec_validation_rejects_mismatched_dim():
    with pytest.raises(ValueError):
        ObjectiveSpec(Kind.RASTRIGIN, 3, np.zeros((2, 2)))


def test_spec_validation_rejects_duplicates():
    with pytest.raises(ValueError):
        ObjectiveSpec(Kind.RASTRIGIN, 2, np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_spec_validation_rejects_non_finite():
    with pytest.raises(ValueError):
        ObjectiveSpec(Kind.ACKLEY, 1, np.array([[np.nan]]))


def test_spec_accepts_flat_minimizers_in_one_dim():
    spec = ObjectiveSpec(Kind.RASTRIGIN, 1, np.array([-5.0, 5.0]))
    assert spec.minimizers.shape == (2, 1)
    assert spec.n_min == 2


def test_minimizers_are_read_only():
    spec = preset("rastrigin2", 2)
    with pytest.raises(ValueError):
        spec.minimizers[0, 0] = 99.0


def test_unknown_preset_name():
    with pytest.raises(ValueError, match="unknown objective preset"):
        preset("rosenbrock", 2)


def test_batch_rejects_bad_shapes():
    spec = preset("ackley2", 2)
    with pytest.raises(ValueError):
        spec.evaluate_batch(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        spec.evaluate(np.zeros(3))
    with pytest.raises(ValueError):
        spec.evaluate_batch(np.array([[np.inf, 0.0]]))


def test_ackley_scale_independent_of_dimension():
    # dimension-normalized form: the same offset pattern scores the same
    for d in (1, 3, 7):
        val = evaluate_base("ackley", np.full(d, 0.5))
        assert val == pytest.approx(evaluate_base("ackley", np.array([0.5])), abs=1e-12)


def test_rastrigin_mean_form():
    x = np.array([1.5, -2.5, 0.0])
    expected = np.mean([xi * xi - 10 * math.cos(2 * math.pi * xi) for xi in x])
    assert evaluate_base("rastrigin", x) == pytest.approx(expected, abs=1e-12)
