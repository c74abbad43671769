import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkbo.ensemble import (
    Ensemble,
    apply_label_transitions,
    compute_weights,
    deterministic_label_pass,
    init_uniform,
)
from gkbo.errors import NumericError
from gkbo.objectives import preset
from gkbo.solver import ClusterState, assign_clusters, cluster_weights


def make_ensemble(positions, labels=None):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if labels is None:
        labels = np.zeros(positions.shape[0], dtype=np.int64)
    return Ensemble(positions=positions, labels=np.asarray(labels, dtype=np.int64))


def brute_force_weights(energies):
    energies = np.asarray(energies, dtype=float)
    best = int(np.argmin(energies))
    n = energies.size
    omega = np.empty(n)
    for i in range(n):
        gap_i = abs(energies[best] - energies[i])
        omega[i] = sum(abs(energies[best] - e) < gap_i for e in energies) / n
    return omega, best


def sorted_gap_weights(energies):
    """Oracle: count the strictly smaller gaps by binary search in the sorted gaps."""
    best = int(np.argmin(energies))
    with np.errstate(over="ignore"):
        gaps = np.abs(energies - energies[best])
    return np.searchsorted(np.sort(gaps), gaps, side="left") / energies.size


#: Energies with exact ties, signed zeros, subnormals and gaps that overflow.
EXTREME_ENERGIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# ---------------------------------------------------------------- population


def test_init_uniform_bounds_and_labels():
    rng = np.random.default_rng(0)
    ens = init_uniform(600, 2, -10.0, 10.0, rng)
    assert ens.positions.shape == (600, 2)
    assert ens.positions.min() >= -10.0
    assert ens.positions.max() <= 10.0
    assert not ens.labels.any()
    assert ens.leader_count == 0


def test_init_uniform_single_follower():
    ens = init_uniform(1, 1, -1.0, 1.0, np.random.default_rng(1))
    assert ens.n_agents == 1
    assert ens.positions.shape == (1, 1)
    assert ens.labels[0] == 0


def test_init_uniform_deterministic():
    a = init_uniform(40, 3, -2.0, 2.0, np.random.default_rng(123))
    b = init_uniform(40, 3, -2.0, 2.0, np.random.default_rng(123))
    assert np.array_equal(a.positions, b.positions)


def test_init_uniform_rejects_bad_box():
    with pytest.raises(ValueError):
        init_uniform(5, 2, 1.0, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_uniform(0, 2, 0.0, 1.0, np.random.default_rng(0))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(positions=np.zeros((2, 2)), labels=np.array([0, 2]))
    with pytest.raises(ValueError):
        Ensemble(positions=np.array([[np.inf, 0.0]]), labels=np.array([0]))
    with pytest.raises(ValueError):
        Ensemble(positions=np.zeros((3, 1)), labels=np.zeros(2, dtype=int))
    message = r"^positions must have shape \(n, d\) with n >= 1, got \(3,\)$"
    with pytest.raises(ValueError, match=message):
        Ensemble(positions=np.zeros(3), labels=np.zeros(3, dtype=int))


@pytest.mark.parametrize("labels", [[0, 1], [[0], [1], [0]], 0])
def test_labels_of_another_shape_are_rejected(labels):
    with pytest.raises(ValueError) as error:
        Ensemble(positions=np.zeros((3, 1)), labels=labels)
    assert str(error.value) == f"labels must have shape (3,), got {np.shape(labels)}"


@pytest.mark.parametrize("labels", [[0.7, 1.2, 0], [0, 1, 0.5], [0, 1, np.nan]])
def test_fractional_labels_are_rejected_not_truncated(labels):
    with pytest.raises(ValueError, match="labels must be 0"):
        Ensemble(positions=np.zeros((3, 1)), labels=labels)


def test_float_and_bool_labels_of_zero_and_one_become_int64():
    for labels in ([1.0, 0.0, 1.0], [True, False, True]):
        ens = Ensemble(positions=np.zeros((3, 1)), labels=labels)
        assert ens.labels.dtype == np.int64 and ens.labels.tolist() == [1, 0, 1]


def test_leader_indices_ascending():
    ens = make_ensemble(np.zeros((5, 1)), labels=[1, 0, 1, 0, 1])
    assert ens.leader_indices().tolist() == [0, 2, 4]
    assert ens.leader_count == 3


# ------------------------------------------------------------------- weights


def test_weights_frozen_example():
    ens = make_ensemble(np.zeros((3, 1)))
    w = compute_weights(ens, energies=np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(w, np.array([2 / 3, 0.0, 1 / 3]))


def test_weights_all_equal_energies():
    ens = make_ensemble(np.zeros((4, 1)))
    w = compute_weights(ens, energies=np.full(4, 7.5))
    assert np.array_equal(w, np.zeros(4))


def test_weights_tied_best_agents_share_weight_zero():
    ens = make_ensemble(np.zeros((3, 1)))
    w = compute_weights(ens, energies=np.array([2.0, 1.0, 1.0]))
    assert np.array_equal(w, np.array([2 / 3, 0.0, 0.0]))


def test_weights_from_objective():
    spec = preset("rastrigin2", 2)
    rng = np.random.default_rng(3)
    ens = init_uniform(30, 2, -10, 10, rng)
    w = compute_weights(ens, spec)
    expected, best = brute_force_weights(spec.evaluate_batch(ens.positions))
    assert np.array_equal(w, expected)


def test_weights_require_spec_or_energies():
    ens = make_ensemble(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        compute_weights(ens)


def test_weights_reject_energies_of_another_length():
    ens = make_ensemble(np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"^energies must have shape \(3,\), got \(2,\)$"):
        compute_weights(ens, energies=np.array([0.0, 1.0]))


def test_weights_non_finite_energy_names_agent():
    ens = make_ensemble(np.zeros((3, 1)))
    with pytest.raises(
        NumericError, match="^compute_weights: agent 2 has a non-finite objective value$"
    ):
        compute_weights(ens, energies=np.array([0.0, 1.0, np.nan]))


@given(
    energies=st.lists(
        st.floats(-100, 100, allow_nan=False).map(lambda v: round(v, 1)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=150, deadline=None)
def test_weights_match_brute_force(energies):
    """Rank counting agrees with the quadratic-time definition, ties included."""
    energies = np.asarray(energies)
    ens = make_ensemble(np.zeros((energies.size, 1)))
    w = compute_weights(ens, energies=energies)
    expected, best = brute_force_weights(energies)
    assert np.array_equal(w, expected)
    assert w[best] == 0.0
    # every weight is m/n for an integer m < n
    scaled = w * energies.size
    assert np.array_equal(scaled, np.round(scaled))
    assert (w < 1.0).all()


@given(energies=st.lists(EXTREME_ENERGIES, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_weights_match_sorted_gap_counts(energies):
    energies = np.asarray(energies)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = compute_weights(make_ensemble(np.zeros((energies.size, 1))), energies=energies)
    assert np.array_equal(w, sorted_gap_weights(energies))


def test_weights_of_an_overflowing_gap_without_warnings():
    # the gap 1e308 - (-1e308) overflows to inf and ranks last
    energies = np.array([1e308, -1e308, 0.0])
    ens = make_ensemble(np.zeros((3, 1)))
    one_cluster = ClusterState(
        leaders=np.array([1]),
        leader_of=np.ones(3, dtype=np.int64),
        cluster_of=np.zeros(3, dtype=np.int64),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        population = compute_weights(ens, energies=energies)
        clustered = cluster_weights(ens, one_cluster, energies=energies)
    assert population.tolist() == [2 / 3, 0.0, 1 / 3]
    assert clustered.tolist() == [2 / 3, 0.0, 1 / 3]


@given(
    energies=st.lists(
        st.floats(-50, 50, allow_nan=False).map(lambda v: round(v, 1)),
        min_size=2,
        max_size=15,
    ),
    scale=st.floats(0.25, 8),
    offset=st.floats(-100, 100),
)
@settings(max_examples=100, deadline=None)
def test_weights_invariant_under_increasing_transform(energies, scale, offset):
    # coarse value grid: the ranking is a real-arithmetic invariant, so keep
    # gaps far enough apart that the transform cannot reorder them by rounding
    energies = np.asarray(energies)
    ens = make_ensemble(np.zeros((energies.size, 1)))
    w_raw = compute_weights(ens, energies=energies)
    w_affine = compute_weights(ens, energies=energies * scale + offset)
    assert np.array_equal(w_raw, w_affine)


# --------------------------------------------------------------- transitions


def test_transition_promotes_eligible_follower_with_certainty():
    ens = make_ensemble(np.zeros((2, 1)), labels=[0, 0])
    w = np.array([0.0, 0.5])
    out = apply_label_transitions(ens, w, omega_bar=0.25, eps=1.0, rng=np.random.default_rng(0))
    assert out.labels.tolist() == [1, 0]


def test_transition_demotes_eligible_leader_with_certainty():
    ens = make_ensemble(np.zeros((2, 1)), labels=[1, 1])
    w = np.array([0.5, 0.0])
    out = apply_label_transitions(ens, w, omega_bar=0.25, eps=1.0, rng=np.random.default_rng(0))
    assert out.labels.tolist() == [0, 1]


def test_transition_boundary_weight_keeps_label():
    # equality with the threshold is a no-op in both directions
    ens = make_ensemble(np.zeros((2, 1)), labels=[0, 1])
    w = np.array([0.25, 0.25])
    out = apply_label_transitions(ens, w, omega_bar=0.25, eps=1.0, rng=np.random.default_rng(0))
    assert out.labels.tolist() == [0, 1]


def test_transition_leaves_positions_untouched():
    rng = np.random.default_rng(8)
    positions = rng.normal(size=(6, 2))
    ens = make_ensemble(positions, labels=[0, 1, 0, 1, 0, 1])
    w = np.linspace(0, 0.8, 6)
    out = apply_label_transitions(ens, w, omega_bar=0.3, eps=1.0, rng=rng)
    assert np.array_equal(out.positions, positions)
    assert out.n_agents == 6


def test_transition_empirical_rate():
    """A flip-eligible agent flips at the configured probability."""
    rng = np.random.default_rng(42)
    ens = make_ensemble(np.zeros((1, 1)), labels=[0])
    w = np.array([0.0])
    flips = 0
    trials = 10**5
    for _ in range(trials):
        out = apply_label_transitions(ens, w, omega_bar=0.5, eps=0.1, rng=rng)
        flips += int(out.labels[0] == 1)
    assert abs(flips / trials - 0.1) <= 0.01


def test_transition_synchronous_pre_step_labels():
    # a promotion and a demotion in one round never chain through each other
    ens = make_ensemble(np.zeros((2, 1)), labels=[1, 0])
    w = np.array([0.9, 0.0])
    out = apply_label_transitions(ens, w, omega_bar=0.5, eps=1.0, rng=np.random.default_rng(0))
    assert out.labels.tolist() == [0, 1]


def test_transition_eps_one_selects_best_ranked_set():
    """From an all-follower start, certainty transitions promote exactly the
    agents ranked under the threshold."""
    rng = np.random.default_rng(9)
    energies = rng.permutation(20).astype(float)  # distinct
    ens = make_ensemble(np.zeros((20, 1)))
    w = compute_weights(ens, energies=energies)
    omega_bar = 6 / 20
    out = apply_label_transitions(ens, w, omega_bar, eps=1.0, rng=rng)
    expected = np.sort(np.argsort(energies)[:6])
    assert np.array_equal(out.leader_indices(), expected)
    assert out.leader_count == int(omega_bar * 20)


def test_transition_validates_inputs():
    ens = make_ensemble(np.zeros((2, 1)))
    w = np.zeros(2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        apply_label_transitions(ens, w, omega_bar=0.5, eps=0.0, rng=rng)
    with pytest.raises(ValueError):
        apply_label_transitions(ens, w, omega_bar=1.5, eps=0.5, rng=rng)
    with pytest.raises(ValueError):
        apply_label_transitions(ens, np.zeros(3), 0.5, 0.5, rng)


def test_deterministic_pass_matches_certainty_transitions():
    rng = np.random.default_rng(14)
    energies = rng.normal(size=25)
    labels = rng.integers(0, 2, size=25)
    ens = make_ensemble(np.zeros((25, 1)), labels=labels)
    w = compute_weights(ens, energies=energies)
    det = deterministic_label_pass(ens, w, omega_bar=0.2)
    sto = apply_label_transitions(ens, w, omega_bar=0.2, eps=1.0, rng=np.random.default_rng(0))
    assert np.array_equal(det.labels, sto.labels)


def test_deterministic_pass_consumes_no_randomness():
    ens = make_ensemble(np.zeros((4, 1)))
    w = np.array([0.0, 0.5, 0.5, 0.5])
    out = deterministic_label_pass(ens, w, omega_bar=0.25)
    assert out.labels.tolist() == [1, 0, 0, 0]


def test_plain_weight_arrays_drive_the_transitions():
    rng = np.random.default_rng(31)
    positions = rng.uniform(-5, 5, size=(12, 2))
    energies = np.round(rng.normal(size=12), 1)
    ens = make_ensemble(positions, labels=[1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0])
    omega = compute_weights(ens, energies=energies)
    assert type(omega) is np.ndarray and omega.dtype == np.float64 and omega.shape == (12,)
    det = deterministic_label_pass(ens, omega, omega_bar=0.25)
    assert det.labels.tolist() == [0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0]
    local = cluster_weights(ens, assign_clusters(ens), energies=energies)
    assert type(local) is np.ndarray and local.dtype == np.float64 and local.shape == (12,)
    sto = apply_label_transitions(ens, local, 0.25, 0.5, np.random.default_rng(5))
    assert sto.labels.tolist() == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1]


@pytest.mark.parametrize(
    "omega", [np.zeros(3), np.zeros((2, 1)), np.zeros((1, 2))], ids=["long", "column", "row"]
)
@pytest.mark.parametrize(
    "phase, call",
    [
        (
            "apply_label_transitions",
            lambda ens, w: apply_label_transitions(ens, w, 0.5, 0.5, np.random.default_rng(0)),
        ),
        ("deterministic_label_pass", lambda ens, w: deterministic_label_pass(ens, w, 0.5)),
    ],
    ids=["apply_label_transitions", "deterministic_label_pass"],
)
def test_weights_of_another_shape_are_rejected(phase, call, omega):
    ens = make_ensemble(np.zeros((2, 1)))
    with pytest.raises(ValueError, match=rf"^{phase}: omega must have shape \(2,\)"):
        call(ens, omega)
