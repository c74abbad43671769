import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkbo.ensemble import Ensemble, compute_weights, init_uniform
from gkbo.errors import EmptyLeaderSetError, NumericError
from gkbo.objectives import Kind, ObjectiveSpec, evaluate_base, preset
from gkbo.solver import (
    ClusterState,
    DiffusionMode,
    SolverConfig,
    StallTracker,
    assign_clusters,
    check_stall,
    cluster_consensus,
    cluster_weights,
    interaction_step,
    run_gkbo,
)
from gkbo.solver import _cluster_min, _diffusion_scale, _nearest_leader, _slot_order, _Workspace


def diffusion_matrix(x, x_hat, mode):
    """Oracle: the noise-shaping matrix D of one agent as a dense (d, d) array.

    Isotropic: the identity scaled by the Euclidean distance between the agent
    and its consensus estimate. Anisotropic: the diagonal matrix of the
    coordinate gaps.
    """
    delta = np.asarray(x_hat, dtype=np.float64) - np.asarray(x, dtype=np.float64)
    if DiffusionMode(mode) is DiffusionMode.ISOTROPIC:
        return float(np.linalg.norm(delta)) * np.eye(delta.size)
    return np.diag(delta)


def nearest_leader_oracle(positions, leaders):
    """Oracle: nearest-leader slots, one fresh (n, L) temporary per axis.

    Squared distances are accumulated axis by axis, so a faster kernel must
    round exactly as this does; argmin takes the first minimum.
    """
    leader_pos = positions[leaders]
    sq_dist = np.square(positions[:, 0, np.newaxis] - leader_pos[np.newaxis, :, 0])
    for axis in range(1, positions.shape[1]):
        sq_dist += np.square(positions[:, axis, np.newaxis] - leader_pos[np.newaxis, :, axis])
    cluster_of = np.argmin(sq_dist, axis=1)
    cluster_of[leaders] = np.arange(leaders.size)
    return cluster_of


def make_ensemble(positions, labels):
    return Ensemble(
        positions=np.atleast_2d(np.asarray(positions, dtype=float)),
        labels=np.asarray(labels, dtype=np.int64),
    )


# -------------------------------------------------------------------- config


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.nu_f == 1.0
    assert cfg.nu_l == 2.0
    assert cfg.sigma_f == 2.5
    assert cfg.eps == 0.1
    assert cfg.alpha == 5e6
    assert cfg.n_leaders == 12
    assert cfg.n_steps == 10_000
    assert cfg.delta_stall == 1e-4
    assert cfg.j_stall == 1000
    assert cfg.diffusion is DiffusionMode.ANISOTROPIC
    assert (cfg.init_lo, cfg.init_hi) == (-10.0, 10.0)


def test_config_accepts_string_diffusion():
    cfg = SolverConfig(diffusion="isotropic")
    assert cfg.diffusion is DiffusionMode.ISOTROPIC


def test_config_omega_bar():
    assert SolverConfig(n_leaders=12).omega_bar(600) == 12 / 600


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps": 0.0},
        {"eps": 1.5},
        {"alpha": 0.0},
        {"sigma_f": -1.0},
        {"n_leaders": 0},
        {"j_stall": 0},
        {"n_steps": -1},
        {"seed": -3},
        {"init_lo": 5.0, "init_hi": -5.0},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs).validate()


def test_config_validation_checks_leader_budget():
    with pytest.raises(ValueError, match="population"):
        SolverConfig(n_leaders=100).validate(n_agents=50)


# ---------------------------------------------------------------- clustering


def test_assign_follower_to_nearest_leader():
    ens = make_ensemble([[-5.0], [5.0], [1.0]], labels=[1, 1, 0])
    clusters = assign_clusters(ens)
    assert clusters.leaders.tolist() == [0, 1]
    assert clusters.leader_of[2] == 1
    assert clusters.cluster_of[2] == 1


def test_assign_tie_goes_to_lowest_leader_index():
    ens = make_ensemble([[-5.0], [5.0], [0.0]], labels=[1, 1, 0])
    clusters = assign_clusters(ens)
    assert clusters.leader_of[2] == 0


def test_assign_single_leader_takes_all():
    ens = make_ensemble(np.arange(8, dtype=float).reshape(-1, 1), labels=[0, 0, 0, 1, 0, 0, 0, 0])
    clusters = assign_clusters(ens)
    assert clusters.n_clusters == 1
    assert (clusters.cluster_of == 0).all()
    assert (clusters.leader_of == 3).all()


def test_assign_leaders_own_their_cluster():
    rng = np.random.default_rng(2)
    positions = rng.normal(size=(30, 3))
    labels = np.zeros(30, dtype=np.int64)
    labels[[4, 11, 19]] = 1
    clusters = assign_clusters(Ensemble(positions=positions, labels=labels))
    for slot, leader in enumerate(clusters.leaders):
        assert clusters.cluster_of[leader] == slot
        assert clusters.leader_of[leader] == leader


def test_assign_requires_a_leader():
    ens = make_ensemble(np.zeros((3, 2)), labels=[0, 0, 0])
    with pytest.raises(EmptyLeaderSetError):
        assign_clusters(ens)


#: Coordinates with exact duplicates and values near 1e154, whose squared
#: differences overflow to inf.
COORDINATES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e154, -1e154, 1.3e154, -7e153]),
    st.floats(-10, 10, allow_nan=False),
)


@st.composite
def populations(draw):
    """Positions (n, d) for d in {1, 2, 3, 10} with repeated rows, and ascending leaders."""
    dim = draw(st.sampled_from([1, 2, 3, 10]))
    n_distinct = draw(st.integers(1, 12))
    rows = draw(st.lists(COORDINATES, min_size=n_distinct * dim, max_size=n_distinct * dim))
    distinct = np.array(rows).reshape(n_distinct, dim)
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=30))
    positions = distinct[picks]
    leaders = draw(st.sets(st.integers(0, len(picks) - 1), min_size=1))
    return positions, np.array(sorted(leaders))


@given(cases=st.lists(populations(), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_nearest_leader_kernel_matches_oracle(cases):
    # one workspace serves every call, so leader counts grow and shrink
    # across it and stale buffer contents must never reach a result
    work = _Workspace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_nearest_leader(positions, leaders, work) for positions, leaders in cases]
    for (positions, leaders), slots in zip(cases, got):
        with np.errstate(over="ignore"):
            want = nearest_leader_oracle(positions, leaders)
        assert np.array_equal(slots, want)


def test_assign_overflowing_distances_tie_to_lowest_leader():
    # leader 1 is nearer, but both squared distances overflow to inf and tie
    ens = make_ensemble([[-2e154], [1.4e154], [0.0]], labels=[1, 1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clusters = assign_clusters(ens)
    assert clusters.leader_of[2] == 0


@given(
    slots=st.lists(st.integers(0, 7), min_size=1, max_size=40),
    extra=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_cluster_min_matches_scatter_oracle(slots, extra, data):
    slots = np.array(slots)
    n_clusters = int(slots.max()) + 1 + extra  # trailing and inner slots may be empty
    energies = np.array(
        data.draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=slots.size, max_size=slots.size))
    )
    want = np.array([min(energies[slots == c], default=np.inf) for c in range(n_clusters)])
    assert np.array_equal(_cluster_min(energies, slots, n_clusters), want)


@pytest.mark.parametrize("n_clusters", [5, 1 << 16, (1 << 16) + 1])
def test_slot_order_is_a_stable_sort(n_clusters):
    rng = np.random.default_rng(9)
    slots = rng.integers(0, n_clusters, size=3000)
    assert np.array_equal(_slot_order(slots, n_clusters), np.argsort(slots, kind="stable"))


# ----------------------------------------------------------------- consensus


def test_consensus_singleton_cluster_is_its_agent():
    ens = make_ensemble([[2.0, -3.0]], labels=[1])
    spec = preset("rastrigin2", 2)
    clusters = cluster_consensus(ens, spec, assign_clusters(ens), alpha=5e6)
    assert np.array_equal(clusters.consensus[0], np.array([2.0, -3.0]))
    assert np.array_equal(clusters.agent_estimate[0], np.array([2.0, -3.0]))


def test_consensus_equal_energies_is_midpoint():
    ens = make_ensemble([[1.0], [3.0]], labels=[1, 0])
    clusters = assign_clusters(ens)
    out = cluster_consensus(ens, None, clusters, alpha=5e6, energies=np.array([4.0, 4.0]))
    assert out.consensus[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_consensus_two_point_softmax_concentrates_on_best():
    ens = make_ensemble([[0.0], [1.0]], labels=[1, 0])
    clusters = assign_clusters(ens)
    out = cluster_consensus(ens, None, clusters, alpha=5e6, energies=np.array([0.0, 1.0]))
    assert abs(out.consensus[0, 0]) <= 1e-12


def test_consensus_alpha_concentration_with_clear_gaps():
    # with the reference sharpness, any energy gap of 1e-3 or more leaves
    # all weight on the cluster's best agent
    rng = np.random.default_rng(6)
    positions = rng.uniform(-5, 5, size=(40, 3))
    labels = np.zeros(40, dtype=np.int64)
    labels[[0, 13]] = 1
    ens = Ensemble(positions=positions, labels=labels)
    clusters = assign_clusters(ens)
    energies = np.round(rng.uniform(0, 10, size=40), 3)
    # force unique energies so gaps are >= 1e-3
    energies = np.linspace(0, 4, 40)[rng.permutation(40)]
    out = cluster_consensus(ens, None, clusters, alpha=5e6, energies=energies)
    for k in range(out.n_clusters):
        members = np.flatnonzero(out.cluster_of == k)
        best = members[np.argmin(energies[members])]
        assert np.abs(out.consensus[k] - positions[best]).max() <= 1e-9


def test_consensus_shift_invariance():
    rng = np.random.default_rng(7)
    positions = rng.uniform(-8, 8, size=(25, 2))
    labels = np.zeros(25, dtype=np.int64)
    labels[[3, 9, 17]] = 1
    ens = Ensemble(positions=positions, labels=labels)
    clusters = assign_clusters(ens)
    energies = rng.normal(size=25)
    base = cluster_consensus(ens, None, clusters, alpha=5e6, energies=energies)
    for shift in (1.0, -250.0, 1e6):
        shifted = cluster_consensus(ens, None, clusters, alpha=5e6, energies=energies + shift)
        assert np.abs(shifted.consensus - base.consensus).max() <= 1e-9


def test_consensus_in_convex_hull_of_cluster():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        positions = rng.uniform(-10, 10, size=(n, 2))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)] = 1
        ens = Ensemble(positions=positions, labels=labels)
        clusters = assign_clusters(ens)
        energies = rng.uniform(0, 1, size=n)
        out = cluster_consensus(ens, None, clusters, alpha=float(rng.uniform(0.1, 100)), energies=energies)
        for k in range(out.n_clusters):
            members = np.flatnonzero(out.cluster_of == k)
            lo = positions[members].min(axis=0) - 1e-12
            hi = positions[members].max(axis=0) + 1e-12
            assert (out.consensus[k] >= lo).all() and (out.consensus[k] <= hi).all()


def test_consensus_estimate_maps_cluster_rows():
    ens = make_ensemble([[0.0], [10.0], [1.0], [9.0]], labels=[1, 1, 0, 0])
    clusters = assign_clusters(ens)
    out = cluster_consensus(ens, None, clusters, alpha=1.0, energies=np.zeros(4))
    assert np.array_equal(out.agent_estimate, out.consensus[out.cluster_of])


# ----------------------------------------------------- per-cluster standings


def test_cluster_weights_matches_per_cluster_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        n_lead = int(rng.integers(1, min(n, 6) + 1))
        positions = rng.uniform(-10, 10, size=(n, 2))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=n_lead, replace=False)] = 1
        ens = Ensemble(positions=positions, labels=labels)
        clusters = assign_clusters(ens)
        energies = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        got = cluster_weights(ens, clusters, energies=energies).omega
        want = np.empty(n)
        for k in range(clusters.n_clusters):
            members = np.flatnonzero(clusters.cluster_of == k)
            vals = energies[members]
            for local, agent in enumerate(members):
                gap = abs(vals[local] - vals.min())
                want[agent] = sum(abs(v - vals.min()) < gap for v in vals) / members.size
        assert np.array_equal(got, want)


def test_cluster_weights_single_cluster_matches_global():
    rng = np.random.default_rng(22)
    positions = rng.uniform(-10, 10, size=(15, 2))
    labels = np.zeros(15, dtype=np.int64)
    labels[6] = 1
    ens = Ensemble(positions=positions, labels=labels)
    clusters = assign_clusters(ens)
    energies = rng.normal(size=15)
    local = cluster_weights(ens, clusters, energies=energies)
    glob = compute_weights(ens, energies=energies)
    assert np.array_equal(local.omega, glob.omega)
    assert local.best_index == glob.best_index


def test_cluster_weights_best_of_each_cluster_is_zero():
    ens = make_ensemble([[-5.0], [5.0], [-4.0], [4.0]], labels=[1, 1, 0, 0])
    clusters = assign_clusters(ens)
    w = cluster_weights(ens, clusters, energies=np.array([3.0, 7.0, 5.0, 2.0]))
    # cluster 0: agents 0, 2 -> best 0; cluster 1: agents 1, 3 -> best 3
    assert w.omega[0] == 0.0
    assert w.omega[3] == 0.0
    assert w.omega[2] == 0.5
    assert w.omega[1] == 0.5
    assert w.best_index == 3


def test_cluster_weights_validates():
    ens = make_ensemble([[0.0], [1.0]], labels=[1, 0])
    clusters = assign_clusters(ens)
    with pytest.raises(ValueError):
        cluster_weights(ens, clusters)
    with pytest.raises(NumericError, match="agent 1"):
        cluster_weights(ens, clusters, energies=np.array([0.0, np.inf]))


# ----------------------------------------------------------------- diffusion


def test_diffusion_matrix_anisotropic():
    mat = diffusion_matrix(np.array([0.0, 0.0]), np.array([3.0, -4.0]), DiffusionMode.ANISOTROPIC)
    assert np.array_equal(mat, np.diag([3.0, -4.0]))


def test_diffusion_matrix_isotropic():
    mat = diffusion_matrix(np.array([0.0, 0.0]), np.array([3.0, -4.0]), DiffusionMode.ISOTROPIC)
    assert np.array_equal(mat, 5.0 * np.eye(2))


def test_diffusion_matrix_zero_gap():
    x = np.array([1.0, 2.0])
    for mode in DiffusionMode:
        assert not diffusion_matrix(x, x, mode).any()


@pytest.mark.parametrize("mode", list(DiffusionMode))
def test_diffusion_scale_applies_the_diffusion_matrix(mode):
    rng = np.random.default_rng(14)
    x, x_hat, xi = rng.normal(size=(3, 6, 4))
    scaled = _diffusion_scale(x_hat - x, mode) * xi
    # the oracle's isotropic norm is a dot product, summed in another order
    rtol = 1e-14 if mode is DiffusionMode.ISOTROPIC else 0.0
    for agent in range(6):
        want = diffusion_matrix(x[agent], x_hat[agent], mode) @ xi[agent]
        np.testing.assert_allclose(scaled[agent], want, rtol=rtol, atol=0.0)


# ---------------------------------------------------------------- interaction


def one_cluster_state(ens, estimates):
    clusters = assign_clusters(ens)
    return ClusterState(
        leaders=clusters.leaders,
        leader_of=clusters.leader_of,
        cluster_of=clusters.cluster_of,
        consensus=np.atleast_2d(estimates)[: clusters.n_clusters],
        agent_estimate=np.asarray(estimates)[clusters.cluster_of],
    )


def test_follower_drift_example():
    ens = make_ensemble([[1.0], [0.0]], labels=[1, 0])
    clusters = one_cluster_state(ens, np.array([[1.0]]))
    cfg = SolverConfig(eps=0.1, nu_f=1.0, sigma_f=0.0)
    out = interaction_step(ens, clusters, cfg, np.random.default_rng(0))
    assert out.positions[1, 0] == pytest.approx(0.1, abs=1e-15)


def test_leader_drift_example():
    ens = make_ensemble([[1.0]], labels=[1])
    clusters = one_cluster_state(ens, np.array([[0.0]]))
    cfg = SolverConfig(eps=0.1, nu_l=2.0, sigma_f=0.0)
    out = interaction_step(ens, clusters, cfg, np.random.default_rng(0))
    assert out.positions[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_leader_at_consensus_is_fixed():
    ens = make_ensemble([[0.5, -0.5]], labels=[1])
    clusters = one_cluster_state(ens, np.array([[0.5, -0.5]]))
    out = interaction_step(ens, clusters, SolverConfig(), np.random.default_rng(0))
    assert np.array_equal(out.positions, ens.positions)


def test_noise_free_contraction_ratio_is_exact():
    # with dyadic step factors the contraction has no rounding at all
    ens = make_ensemble([[1.0], [0.0]], labels=[1, 0])
    clusters = one_cluster_state(ens, np.array([[1.0]]))
    cfg = SolverConfig(eps=0.5, nu_f=1.0, nu_l=2.0, sigma_f=0.0)
    out = interaction_step(ens, clusters, cfg, np.random.default_rng(0))
    # follower: gap to leader shrinks by exactly (1 - eps * nu_f) = 0.5
    assert abs(out.positions[1, 0] - 1.0) == 0.5 * abs(ens.positions[1, 0] - 1.0)


def test_leaders_draw_no_randomness():
    rng = np.random.default_rng(4)
    positions = rng.normal(size=(6, 2))
    ens = Ensemble(positions=positions, labels=np.ones(6, dtype=np.int64))
    clusters = assign_clusters(ens)
    estimates = rng.normal(size=(6, 2))
    state = ClusterState(
        leaders=clusters.leaders,
        leader_of=clusters.leader_of,
        cluster_of=clusters.cluster_of,
        consensus=estimates,
        agent_estimate=estimates[clusters.cluster_of],
    )
    a = interaction_step(ens, state, SolverConfig(), np.random.default_rng(1))
    b = interaction_step(ens, state, SolverConfig(), np.random.default_rng(999))
    assert np.array_equal(a.positions, b.positions)


def test_interaction_reads_pre_step_positions():
    # two followers of one leader: neither sees the other's move
    ens = make_ensemble([[0.0], [4.0], [8.0]], labels=[0, 1, 0])
    clusters = one_cluster_state(ens, np.array([[4.0]]))
    cfg = SolverConfig(eps=0.5, nu_f=1.0, sigma_f=0.0)
    out = interaction_step(ens, clusters, cfg, np.random.default_rng(0))
    assert out.positions[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert out.positions[2, 0] == pytest.approx(6.0, abs=1e-15)


def test_interaction_keeps_labels():
    ens = make_ensemble([[0.0], [1.0]], labels=[1, 0])
    clusters = one_cluster_state(ens, np.array([[0.0]]))
    out = interaction_step(ens, clusters, SolverConfig(sigma_f=0.0), np.random.default_rng(0))
    assert np.array_equal(out.labels, ens.labels)


def test_interaction_overflow_names_agent_and_step():
    ens = make_ensemble([[0.0], [1.0]], labels=[1, 0])
    clusters = one_cluster_state(ens, np.array([[1e300]]))
    cfg = SolverConfig(sigma_f=1e30)
    with pytest.raises(NumericError, match="agent 1 .*step 7"):
        interaction_step(ens, clusters, cfg, np.random.default_rng(0), step=7)


def test_anisotropic_noise_leaves_converged_axes_quiet():
    # the estimate gap is zero along axis 1, so no noise enters axis 1
    ens = make_ensemble([[0.0, 3.0], [10.0, 3.0]], labels=[1, 0])
    est = np.array([[10.0, 3.0]])
    clusters = one_cluster_state(ens, est)
    cfg = SolverConfig(eps=0.1, nu_f=1.0, sigma_f=2.5, diffusion=DiffusionMode.ANISOTROPIC)
    out = interaction_step(ens, clusters, cfg, np.random.default_rng(3))
    assert out.positions[1, 1] == pytest.approx(3.0, abs=1e-15)
    assert out.positions[1, 0] != pytest.approx(1.0, abs=1e-12)  # noise fired on axis 0


# --------------------------------------------------------------------- stall


def test_stall_counts_consecutive_quiet_steps():
    est = np.zeros((3, 2))
    tracker = StallTracker(counters=np.zeros(3, dtype=np.int64), estimates=est.copy())
    clusters = ClusterState(
        leaders=np.array([0]),
        leader_of=np.zeros(3, dtype=np.int64),
        cluster_of=np.zeros(3, dtype=np.int64),
        consensus=np.zeros((1, 2)),
        agent_estimate=est.copy(),
    )
    for expected in (1, 2, 3):
        tracker, j = check_stall(tracker, clusters, delta_stall=1e-4)
        assert j == expected


def test_stall_resets_on_large_move():
    tracker = StallTracker(counters=np.array([5, 5]), estimates=np.zeros((2, 1)))
    moved = np.array([[0.0], [1.0]])
    clusters = ClusterState(
        leaders=np.array([0]),
        leader_of=np.zeros(2, dtype=np.int64),
        cluster_of=np.zeros(2, dtype=np.int64),
        consensus=np.zeros((1, 1)),
        agent_estimate=moved,
    )
    tracker, j = check_stall(tracker, clusters, delta_stall=1e-4)
    assert tracker.counters.tolist() == [6, 0]
    assert j == 0


def test_stall_boundary_move_counts_as_quiet():
    tracker = StallTracker(counters=np.zeros(1, dtype=np.int64), estimates=np.zeros((1, 1)))
    clusters = ClusterState(
        leaders=np.array([0]),
        leader_of=np.zeros(1, dtype=np.int64),
        cluster_of=np.zeros(1, dtype=np.int64),
        consensus=np.array([[1e-4]]),
        agent_estimate=np.array([[1e-4]]),
    )
    _, j = check_stall(tracker, clusters, delta_stall=1e-4)
    assert j == 1


def test_stall_requires_consensus():
    tracker = StallTracker(counters=np.zeros(1, dtype=np.int64), estimates=np.zeros((1, 1)))
    clusters = ClusterState(
        leaders=np.array([0]),
        leader_of=np.zeros(1, dtype=np.int64),
        cluster_of=np.zeros(1, dtype=np.int64),
    )
    with pytest.raises(ValueError):
        check_stall(tracker, clusters, 1e-4)


# ----------------------------------------------------------------- full runs


def test_run_zero_steps():
    spec = preset("rastrigin2", 2)
    report = run_gkbo(spec, SolverConfig(n_steps=0, seed=5), 40)
    assert report.iterations == 0
    assert not report.stalled
    assert report.final_consensus.ndim == 2
    assert report.evaluations == 40


def test_run_seed_determinism():
    spec = preset("rastrigin2", 2)
    cfg = SolverConfig(n_steps=150, seed=17)
    a = run_gkbo(spec, cfg, 60)
    b = run_gkbo(spec, cfg, 60)
    assert a.iterations == b.iterations
    assert a.stalled == b.stalled
    assert a.leader_count == b.leader_count
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.final_consensus, b.final_consensus)


def test_run_respects_step_budget():
    spec = preset("ackley2", 2)
    report = run_gkbo(spec, SolverConfig(n_steps=25, seed=2), 50)
    assert report.iterations <= 25


def test_run_two_agent_trajectory_matches_scalar_recursion():
    """Noise-free two-agent run replayed with plain floats.

    Both agents start inside (0.05, 0.45), where the one-minimum landscape is
    strictly increasing, so the better agent stays better forever: the label
    transition stays on its boundary case and the roles never change. The
    leader tracks the two-point softmax consensus and the follower contracts
    toward the leader. Replaying the exact update formulas scalar-by-scalar,
    consuming the same random stream, must reproduce the solver's trajectory.
    """
    spec = ObjectiveSpec(Kind.RASTRIGIN, 1, np.array([[0.0]]))
    cfg = SolverConfig(
        sigma_f=0.0, n_leaders=1, n_steps=100, seed=33, init_lo=0.05, init_hi=0.45
    )
    report = run_gkbo(spec, cfg, 2)

    # independent replay
    rng = np.random.default_rng(33)
    pos = rng.uniform(0.05, 0.45, size=(2, 1))
    x = [float(pos[0, 0]), float(pos[1, 0])]

    def energy(v):
        return evaluate_base("rastrigin", np.array([v]))

    e = [energy(x[0]), energy(x[1])]
    # bootstrap: both followers, population-wide ranks, the best promotes
    leader = 0 if e[0] <= e[1] else 1
    follower = 1 - leader

    def consensus(x, e):
        shift = min(e)
        w0 = math.exp(-cfg.alpha * (e[0] - shift))
        w1 = math.exp(-cfg.alpha * (e[1] - shift))
        return (x[0] * w0 + x[1] * w1) / (w0 + w1)

    c = consensus(x, e)
    for _ in range(100):
        x_new = list(x)
        x_new[leader] = x[leader] + cfg.eps * cfg.nu_l * (c - x[leader])
        rng.standard_normal((1, 1))  # follower noise draw, zeroed by sigma_f
        x_new[follower] = x[follower] + cfg.eps * cfg.nu_f * (x[leader] - x[follower])
        x = x_new
        e = [energy(x[0]), energy(x[1])]
        rng.random(2)  # transition draws; labels provably stable here
        c = consensus(x, e)

    assert report.iterations == 100
    assert abs(report.final_consensus[0, 0] - c) <= 1e-12


def test_run_single_agent_is_stationary():
    spec = ObjectiveSpec(Kind.RASTRIGIN, 2, np.array([[0.0, 0.0]]))
    report = run_gkbo(spec, SolverConfig(n_steps=50, n_leaders=1, seed=8), 1)
    # one agent leads itself and sits exactly at its own consensus point
    assert report.leader_count == 1
    assert report.stalled is False or report.iterations <= 50


@pytest.mark.parametrize(
    "objective, message",
    [
        ("ackley2", r"interaction_step: agent 8 reached a non-finite position at step 258"),
        ("rastrigin2", r"objective: agent 46 has a non-finite objective value at step 271"),
    ],
)
def test_divergence_is_one_numeric_error_without_numpy_warnings(objective, message):
    # isotropic noise this strong diverges; the squares, norms and objective
    # values overflow on the way, and only the final error may surface
    cfg = SolverConfig(diffusion="isotropic", sigma_f=10, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=message):
            run_gkbo(preset(objective, 2), cfg, 60)


def test_run_rejects_oversized_leader_budget():
    spec = preset("rastrigin2", 2)
    with pytest.raises(ValueError):
        run_gkbo(spec, SolverConfig(n_leaders=100), 50)
