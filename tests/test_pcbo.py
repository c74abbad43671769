import warnings

import numpy as np
import pytest

from gkbo.errors import NumericError
from gkbo.objectives import preset
from gkbo.pcbo import PcboConfig, pcbo_assign, pcbo_step, run_pcbo
from gkbo.solver import ClusterState, DiffusionMode, RunReport, StallTracker, check_stall


def test_config_defaults():
    cfg = PcboConfig()
    assert cfg.nu == 1.0
    assert cfg.sigma == 0.5
    assert cfg.alpha == 5e6
    assert cfg.n_clusters == 4
    assert cfg.diffusion is DiffusionMode.ANISOTROPIC


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nu": 0.0},
        {"sigma": -0.5},
        {"alpha": -1.0},
        {"n_clusters": 0},
        {"j_stall": 0},
        {"init_lo": 2.0, "init_hi": 2.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PcboConfig(**kwargs).validate()


# ---------------------------------------------------------------- assignment


def test_assign_nearest_centre():
    centres = np.array([[-5.0], [5.0]])
    assert pcbo_assign(np.array([[1.0]]), centres).tolist() == [1]


def test_assign_tie_to_lowest_index():
    centres = np.array([[-5.0], [5.0]])
    assert pcbo_assign(np.array([[0.0]]), centres).tolist() == [0]


def test_assign_single_centre():
    centres = np.array([[0.0, 0.0]])
    points = np.random.default_rng(0).normal(size=(7, 2))
    assert not pcbo_assign(points, centres).any()


def test_assign_permutation_consistency():
    # permuting the centres permutes the labels accordingly (ties excluded)
    rng = np.random.default_rng(1)
    centres = rng.uniform(-5, 5, size=(4, 2))
    points = rng.uniform(-5, 5, size=(40, 2))
    base = pcbo_assign(points, centres)
    perm = np.array([2, 0, 3, 1])
    permuted = pcbo_assign(points, centres[perm])
    assert np.array_equal(perm[permuted], base)


def test_assign_is_idempotent_under_reassignment():
    rng = np.random.default_rng(5)
    centres = rng.uniform(-5, 5, size=(3, 2))
    points = rng.uniform(-5, 5, size=(25, 2))
    first = pcbo_assign(points, centres)
    second = pcbo_assign(points, centres)
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------- step


def test_step_two_equal_particles_meet_in_the_middle():
    spec = preset("rastrigin2", 1)
    cfg = PcboConfig(nu=1.0, sigma=0.0, n_clusters=1)
    positions = np.array([[0.0], [2.0]])
    assignment = np.zeros(2, dtype=np.int64)
    centres = np.array([[1.0]])
    new_pos, new_centres = pcbo_step(
        positions, assignment, centres, spec, cfg, np.random.default_rng(0),
        energies=np.array([3.0, 3.0]),
    )
    assert new_centres[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert new_pos[:, 0].tolist() == pytest.approx([1.0, 1.0], abs=1e-12)


def test_step_particle_at_centre_is_fixed_without_noise():
    spec = preset("rastrigin2", 1)
    cfg = PcboConfig(nu=1.0, sigma=0.0, n_clusters=1)
    positions = np.array([[-5.0]])
    new_pos, _ = pcbo_step(
        positions, np.zeros(1, dtype=np.int64), np.array([[-5.0]]), spec, cfg,
        np.random.default_rng(0),
    )
    assert np.array_equal(new_pos, positions)


def test_step_energy_shift_gives_identical_output():
    spec = preset("ackley2", 2)
    cfg = PcboConfig(sigma=0.5, n_clusters=2)
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    positions = np.random.default_rng(9).uniform(-8, 8, size=(30, 2))
    assignment = np.random.default_rng(10).integers(0, 2, size=30)
    centres = np.array([[1.0, 1.0], [-1.0, -1.0]])
    energies = spec.evaluate_batch(positions)
    out_a = pcbo_step(positions, assignment, centres, spec, cfg, rng_a, energies=energies)
    out_b = pcbo_step(positions, assignment, centres, spec, cfg, rng_b, energies=energies + 77.0)
    assert np.array_equal(out_a[0], out_b[0])
    assert np.array_equal(out_a[1], out_b[1])


def test_step_empty_cluster_keeps_previous_centre():
    spec = preset("rastrigin2", 1)
    cfg = PcboConfig(sigma=0.0, n_clusters=2)
    positions = np.array([[1.0], [2.0]])
    assignment = np.zeros(2, dtype=np.int64)  # cluster 1 is empty
    centres = np.array([[0.0], [42.0]])
    _, new_centres = pcbo_step(
        positions, assignment, centres, spec, cfg, np.random.default_rng(0)
    )
    assert new_centres[1, 0] == 42.0


def test_step_centres_concentrate_on_cluster_best():
    spec = preset("rastrigin2", 1)
    cfg = PcboConfig(sigma=0.0, n_clusters=1, alpha=5e6)
    positions = np.array([[-4.9], [-3.0], [1.0]])
    assignment = np.zeros(3, dtype=np.int64)
    _, new_centres = pcbo_step(
        positions, assignment, np.array([[0.0]]), spec, cfg, np.random.default_rng(0)
    )
    assert new_centres[0, 0] == pytest.approx(-4.9, abs=1e-9)


def test_step_overflow_raises():
    spec = preset("rastrigin2", 1)
    cfg = PcboConfig(sigma=1e308, n_clusters=1)
    positions = np.array([[0.0], [5.0]])
    with pytest.raises(NumericError):
        pcbo_step(
            positions, np.zeros(2, dtype=np.int64), np.array([[1e8]]), spec, cfg,
            np.random.default_rng(0), energies=np.array([0.0, 1.0]),
        )


def test_single_cluster_zero_noise_contracts_to_softmax_mean():
    spec = preset("rastrigin2", 2)
    cfg = PcboConfig(nu=0.5, sigma=0.0, n_clusters=1, alpha=1e-9)
    rng = np.random.default_rng(4)
    positions = rng.uniform(-10, 10, size=(20, 2))
    assignment = np.zeros(20, dtype=np.int64)
    centres = positions.mean(axis=0, keepdims=True)
    spread = [np.abs(positions - positions.mean(axis=0)).max()]
    for _ in range(40):
        positions, centres = pcbo_step(positions, assignment, centres, spec, cfg, rng)
        spread.append(np.abs(positions - positions.mean(axis=0)).max())
    assert spread[-1] < 1e-3 * spread[0]


# ---------------------------------------------------------------- full runs


def test_run_zero_steps():
    spec = preset("ackley2", 2)
    report = run_pcbo(spec, PcboConfig(n_steps=0, seed=3), 50)
    assert report.iterations == 0
    assert not report.stalled
    assert report.leader_count == 4


def test_run_seed_determinism():
    spec = preset("ackley2", 2)
    cfg = PcboConfig(n_steps=120, seed=11)
    a = run_pcbo(spec, cfg, 60)
    b = run_pcbo(spec, cfg, 60)
    assert a.iterations == b.iterations
    assert a.best_value == b.best_value
    assert np.array_equal(a.final_consensus, b.final_consensus)


def test_run_finds_some_minimizer_in_majority_of_runs():
    """Baseline sanity at the comparison operating point: most seeds end with
    at least one centre on some planted minimizer."""
    spec = preset("ackley2", 2)
    hits = 0
    for seed in range(20):
        report = run_pcbo(spec, PcboConfig(seed=seed), 600)
        gaps = np.abs(
            report.final_consensus[:, None, :] - spec.minimizers[None, :, :]
        ).max(axis=2)
        hits += int((gaps <= 0.25).any())
    assert hits > 10, f"only {hits}/20 runs placed a centre on a minimizer"


def test_run_rejects_bad_particle_count():
    with pytest.raises(ValueError):
        run_pcbo(preset("ackley2", 1), PcboConfig(), 0)


def _replay_pcbo(spec, cfg, n_particles):
    """``run_pcbo`` re-driven from the public phase functions, as a reference."""
    rng = np.random.default_rng(cfg.seed)
    positions = rng.uniform(cfg.init_lo, cfg.init_hi, size=(n_particles, spec.dim))
    energies = spec.evaluate_batch(positions)
    evaluations = n_particles
    memberships = rng.random((n_particles, cfg.n_clusters))
    memberships /= memberships.sum(axis=1, keepdims=True)
    # the initial fractional-membership centres
    weights = memberships * np.exp(-cfg.alpha * (energies - energies.min()))[:, np.newaxis]
    centres = (weights.T @ positions) / weights.sum(axis=0)[:, np.newaxis]
    assignment = pcbo_assign(positions, centres)
    tracker = StallTracker(np.zeros(n_particles, dtype=np.int64), centres[assignment])
    slots = np.arange(cfg.n_clusters)
    steps = stall = 0
    while steps < cfg.n_steps and stall < cfg.j_stall:
        positions, centres = pcbo_step(
            positions, assignment, centres, spec, cfg, rng, energies=energies
        )
        own_centre = ClusterState(
            leaders=slots,
            leader_of=assignment,
            cluster_of=assignment,
            agent_estimate=centres[assignment],
        )
        tracker, stall = check_stall(tracker, own_centre, cfg.delta_stall)
        energies = spec.evaluate_batch(positions)
        evaluations += n_particles
        assignment = pcbo_assign(positions, centres)
        steps += 1
    _, first = np.unique(centres, axis=0, return_index=True)
    return RunReport(
        iterations=steps,
        stalled=stall >= cfg.j_stall,
        final_consensus=centres[np.sort(first)],
        leader_count=cfg.n_clusters,
        best_value=float(energies.min()),
        evaluations=evaluations,
        seed=cfg.seed,
    )


@pytest.mark.parametrize(
    "dim, cfg",
    [
        # one centre goes empty along the way at d=1
        (1, PcboConfig(n_steps=400, seed=2)),
        # at d=4 the einsum and a per-axis sum of squares round differently;
        # per-axis sums in the loop would make this run stall at step 113, not 81
        (4, PcboConfig(n_steps=300, j_stall=50, seed=10)),
    ],
)
def test_run_equals_replay_from_public_phases(dim, cfg):
    spec = preset("ackley2", dim)
    report = run_pcbo(spec, cfg, 120)
    replay = _replay_pcbo(spec, cfg, 120)
    assert report.iterations == replay.iterations
    assert report.stalled == replay.stalled
    assert report.evaluations == replay.evaluations
    assert report.best_value == replay.best_value
    assert np.array_equal(report.final_consensus, replay.final_consensus)


@pytest.mark.parametrize(
    "objective, dim, sigma, message",
    [
        ("rastrigin2", 1, 5, r"objective: agent 20 has a non-finite objective value at step 318"),
        ("rastrigin2", 1, 40, r"objective: agent 26 has a non-finite objective value at step 108"),
        ("rastrigin2", 2, 5, r"objective: agent 51 has a non-finite objective value at step 320"),
        ("rastrigin2", 2, 40, r"objective: agent 4 has a non-finite objective value at step 108"),
        ("ackley2", 1, 40, r"pcbo_step: agent 38 reached a non-finite position at step 220"),
    ],
    ids=["rastrigin2-d1-sigma5", "rastrigin2-d1-sigma40", "rastrigin2-d2-sigma5",
         "rastrigin2-d2-sigma40", "ackley2-d1-sigma40"],
)
def test_divergence_is_one_numeric_error_without_numpy_warnings(objective, dim, sigma, message):
    # strong noise diverges; the centre weights and the objective overflow on
    # the way, and only the final error may surface
    cfg = PcboConfig(sigma=sigma, seed=0, n_steps=3000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=message):
            run_pcbo(preset(objective, dim), cfg, 60)


def test_step_errors_name_phase_and_particle():
    spec = preset("rastrigin2", 1)
    positions = np.array([[0.0], [5.0]])
    assignment = np.zeros(2, dtype=np.int64)
    with pytest.raises(NumericError, match="pcbo_step: agent 1 has a non-finite objective value"):
        pcbo_step(
            positions, assignment, np.array([[0.0]]), spec, PcboConfig(n_clusters=1),
            np.random.default_rng(0), energies=np.array([0.0, np.inf]),
        )
    with pytest.raises(NumericError, match="pcbo_step: agent 1 reached a non-finite position"):
        pcbo_step(
            positions, assignment, np.array([[1e8]]), spec, PcboConfig(sigma=1e308, n_clusters=1),
            np.random.default_rng(0), energies=np.array([0.0, 1.0]),
        )
