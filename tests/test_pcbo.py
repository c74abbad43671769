import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import gkbo.solver as solver_module
from gkbo.errors import NumericError
from gkbo.objectives import preset
from gkbo.pcbo import PcboConfig, _run_replicas, pcbo_assign, pcbo_step, run_pcbo
from gkbo.solver import ClusterState, DiffusionMode, RunReport, StallTracker, check_stall
from test_solver import nearest_centre_oracle, populations


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


@given(case=populations())
@settings(max_examples=200, deadline=None)
def test_assign_matches_per_axis_oracle(case):
    # centres copied from the population give exact and near ties, on both
    # sides of the screened kernel's dimension rule and where squares overflow
    positions, picks = case
    centres = positions[picks]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pcbo_assign(positions, centres)
    with np.errstate(over="ignore"):
        want = nearest_centre_oracle(positions, centres)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 10])
def test_assign_near_ties_match_per_axis_oracle(dim):
    # each agent sits midway between two centres up to a few ulps, so its two
    # distances agree to rounding and only per-axis sums order them as the
    # oracle does; a sum of squares split across SIMD lanes flips a few
    rng = np.random.default_rng(dim)
    agents = rng.uniform(-10, 10, (200, dim))
    first = agents + rng.normal(size=(200, dim))
    second = 2.0 * agents - first
    second += rng.integers(-2, 3, second.shape) * np.spacing(second)
    centres = np.concatenate([first, second])
    assert np.array_equal(pcbo_assign(agents, centres), nearest_centre_oracle(agents, centres))


@pytest.mark.parametrize(
    "positions, centres",
    [
        ([[np.inf, 0.0], [1.0, -np.inf], [0.0, 0.0]], [[np.inf, 0.0], [0.0, 1.0]]),
        ([[np.inf, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),
        ([[1.0, 0.0], [0.0, 0.0]], [[0.0, np.nan], [0.0, 1.0]]),
    ],
    ids=["both", "positions", "centres"],
)
def test_assign_rejects_non_finite_input_without_warnings(positions, centres):
    # as assign_clusters does; an inf - inf distance would be a NaN that
    # argmin takes as the minimum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must have finite coordinates"):
            pcbo_assign(np.array(positions), np.array(centres))


NOT_2D = "positions and centres must be 2-d with at least one centre"


@pytest.mark.parametrize(
    "positions, centres, message",
    [
        (np.zeros(3), np.zeros((2, 1)), NOT_2D),
        (np.zeros((3, 1)), np.zeros(2), NOT_2D),
        (np.zeros((3, 1)), np.zeros((0, 1)), NOT_2D),
        (
            np.zeros((3, 2)),
            np.zeros((2, 3)),
            "dimension mismatch: particles are 2-d, centres are 3-d",
        ),
    ],
    ids=["flat-positions", "flat-centres", "no-centre", "dimensions"],
)
def test_assign_rejects_arrays_of_the_wrong_shape(positions, centres, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        pcbo_assign(positions, centres)


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


STEP_DEFECTS = {
    "index-past-the-centres": ([0, 0, 5, 0], np.zeros((2, 1)), "assignment"),
    "negative-index": ([0, 0, -1, 0], np.zeros((2, 1)), "assignment"),
    "short-assignment": ([0, 0, 1], np.zeros((2, 1)), "assignment"),
    "fractional-assignment": ([0.0, 0.5, 1.0, 0.0], np.zeros((2, 1)), "assignment"),
    "centres-of-another-dimension": ([0, 0, 1, 0], np.zeros((2, 2)), "centres"),
    "flat-centres": ([0, 0, 1, 0], np.zeros(2), "centres"),
    "non-finite-centre": ([0, 0, 1, 0], np.array([[0.0], [np.nan]]), "centres"),
    "no-centre": ([0, 0, 0, 0], np.zeros((0, 1)), "centres"),
}


@pytest.mark.parametrize("defect", STEP_DEFECTS)
def test_step_rejects_a_malformed_assignment_or_centres(defect):
    assignment, centres, name = STEP_DEFECTS[defect]
    positions = np.array([[0.0], [1.0], [2.0], [3.0]])
    args = (preset("rastrigin2", 1), PcboConfig(n_clusters=2), np.random.default_rng(0))
    pcbo_step(positions, [0, 0, 1, 1], np.zeros((2, 1)), *args)  # the well-formed call passes
    with pytest.raises(ValueError, match=f"^pcbo_step: {name} must"):
        pcbo_step(positions, assignment, centres, *args)


@pytest.mark.parametrize(
    "positions, energies",
    [
        (np.zeros(4), np.zeros(4)),
        (np.array([[0.0], [1.0], [np.nan], [3.0]]), np.zeros(4)),
        (np.array([[0.0], [1.0], [np.inf], [3.0]]), None),
    ],
    ids=["flat", "nan-with-energies", "inf"],
)
def test_step_rejects_malformed_positions_before_it_reads_them(positions, energies):
    # a NaN row with its energies given used to surface only after the move,
    # as particle 0 reaching a non-finite position
    args = (preset("rastrigin2", 1), PcboConfig(n_clusters=2), np.random.default_rng(0))
    message = r"^pcbo_step: positions must be finite, of shape \(n, d\)$"
    with pytest.raises(ValueError, match=message):
        pcbo_step(positions, [0, 0, 1, 1], np.zeros((2, 1)), *args, energies=energies)


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


def test_run_rejects_more_clusters_than_particles():
    message = r"n_clusters \(5\) cannot exceed the population size \(4\)"
    with pytest.raises(ValueError, match=message):
        run_pcbo(preset("ackley2", 1), PcboConfig(n_clusters=5, n_steps=2), 4)
    assert run_pcbo(preset("ackley2", 1), PcboConfig(n_clusters=4, n_steps=2), 4).iterations == 2


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
        # at d=4 a lane-split sum of squares (numpy's einsum) rounds unlike
        # the per-axis sums the loop shares with pcbo_assign; with einsum in
        # the loop this run would stall at step 81, not 222
        (4, PcboConfig(n_steps=300, j_stall=50, seed=10)),
        # every particle sits on its centre from step 163, least counter 50:
        # reported at once, stalled at step 213
        (2, PcboConfig(n_steps=600, j_stall=100, seed=11)),
        # the same fixed point, but the budget ends before the stall
        (2, PcboConfig(n_steps=200, j_stall=100, seed=11)),
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


def test_step_on_a_far_point_is_one_numeric_error():
    with pytest.raises(NumericError, match="^pcbo_step: agent 0 has a non-finite objective value$"):
        pcbo_step(
            np.array([[1e200], [0.0]]), np.zeros(2, dtype=np.int64), np.array([[0.0]]),
            preset("rastrigin2", 1), PcboConfig(n_clusters=1), np.random.default_rng(0),
        )


# ------------------------------------------------------------ replica batches


@pytest.mark.parametrize(
    "objective, dim, cfg, n_particles, seeds",
    [
        # centres go empty in every replica; seed 2 alone is the replay test's run
        ("ackley2", 1, PcboConfig(n_steps=400), 120, (2, 3)),
        # the replicas stall at steps 40 to 60
        ("ackley2", 3, PcboConfig(n_steps=200, j_stall=15), 80, (0, 1, 2, 3, 4)),
        # 10 centres: the other layout of the dense distances
        ("rastrigin2", 3, PcboConfig(n_steps=60, n_clusters=10), 80, (7, 8, 9)),
        # 4 centres at d = 6 and 10 stay in one dense pass; 12 centres at
        # d = 10 are screened replica by replica
        ("ackley4", 6, PcboConfig(n_steps=80, j_stall=20), 80, (0, 1, 2)),
        ("ackley4", 10, PcboConfig(n_steps=60, n_clusters=12), 80, (3, 4, 5)),
        ("ackley4", 10, PcboConfig(n_steps=60, diffusion="isotropic"), 80, (5, 6, 7, 8, 9)),
        ("ackley2", 2, PcboConfig(n_steps=100, diffusion="isotropic", j_stall=10), 80, (4, 5)),
        ("rastrigin2", 1, PcboConfig(n_steps=0), 50, (0, 1, 2)),
    ],
)
def test_replicas_equal_their_standalone_runs(
    objective, dim, cfg, n_particles, seeds, assert_reports_identical
):
    spec = preset(objective, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _run_replicas(spec, cfg, n_particles, seeds)
    assert len(batch) == len(seeds)
    for seed, report in zip(seeds, batch, strict=True):
        assert_reports_identical(
            report, run_pcbo(spec, dataclasses.replace(cfg, seed=seed), n_particles)
        )


def test_replicas_stall_at_different_steps():
    # the staggered-stall case above would pass trivially if all stalled together
    reports = _run_replicas(
        preset("ackley2", 3), PcboConfig(n_steps=200, j_stall=15), 80, (0, 1, 2, 3, 4)
    )
    assert all(report.stalled for report in reports)
    assert len({report.iterations for report in reports}) > 1


@pytest.mark.parametrize(
    "n_steps, iterations, stalled", [(600, 213, True), (200, 200, False)], ids=["stall", "budget"]
)
def test_a_settled_run_is_reported_at_its_fixed_point(monkeypatch, n_steps, iterations, stalled):
    # the replay test's settling runs: the loop stops at step 163, where every
    # particle sits on its centre, and reports the steps it did not take
    taken = []
    end_step = solver_module._Replicas.end_step

    def spy(self, estimates):
        taken.append(self.steps)
        end_step(self, estimates)

    monkeypatch.setattr(solver_module._Replicas, "end_step", spy)
    report = run_pcbo(preset("ackley2", 2), PcboConfig(n_steps=n_steps, j_stall=100, seed=11), 120)
    assert (report.iterations, report.stalled) == (iterations, stalled)
    assert report.evaluations == 120 * (iterations + 1)
    assert len(taken) == 163


def test_replicas_settle_and_run_on_in_one_batch(assert_reports_identical):
    # a box at the edge of the float range: seed 4 settles in step 75 and
    # seed 5 in step 108, and seed 2 does not settle; each is reported at
    # the budget with its standalone run's report
    spec = preset("ackley2", 1)
    cfg = PcboConfig(sigma=1.4, n_steps=150, n_clusters=1, init_lo=-1e306, init_hi=1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = _run_replicas(spec, cfg, 3, (5, 2, 4))
    for seed, report in zip((5, 2, 4), reports, strict=True):
        alone = run_pcbo(spec, dataclasses.replace(cfg, seed=seed), 3)
        assert alone.iterations == 150
        assert_reports_identical(report, alone)
