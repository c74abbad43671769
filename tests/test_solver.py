import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkbo.ensemble import Ensemble, _slot_order, compute_weights
from gkbo.errors import EmptyLeaderSetError, NumericError
from gkbo.objectives import Kind, ObjectiveSpec, _Workspace, preset
from gkbo.pcbo import PcboConfig, pcbo_assign, pcbo_step, run_pcbo
from gkbo.pcbo import _run_replicas as run_pcbo_replicas
from gkbo import solver
from gkbo.solver import (
    ClusterState,
    DiffusionMode,
    RunReport,
    SolverConfig,
    StallTracker,
    assign_clusters,
    check_stall,
    cluster_consensus,
    cluster_weights,
    interaction_step,
    run_gkbo,
)
from gkbo.solver import (
    _cluster_min,
    _clusters,
    _diffusion_scale,
    _nearest_centre,
    _run_replicas,
)


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


def nearest_centre_oracle(positions, centres):
    """Oracle: nearest-centre indices, one fresh (n, k) temporary per axis.

    Squared distances are accumulated axis by axis, so a faster kernel must
    round exactly as this does; argmin takes the first minimum.
    """
    sq_dist = np.square(positions[:, 0, np.newaxis] - centres[np.newaxis, :, 0])
    for axis in range(1, positions.shape[1]):
        sq_dist += np.square(positions[:, axis, np.newaxis] - centres[np.newaxis, :, axis])
    return np.argmin(sq_dist, axis=1)


def nearest_leader_oracle(positions, leaders):
    """Oracle: nearest-leader slots, each leader in its own slot."""
    cluster_of = nearest_centre_oracle(positions, positions[leaders])
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


@pytest.mark.parametrize("run, config", [(run_gkbo, SolverConfig), (run_pcbo, PcboConfig)])
def test_a_diffusion_string_set_after_construction_is_rejected(run, config):
    # only the constructor converts a string to a DiffusionMode
    cfg = config()
    cfg.diffusion = "isotropic"
    with pytest.raises(ValueError, match="^diffusion must be a DiffusionMode, got 'isotropic'$"):
        run(preset("rastrigin2", 2), cfg, 20)


def test_config_omega_bar():
    assert SolverConfig(n_leaders=12).omega_bar(600) == 12 / 600


@pytest.mark.parametrize(
    "n_leaders, n_agents, message",
    [
        (12, 2.5, r"^population size must be an integer of at least 1, got 2\.5$"),
        (12, True, r"^population size must be an integer of at least 1, got True$"),
        (12, 0, r"^population size must be an integer of at least 1, got 0$"),
        (12, 6, r"^n_leaders \(12\) cannot exceed the population size \(6\)$"),
        (2.5, 6, r"^n_leaders must be an integer, got 2\.5$"),
    ],
    ids=["fractional", "bool", "zero", "fewer-agents-than-leaders", "fractional-leaders"],
)
def test_config_omega_bar_rejects_what_validate_rejects(n_leaders, n_agents, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(n_leaders=n_leaders).omega_bar(n_agents)


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

#: Coordinate regimes: ordinary values, values near 1e-160 whose squares
#: underflow, values near 1e-310 that are subnormal themselves, a mix with
#: values near 1e154 that sends the screened kernel to the dense one, and
#: values near 1e308 whose differences overflow to inf.
REGIMES = {
    "ordinary": st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 2.5]), st.floats(-10, 10, allow_nan=False)
    ),
    "subnormal": st.floats(-10, 10, allow_nan=False).map(lambda v: v * 1e-160),
    "tiny": st.floats(-10, 10, allow_nan=False).map(lambda v: v * 1e-310),
    "overflow": COORDINATES,
    "huge": st.one_of(
        st.sampled_from([0.0, 1e308, -1e308, 1.5e308, -1.7e308]),
        st.floats(-10, 10, allow_nan=False).map(lambda v: v * 1.7e307),
    ),
}


@st.composite
def populations(draw):
    """Positions (n, d) and ascending leaders, with exact and near ties.

    d covers both sides of the screened kernel's dimension rule. Besides
    repeated rows, derived rows give a leader a few ulps from another one (a
    near tie in distance far below the screen's rounding), its first two
    coordinates swapped (an exact tie for agents whose first two coordinates
    are equal, which another derived row provides) or its mirror image
    through another row (equidistant from it up to rounding).
    """
    dim = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 10, 17]))
    regime = draw(st.sampled_from(["generic", *REGIMES]))
    n_base = draw(st.integers(1, 8))
    if regime == "generic":
        # Uniform draws, each row with a copy a few ulps away. Hypothesis
        # favours short floats, whose products round exactly; a screen that
        # leaves out its rounding slack fails only on rows like these.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        base = rng.uniform(-10, 10, (n_base, dim))
        rows = [*base, *(base + rng.integers(-3, 4, base.shape) * np.spacing(base))]
    else:
        size = n_base * dim
        values = draw(st.lists(REGIMES[regime], min_size=size, max_size=size))
        rows = list(np.array(values).reshape(n_base, dim))
    derived = st.tuples(
        st.sampled_from(["nudge", "swap", "even", "mirror"]),
        st.integers(0, n_base - 1),
        st.integers(0, n_base - 1),
    )
    for how, source, other in draw(st.lists(derived, max_size=8)):
        row = rows[source].copy()
        if how == "nudge":
            ulps = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            row += np.array(ulps) * np.spacing(row)
        elif how == "swap":
            row[:2] = row[:2][::-1]
        elif how == "even":
            row[1:2] = row[0]
        else:
            with np.errstate(over="ignore"):
                row = 2.0 * row - rows[other]
            if not np.isfinite(row).all():
                continue
        rows.append(row)
    distinct = np.array(rows)
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=30))
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
        got = []
        for positions, leaders in cases:
            labels = np.zeros(positions.shape[0], dtype=np.int64)
            labels[leaders] = 1
            got.append(_clusters(positions, labels, labels.size, work)[2])
    for (positions, leaders), slots in zip(cases, got):
        with np.errstate(over="ignore"):
            want = nearest_leader_oracle(positions, leaders)
        assert np.array_equal(slots, want)


@pytest.mark.parametrize("dim", [6, 10, 17])
def test_screened_assignment_of_converged_leaders_matches_oracle(dim):
    # Converged runs leave leaders a few ulps apart: their distances to an
    # agent differ far below the rounding of the screen's matrix product, so
    # only the exact per-axis sums over every leader inside the slack order
    # them as the oracle does. The last four leaders copy the first four
    # exactly, and their ties go to the lower slot.
    rng = np.random.default_rng(dim)
    centres = rng.uniform(-10, 10, (3, dim))
    leader_pos = np.repeat(centres, 8, axis=0)
    leader_pos += rng.integers(-4, 5, leader_pos.shape) * np.spacing(leader_pos)
    leader_pos = np.concatenate([leader_pos, leader_pos[:4]])
    followers = np.concatenate(
        [leader_pos[::2], np.repeat(centres, 20, axis=0) + rng.normal(size=(60, dim)) * 1e-9]
    )
    positions = np.concatenate([leader_pos, followers])
    leaders = np.arange(leader_pos.shape[0])
    labels = np.zeros(positions.shape[0], dtype=np.int64)
    labels[leaders] = 1
    clusters = assign_clusters(Ensemble(positions=positions, labels=labels))
    assert np.array_equal(clusters.cluster_of, nearest_leader_oracle(positions, leaders))


@pytest.mark.parametrize("box", [(-10, 10), (0.9e154, 1.3e154)], ids=["unit", "huge"])
@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("n_centres", [1, 2, 4, 6, 8, 9, 24])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 6, 10])
def test_stacked_nearest_centre_matches_oracle_per_replica(replicas, n_centres, dim, box):
    # Each replica has centres of its own, a few ulps from some of its agents,
    # with the last one an exact copy of the first, from 1 to 24 centres and
    # on both sides of the screening rules; one workspace serves every call.
    # In the huge box every exact distance is finite, but the screen's
    # |c|^2 - 2 x.c is inf - inf: only its fallback to the dense kernel
    # gets those rows right.
    rng = np.random.default_rng(100 * dim + n_centres)
    positions = rng.uniform(*box, (replicas, 60, dim))
    picks = rng.integers(0, 60, (replicas, n_centres, 1))
    centres = np.take_along_axis(positions, picks, axis=1)
    centres += rng.integers(-2, 3, centres.shape) * np.spacing(centres)
    centres[:, -1] = centres[:, 0]
    work = _Workspace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _nearest_centre(positions, centres, work)
        alone = [_nearest_centre(p, c, work) for p, c in zip(positions, centres)]
    want = [nearest_centre_oracle(p, c) for p, c in zip(positions, centres)]
    assert stacked.shape == (replicas, 60)
    assert np.array_equal(stacked, want) and np.array_equal(alone, want)


_BLAS_NAME = str(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}))

#: One nearest-centre case, 2000 agents against 400 centres a few ulps from
#: some of them, d = 3. OpenBLAS keeps a product on one thread up to
#: M N K = 262144, and on x86-64 up to 1e6 in its small-matrix kernel; the
#: difference products, 2000 x 400 x 2, lie above both, so two threads
#: split them.
_THREADED_CASE = """
rng = np.random.default_rng(7)
positions = rng.uniform(-10, 10, (2000, 3))
centres = positions[rng.integers(0, 2000, 400)]
centres += rng.integers(-2, 3, centres.shape) * np.spacing(centres)
"""

_THREADED_CALL = f"""
import hashlib
import numpy as np
from gkbo.objectives import _Workspace
from gkbo.solver import _nearest_centre
{_THREADED_CASE}
print(hashlib.sha256(_nearest_centre(positions, centres, _Workspace()).tobytes()).hexdigest())
"""


@pytest.mark.skipif("openblas" not in _BLAS_NAME.lower(), reason="numpy is not built on OpenBLAS")
def test_nearest_centre_does_not_depend_on_the_blas_thread_count():
    case = {"np": np}
    exec(_THREADED_CASE, case)
    want = nearest_centre_oracle(case["positions"], case["centres"])
    package_root = str(Path(solver.__file__).parents[1])
    digests = set()
    for threads in ("1", "2"):
        # the variable is set for the subprocess only
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_CALL], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert digests == {hashlib.sha256(want.tobytes()).hexdigest()}


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
        got = cluster_weights(ens, clusters, energies=energies)
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
    assert np.array_equal(local, glob)


def test_cluster_weights_best_of_each_cluster_is_zero():
    ens = make_ensemble([[-5.0], [5.0], [-4.0], [4.0]], labels=[1, 1, 0, 0])
    clusters = assign_clusters(ens)
    w = cluster_weights(ens, clusters, energies=np.array([3.0, 7.0, 5.0, 2.0]))
    # cluster 0: agents 0, 2 -> best 0; cluster 1: agents 1, 3 -> best 3
    assert w[0] == 0.0
    assert w[3] == 0.0
    assert w[2] == 0.5
    assert w[1] == 0.5


def test_cluster_weights_validates():
    ens = make_ensemble([[0.0], [1.0]], labels=[1, 0])
    clusters = assign_clusters(ens)
    with pytest.raises(ValueError, match="^either an objective or precomputed energies is required"):
        cluster_weights(ens, clusters)
    with pytest.raises(NumericError, match="agent 1"):
        cluster_weights(ens, clusters, energies=np.array([0.0, np.inf]))


def test_consensus_of_a_far_point_is_one_numeric_error():
    ens = make_ensemble([[0.0], [1e200]], labels=[1, 0])
    with pytest.raises(NumericError, match="^cluster_consensus: agent 1 has a non-finite"):
        cluster_consensus(ens, preset("rastrigin2", 1), assign_clusters(ens), alpha=1.0)


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


@pytest.mark.parametrize(
    "cfg, message",
    [
        (SolverConfig(eps=2.0), r"eps must be in \(0, 1\], got 2.0"),
        (SolverConfig(eps=-0.1), r"eps must be in \(0, 1\], got -0.1"),
        (SolverConfig(nu_l=-3.0), "nu_l must be finite and positive, got -3.0"),
        (PcboConfig(alpha=-1.0), "alpha must be finite and positive, got -1.0"),
        (PcboConfig(sigma=-1.0), "sigma must be finite and non-negative, got -1.0"),
        (PcboConfig(nu=math.nan), "nu must be finite and positive, got nan"),
    ],
)
def test_a_phase_step_rejects_a_config_that_validate_rejects(cfg, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        if isinstance(cfg, SolverConfig):
            ens = make_ensemble([[1.0], [0.0]], labels=[1, 0])
            interaction_step(ens, one_cluster_state(ens, np.array([[1.0]])), cfg, rng)
        else:
            pcbo_step([[1.0], [0.0]], [0, 0], [[0.5]], preset("rastrigin2", 1), cfg, rng)


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


def test_every_agent_draws_its_own_noise_row():
    # one (n, d) normal draw per step, row i agent i's: leaders get a row
    # they do not use, so each follower's noise is its own row of z
    n, d, seed = 7, 3, 5
    rng = np.random.default_rng(2)
    ens = Ensemble(positions=rng.normal(size=(n, d)), labels=np.array([0, 1, 0, 0, 1, 0, 0]))
    estimates = rng.normal(size=(2, d))
    state = one_cluster_state(ens, estimates)
    cfg = SolverConfig(eps=0.2, nu_f=1.5, nu_l=2.0, sigma_f=0.7, diffusion="anisotropic")
    draws = np.random.default_rng(seed)
    out = interaction_step(ens, state, cfg, draws)
    reference = np.random.default_rng(seed)
    z = reference.standard_normal((n, d))
    for i in range(n):
        x, gap = ens.positions[i], state.agent_estimate[i] - ens.positions[i]
        if ens.labels[i]:
            expected = x + cfg.eps * cfg.nu_l * gap
        else:
            drift = cfg.eps * cfg.nu_f * (ens.positions[state.leader_of[i]] - x)
            expected = x + drift + math.sqrt(cfg.eps) * cfg.sigma_f * gap * z[i]
        np.testing.assert_allclose(out.positions[i], expected, rtol=1e-14, atol=1e-14)
    assert draws.random() == reference.random()  # nothing else was drawn


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


# ------------------------------------------------------- cluster-state checks


def consensus_state():
    """Two clusters of two agents on a line, with their consensus estimates."""
    ens = make_ensemble([[0.0], [1.0], [5.0], [6.0]], labels=[1, 0, 1, 0])
    clusters = assign_clusters(ens)
    return ens, cluster_consensus(ens, None, clusters, alpha=1.0, energies=np.arange(4.0))


CLUSTER_DEFECTS = {
    "slot-out-of-range": lambda c: dataclasses.replace(c, cluster_of=np.array([0, 0, 1, 2])),
    "negative-slot": lambda c: dataclasses.replace(c, cluster_of=np.array([0, -1, 1, 1])),
    "short-cluster_of": lambda c: dataclasses.replace(c, cluster_of=c.cluster_of[:3]),
    "leader_of-out-of-range": lambda c: dataclasses.replace(c, leader_of=np.array([0, 0, 2, 4])),
    "short-agent_estimate": lambda c: dataclasses.replace(c, agent_estimate=c.agent_estimate[:3]),
}

CLUSTER_PHASES = {
    "cluster_consensus": lambda ens, c: cluster_consensus(
        ens, None, c, alpha=1.0, energies=np.arange(4.0)
    ),
    "cluster_weights": lambda ens, c: cluster_weights(ens, c, energies=np.arange(4.0)),
    "interaction_step": lambda ens, c: interaction_step(
        ens, c, SolverConfig(), np.random.default_rng(0)
    ),
    "check_stall": lambda ens, c: check_stall(
        StallTracker(np.zeros(4, dtype=np.int64), np.zeros((4, 1))), c, 1e-4
    ),
}


@pytest.mark.parametrize("defect", CLUSTER_DEFECTS)
@pytest.mark.parametrize("phase", CLUSTER_PHASES)
def test_a_malformed_cluster_state_is_a_value_error_naming_the_phase(phase, defect):
    ens, clusters = consensus_state()
    CLUSTER_PHASES[phase](ens, clusters)  # the well-formed state passes
    with pytest.raises(ValueError, match=f"^{phase}: "):
        CLUSTER_PHASES[phase](ens, CLUSTER_DEFECTS[defect](clusters))


def test_check_stall_accepts_the_clustered_baselines_state():
    # perfbench's replay of run_pcbo hands check_stall this state: the centres
    # stand in for leaders, so leader_of holds centre slots, not agent indices
    rng = np.random.default_rng(3)
    positions = rng.uniform(-3.0, 3.0, size=(40, 2))
    centres = rng.uniform(-3.0, 3.0, size=(4, 2))
    assignment = pcbo_assign(positions, centres)
    own_centre = ClusterState(
        leaders=np.arange(4),
        leader_of=assignment,
        cluster_of=assignment,
        agent_estimate=centres[assignment],
    )
    tracker = StallTracker(np.zeros(40, dtype=np.int64), centres[assignment].copy())
    tracker, stall = check_stall(tracker, own_centre, 1e-4)
    assert stall == 1


TRACKER_DEFECTS = {
    "short-counters": StallTracker(np.zeros(3, dtype=np.int64), np.zeros((4, 1))),
    "column-counters": StallTracker(np.zeros((4, 1), dtype=np.int64), np.zeros((4, 1))),
    "float-counters": StallTracker(np.zeros(4), np.zeros((4, 1))),
}


@pytest.mark.parametrize("tracker", TRACKER_DEFECTS.values(), ids=TRACKER_DEFECTS.keys())
def test_a_malformed_stall_tracker_is_a_value_error_naming_check_stall(tracker):
    _, clusters = consensus_state()
    with pytest.raises(ValueError, match="^check_stall: counters must hold 4 integers"):
        check_stall(tracker, clusters, 1e-4)


def test_flat_stall_estimates_are_a_value_error():
    # flat estimates on both sides pass the cluster-state check; the update
    # would then reduce every move to one scalar
    _, clusters = consensus_state()
    flat = dataclasses.replace(clusters, agent_estimate=clusters.agent_estimate.ravel())
    tracker = StallTracker(np.zeros(4, dtype=np.int64), np.zeros(4))
    with pytest.raises(ValueError, match=r"^check_stall: estimates must have shape \(n, d\)"):
        check_stall(tracker, flat, 1e-4)


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
        # the Rastrigin base function: one minimizer at the origin
        return float(ObjectiveSpec(Kind.RASTRIGIN, 1, [[0.0]]).evaluate_batch([[v]])[0])

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
        rng.standard_normal((2, 1))  # one noise row per agent, zeroed by sigma_f
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
        ("ackley2", r"interaction_step: agent 45 reached a non-finite position at step 257"),
        ("rastrigin2", r"objective: agent 31 has a non-finite objective value at step 265"),
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


# ------------------------------------------------------------ replica batches


@pytest.fixture
def clustering_passes(monkeypatch):
    """One entry per :func:`solver._clusters` call from here on."""
    calls = []
    clusters = solver._clusters

    def spy(*args):
        calls.append(None)
        return clusters(*args)

    monkeypatch.setattr(solver, "_clusters", spy)
    return calls


@pytest.fixture
def run_batch(assert_reports_identical):
    def run(objective, dim, cfg, n_agents, seeds) -> list[RunReport]:
        """The batch's reports, each checked against the standalone run of its seed."""
        spec = preset(objective, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _run_replicas(spec, cfg, n_agents, seeds)
        assert len(batch) == len(seeds)
        for seed, report in zip(seeds, batch, strict=True):
            assert_reports_identical(
                report, run_gkbo(spec, dataclasses.replace(cfg, seed=seed), n_agents)
            )
        return batch

    return run


@pytest.mark.parametrize(
    "objective, dim, cfg, n_agents, seeds",
    [
        ("rastrigin2", 2, SolverConfig(n_steps=150), 100, (0, 1, 2, 3)),
        ("ackley2", 2, SolverConfig(n_steps=120, diffusion="isotropic"), 60, (0, 1, 2)),
        ("rastrigin4", 6, SolverConfig(n_steps=60, n_leaders=20), 120, (4, 5)),
        ("rastrigin2", 1, SolverConfig(n_steps=0), 30, (0, 1, 2)),
    ],
)
def test_replicas_equal_their_standalone_runs(objective, dim, cfg, n_agents, seeds, run_batch):
    run_batch(objective, dim, cfg, n_agents, seeds)


def test_a_replica_that_stalls_early_is_frozen_while_the_others_run_on(
    clustering_passes, run_batch
):
    # the replicas stall at steps 115 to 287; seed 12 runs to the budget
    reports = run_batch("ackley2", 1, SolverConfig(n_steps=300, j_stall=20), 60, (0, 1, 2, 3, 12))
    assert [report.stalled for report in reports] == [True, True, True, True, False]
    iterations = [report.iterations for report in reports]
    assert len(set(iterations)) == 5
    # one clustering pass at the start and one per step: the batch takes
    # 300 + 1, plus one after each of the four drops that leave replicas
    # running, and each standalone run its own iterations + 1
    standalone = sum(count + 1 for count in iterations)
    assert len(clustering_passes) - standalone == max(iterations) + 1 + 4 == 305


STALL_BATCHES = {
    "gkbo": (_run_replicas, "ackley2", 1, SolverConfig(n_steps=300, j_stall=20), 60),
    "pcbo": (run_pcbo_replicas, "ackley2", 3, PcboConfig(n_steps=200, j_stall=15), 80),
}


@pytest.mark.parametrize("batch", STALL_BATCHES.values(), ids=STALL_BATCHES.keys())
def test_a_replicas_quiet_count_is_check_stalls_indicator(monkeypatch, batch):
    # beside the batch, every replica's estimates step a public per-agent
    # tracker from zero counters; its least counter is the replica's count
    run, objective, dim, cfg, n = batch
    trackers, counts = {}, []
    watch, end_step = solver._Replicas.watch, solver._Replicas.end_step
    own = ClusterState(
        leaders=np.zeros(1, dtype=np.intp),
        leader_of=np.zeros(n, dtype=np.intp),
        cluster_of=np.zeros(n, dtype=np.intp),
    )

    def spy_watch(self, estimates):
        watch(self, estimates)
        for replica, rows in zip(self.live, estimates.reshape(self.live.size, n, dim)):
            trackers[replica] = StallTracker(np.zeros(n, dtype=np.int64), rows)

    def spy_end_step(self, estimates):
        end_step(self, estimates)
        for replica, rows, quiet in zip(
            self.live, estimates.reshape(self.live.size, n, dim), self.quiet, strict=True
        ):
            state = dataclasses.replace(own, agent_estimate=rows)
            trackers[replica], stall = check_stall(trackers[replica], state, cfg.delta_stall)
            assert quiet == stall
            counts.append(stall)

    monkeypatch.setattr(solver._Replicas, "watch", spy_watch)
    monkeypatch.setattr(solver._Replicas, "end_step", spy_end_step)
    reports = run(preset(objective, dim), cfg, n, (0, 1, 2, 3, 4))
    stalled = [report.iterations for report in reports if report.stalled]
    assert len(set(stalled)) > 1
    assert 0 in counts and max(counts) == cfg.j_stall


def test_replicas_at_d10_that_stall_apart_keep_their_own_reports(run_batch):
    # ackley4 at d = 10: seed 5 stalls at step 68 and seed 6 at 87, so the
    # batch's objective calls shrink from 80 points to 60 and then 40
    # mid-run, and each report is still its standalone run's
    cfg = SolverConfig(n_steps=150, j_stall=5, delta_stall=0.5, n_leaders=2)
    reports = run_batch("ackley4", 10, cfg, 20, (0, 5, 6, 1))
    assert [(report.iterations, report.stalled) for report in reports] == [
        (150, False),
        (68, True),
        (87, True),
        (150, False),
    ]


def test_replicas_at_d10_are_screened_replica_by_replica(run_batch):
    # more than 4 leaders at d = 10 take the screened assignment
    reports = run_batch("ackley4", 10, SolverConfig(n_steps=60), 120, (0, 1, 2))
    assert all(report.leader_count * 10 > solver._DENSE_MAX_TERMS for report in reports)


@pytest.mark.parametrize("objective, dim", [("rastrigin4", 6), ("ackley4", 10)])
@pytest.mark.parametrize("n_leaders, counts", [(11, [11, 12, 11]), (12, [12, 12, 12])])
def test_a_replica_whose_every_agent_leads_shares_a_batch_with_ones_that_have_followers(
    objective, dim, n_leaders, counts, run_batch
):
    # One target leader short of the population, the last follower steps up
    # with probability eps each step and no leader can step down, so seed 2
    # leads with every agent within ten steps while seeds 16 and 17 keep one
    # follower; with every agent a target leader, all three do from the
    # start. A replica without followers has nothing to assign, and every
    # leader count here takes the screen.
    cfg = SolverConfig(n_steps=10, n_leaders=n_leaders)
    reports = run_batch(objective, dim, cfg, 12, (16, 2, 17))
    assert [report.leader_count for report in reports] == counts
    assert min(counts) * dim > solver._DENSE_MAX_TERMS and dim >= solver._SCREEN_MIN_DIM


def test_a_replica_whose_leader_set_empties_takes_the_safety_net(
    monkeypatch, clustering_passes, run_batch
):
    # one target leader: with probability eps a leader that is no longer its
    # cluster's best steps down while no follower steps up
    nets = []
    relabel = solver._relabel

    def spy(labels, omega, omega_bar, fire=None):
        if fire is None:
            nets.append(labels.size)
        return relabel(labels, omega, omega_bar, fire)

    monkeypatch.setattr(solver, "_relabel", spy)
    for n_agents, eps, seeds, recoveries in [
        (10, 0.3, (2, 3, 4, 5), 4),  # seeds 2 and 5 lose every leader once, seed 4 twice
        (6, 0.5, (0, 1, 2, 3), 1),  # seed 2 loses every leader once
    ]:
        nets.clear()
        clustering_passes.clear()
        cfg = SolverConfig(n_steps=60, n_leaders=1, eps=eps)
        run_batch("rastrigin2", 2, cfg, n_agents, seeds)
        # the net decides from the labels, so a step that takes it still
        # clusters once: 61 passes in the batch and in each standalone run
        assert len(clustering_passes) == (cfg.n_steps + 1) * (1 + len(seeds))
        # every run's start takes the same pass: once over the whole batch,
        # each replica its own cluster, and once alone per seed; beyond those
        # the net fired on one replica's rows at a time, as often in the
        # batch as in the standalone runs
        assert nets.count(len(seeds) * n_agents) == 1
        assert nets.count(n_agents) == len(seeds) + 2 * recoveries == len(nets) - 1


@pytest.mark.parametrize("run, config", [(run_gkbo, SolverConfig), (run_pcbo, PcboConfig)])
@pytest.mark.parametrize("size", [7.9, 0, -1, True, None])
def test_the_population_size_is_checked_before_the_config(run, config, size):
    # n_steps=-1 would fail the config check, so the size is checked first
    with pytest.raises(ValueError, match="^population size must be an integer of at least 1"):
        run(preset("rastrigin2", 2), config(n_steps=-1), size)
    if size is not None:  # a config checked without a population
        with pytest.raises(ValueError, match="^population size"):
            config(n_steps=-1).validate(size)


@pytest.mark.parametrize("run, config", [(run_gkbo, SolverConfig), (run_pcbo, PcboConfig)])
def test_a_start_that_fails_names_the_objective(run, config):
    # a box this wide overflows the objective on every agent before any step
    with pytest.raises(
        NumericError, match="^objective: agent 0 has a non-finite objective value$"
    ):
        run(preset("rastrigin2", 2), config(init_lo=-1e300, init_hi=1e300), 60)
