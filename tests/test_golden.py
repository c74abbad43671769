"""Bit-identity guard: seeded solver reports pinned by SHA-256.

Each case is a short seeded run; its digest covers every report field a
refactor of the step loop could disturb. A digest may change only together
with a stated change of the random stream or the arithmetic, recorded in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from gkbo import PcboConfig, SolverConfig, preset, run_gkbo, run_pcbo

CASES = {
    "gkbo-rastrigin2-d2-anisotropic": (
        lambda: run_gkbo(preset("rastrigin2", 2), SolverConfig(n_steps=200, seed=3), 300),
        "5773fe701c70c966b217dc29dab0b7f8bc8f56a2dca3b19d88e4291af0fc8777",
    ),
    "gkbo-ackley4-d10-anisotropic": (
        lambda: run_gkbo(preset("ackley4", 10), SolverConfig(n_steps=80, seed=1), 200),
        "043896012c7852b90907f5cb1e908e6610ee800a27f0810dd09bf4ab4273ea1d",
    ),
    "gkbo-ackley2-d2-isotropic": (
        lambda: run_gkbo(
            preset("ackley2", 2), SolverConfig(diffusion="isotropic", n_steps=150, seed=2), 200
        ),
        "9eb44c88997ee2d056d2041278e4137f96d460af266688b91a6d146271a0fde5",
    ),
    # d <= 2: per-axis sums and any other order of the two squares agree
    "pcbo-ackley2-d2": (
        lambda: run_pcbo(preset("ackley2", 2), PcboConfig(n_steps=200, seed=8), 200),
        "ff01bc8ab9987a9f4df24b24ad387572872dcab7a9c7c10772140f75dcdfc318",
    ),
    "pcbo-ackley2-d3": (
        lambda: run_pcbo(preset("ackley2", 3), PcboConfig(n_steps=200, seed=4), 200),
        "f24a16845d0efca673b9a337139687d97fdd460b327d49db1feeb5693be181d4",
    ),
    "pcbo-rastrigin2-d5": (
        lambda: run_pcbo(preset("rastrigin2", 5), PcboConfig(n_steps=200, seed=5), 200),
        "9c6242912e4eeae10f0cbf1ac580232b69fd164abd1013502ee0886eb7f17516",
    ),
    # four planted minimizers at d >= 4: the screened objective and, for
    # gkbo, the screened nearest-leader assignment
    "gkbo-rastrigin4-d6": (
        lambda: run_gkbo(preset("rastrigin4", 6), SolverConfig(n_steps=120, seed=6), 200),
        "a661d1e5ad53b73a65157c551fb1115f25c092d58e0bebdaaa73d469d72d4672",
    ),
    "pcbo-ackley4-d4": (
        lambda: run_pcbo(preset("ackley4", 4), PcboConfig(n_steps=200, seed=7), 200),
        "7ffe5907a843f40dfbc59f5f8fea7f221047990a06129bdfdfe7889a1b1b7e57",
    ),
    # d >= 8: each coordinate sum is a left-to-right fold; numpy's pairwise
    # row sums, which the objective kept up to 0bc3348, give other digests
    "gkbo-rastrigin4-d8": (
        lambda: run_gkbo(preset("rastrigin4", 8), SolverConfig(n_steps=120, seed=6), 200),
        "9ff5d8e8ee71f4f5b16f7f09e733ee0e4270709b4b4a57f5c3767f34d45a182e",
    ),
    "pcbo-ackley4-d10": (
        lambda: run_pcbo(preset("ackley4", 10), PcboConfig(n_steps=200, seed=7), 200),
        "0c05a39335a13b6a9adb145c9de249f0f92514ec772380083f676fb10b6ca0f4",
    ),
    # 2 and 8 centres, recorded when up to 8 centres took a row-per-centre
    # subtract: the difference products must sum to the same distances
    "pcbo-ackley2-d1-2-clusters": (
        lambda: run_pcbo(
            preset("ackley2", 1), PcboConfig(n_clusters=2, n_steps=200, seed=9), 200
        ),
        "3e4421b38c33ee9122169153dfda9c1e91209047d90fa8ebe70ceddf00fd86ce",
    ),
    "pcbo-ackley2-d3-2-clusters": (
        lambda: run_pcbo(
            preset("ackley2", 3), PcboConfig(n_clusters=2, n_steps=200, seed=10), 200
        ),
        "e4de9720b78d16801ae91f6745dd9b640f88c057dd924df4890b3b9e9e8b3435",
    ),
    "pcbo-ackley2-d1-8-clusters": (
        lambda: run_pcbo(
            preset("ackley2", 1), PcboConfig(n_clusters=8, n_steps=200, seed=11), 200
        ),
        "283343801e6be3e552c40f929a4b4c27e3227ea83a5af48962823487a356da7d",
    ),
    "pcbo-ackley2-d3-8-clusters": (
        lambda: run_pcbo(
            preset("ackley2", 3), PcboConfig(n_clusters=8, n_steps=200, seed=12), 200
        ),
        "8b9924af0dd7003b33ebc94d974e6be8f836084c4be4220ac9dffe3434d707b2",
    ),
}


def report_digest(report) -> str:
    """SHA-256 over iterations, best_value, leader_count, evaluations and final_consensus."""
    points = np.ascontiguousarray(report.final_consensus, dtype="<f8")
    digest = hashlib.sha256()
    digest.update(
        np.array(
            [report.iterations, report.leader_count, report.evaluations, *points.shape],
            dtype="<i8",
        ).tobytes()
    )
    digest.update(np.array([report.best_value], dtype="<f8").tobytes())
    digest.update(points.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_report_is_bit_identical(name):
    run, expected = CASES[name]
    assert report_digest(run()) == expected
