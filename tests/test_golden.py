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
        "d72bbcbd9fb70f4ed72b8ba63c7e4961cf02160447ca7c8e1b264f0f7dec2fd2",
    ),
    "gkbo-ackley4-d10-anisotropic": (
        lambda: run_gkbo(preset("ackley4", 10), SolverConfig(n_steps=80, seed=1), 200),
        "9c14eeb8d41fc4551688157b594ea298bb3ce8ab7395848b85436b9ef9b387d4",
    ),
    "gkbo-ackley2-d2-isotropic": (
        lambda: run_gkbo(
            preset("ackley2", 2), SolverConfig(diffusion="isotropic", n_steps=150, seed=2), 200
        ),
        "8086af886b9f8acde50609c8957f70d423962f0bbf8daa8173cf77c5a7be359c",
    ),
    # d <= 2: per-axis sums and any other order of the two squares agree
    "pcbo-ackley2-d2": (
        lambda: run_pcbo(preset("ackley2", 2), PcboConfig(n_steps=200, seed=8), 200),
        "bec37ce6e41c97919e0dd56490b6dc4c71bb01a78adae76b92d700f7859ab5dd",
    ),
    "pcbo-ackley2-d3": (
        lambda: run_pcbo(preset("ackley2", 3), PcboConfig(n_steps=200, seed=4), 200),
        "da632645379d3e7bae15530ba320dee353fb031f69cf5a9a99342e2250d14048",
    ),
    "pcbo-rastrigin2-d5": (
        lambda: run_pcbo(preset("rastrigin2", 5), PcboConfig(n_steps=200, seed=5), 200),
        "32b1deb47347602da9b35a7b52835590408e2a9bf4bb6bdac9ab3c50dd967d9c",
    ),
    # four planted minimizers at d >= 4: the screened objective and, for
    # gkbo, the screened nearest-leader assignment
    "gkbo-rastrigin4-d6": (
        lambda: run_gkbo(preset("rastrigin4", 6), SolverConfig(n_steps=120, seed=6), 200),
        "fcc6daf170c6fe3d3ad1b8a935577844d247130fad07813f3ebd6a3e1292d968",
    ),
    "pcbo-ackley4-d4": (
        lambda: run_pcbo(preset("ackley4", 4), PcboConfig(n_steps=200, seed=7), 200),
        "acf207d3a858a922453b6caebbc090f6599b927c1a748c28195e288562e24260",
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
        "f8dae80eba097747e40de8a2d1dad048eae56dd9984e488188ead0ea255d0a53",
    ),
    "pcbo-ackley2-d1-8-clusters": (
        lambda: run_pcbo(
            preset("ackley2", 1), PcboConfig(n_clusters=8, n_steps=200, seed=11), 200
        ),
        "cec13c5b6a1ca4378feab3abacc33138ed4b16f64ca7917accc8b093fecd31b5",
    ),
    "pcbo-ackley2-d3-8-clusters": (
        lambda: run_pcbo(
            preset("ackley2", 3), PcboConfig(n_clusters=8, n_steps=200, seed=12), 200
        ),
        "694d6c75605208c4e506674a4e7478e26716a268279bc0a2f3538ea5e6c39b59",
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
