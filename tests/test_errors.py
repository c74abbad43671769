import numpy as np
import pytest

from gkbo import (
    ExperimentConfig,
    Kind,
    ObjectiveSpec,
    PcboConfig,
    SolverConfig,
    init_uniform,
    preset,
    run_experiment,
    run_gkbo,
    run_pcbo,
)

# Each entry takes a count or a dimension; int() would read both values
# below as 1, a valid value for every one of them.
ENTRIES = {
    "init_uniform-n_agents": lambda v: init_uniform(v, 2, -1.0, 1.0, np.random.default_rng(0)),
    "init_uniform-dim": lambda v: init_uniform(6, v, -1.0, 1.0, np.random.default_rng(0)),
    "preset": lambda v: preset("ackley2", v),
    "ObjectiveSpec": lambda v: ObjectiveSpec(Kind.ACKLEY, v, [[0.0]]),
    "run_gkbo": lambda v: run_gkbo(preset("rastrigin2", 1), SolverConfig(n_leaders=1), v),
    "run_pcbo": lambda v: run_pcbo(preset("rastrigin2", 1), PcboConfig(n_clusters=1), v),
    "run_experiment-workers": lambda v: run_experiment(
        ExperimentConfig(
            dim=1, n_agents=4, repetitions=1, solver_config=SolverConfig(n_leaders=1, n_steps=0)
        ),
        workers=v,
    ),
    "SolverConfig-n_leaders": lambda v: SolverConfig(n_leaders=v).validate(),
    "PcboConfig-n_clusters": lambda v: PcboConfig(n_clusters=v).validate(),
    "ExperimentConfig-dim": lambda v: ExperimentConfig(dim=v).validate(),
}


@pytest.mark.parametrize("value", [True, 1.9], ids=["bool", "fraction"])
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_a_count_or_dimension_must_be_an_integer(entry, value):
    with pytest.raises(ValueError, match="must be an integer"):
        entry(value)
