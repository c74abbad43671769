"""The benchmark's workloads: seeded Monte Carlo experiments of the gkbo harness.

Each workload is a family of ``ExperimentConfig`` blocks with 600 agents. A
run with seed ``s`` executes blocks ``0, 1, ...``; block ``k`` starts its
repetitions at base seed ``s * SEED_STRIDE + k * repetitions``, so the same
seed always gives the same experiments and no two blocks share a run seed.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from gkbo import ExperimentConfig

SEED_STRIDE = 100_000

#: Step cap of every gkbo run. Under the default budget of 10000 steps one
#: seed runs 1400 steps and the next 4400, and the cost of a step grows with
#: the leader count, so run times differ fivefold between seeds. Below the
#: 1000-step stall window every run takes exactly this many steps, and runs
#: short enough that a block of 12-24 of them averages the seeds out; the
#: leader set has still grown from 12 to about 100. pcbo keeps its default
#: budget: it stalls after about 1020 steps.
GKBO_STEPS = 500

N_AGENTS = 600


def solver_overrides(solver: str) -> dict:
    """``solver_config`` fields every benchmark run of ``solver`` sets."""
    return {"n_steps": GKBO_STEPS} if solver == "gkbo" else {}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``dims`` holds one dimension, or several for a dimension sweep.
    ``block_seconds`` is the nominal wall time of one block on two CPUs; a
    run of ``seconds`` executes ``round(seconds / block_seconds)`` blocks, a
    count fixed by the arguments alone so that the scored reports are too.
    The traced run replays the first ``trace_reps`` seeds of block 0 at every
    dimension.
    """

    name: str
    why: str
    objective: str
    solver: str
    dims: tuple
    repetitions: int
    block_seconds: float
    trace_reps: int
    n_agents: int = N_AGENTS

    def base_seed(self, seed: int, block: int) -> int:
        return int(seed) * SEED_STRIDE + int(block) * self.repetitions

    def blocks(self, seconds: float) -> int:
        return max(1, round(float(seconds) / self.block_seconds))

    def experiment(self, seed: int, block: int) -> ExperimentConfig:
        data = {
            "objective": self.objective,
            "dim": self.dims[0],
            "solver": self.solver,
            "n_agents": self.n_agents,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed(seed, block),
            "solver_config": solver_overrides(self.solver),
        }
        if len(self.dims) > 1:
            data["sweep"] = "dimension"
            data["sweep_values"] = list(self.dims)
        cfg = ExperimentConfig.from_dict(data)
        cfg.validate()
        return cfg

    def companion(self, seed: int) -> ExperimentConfig:
        """The other solver on this objective, for the traced run.

        Every per-layer metric then has samples on every workload; on this
        workload the companion's layers are the ones that should not move.
        """
        other = "pcbo" if self.solver == "gkbo" else "gkbo"
        cfg = ExperimentConfig.from_dict(
            {
                "objective": self.objective,
                "dim": self.dims[0],
                "solver": other,
                "n_agents": self.n_agents,
                "repetitions": 1,
                "base_seed": self.base_seed(seed, 0),
                "solver_config": solver_overrides(other),
            }
        )
        cfg.validate()
        return cfg


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="gkbo-rastrigin2",
            why="default gkbo run on rastrigin2 d=2; the leader set grows from 12 to ~100, "
            "so nearest-leader assignment is the largest phase",
            objective="rastrigin2",
            solver="gkbo",
            dims=(2,),
            repetitions=24,
            block_seconds=7.0,
            trace_reps=2,
        ),
        Workload(
            name="gkbo-ackley4-d10",
            why="gkbo on ackley4 d=10; fewer leaders and a 4x costlier objective, so "
            "per-axis and objective costs show",
            objective="ackley4",
            solver="gkbo",
            dims=(10,),
            repetitions=12,
            block_seconds=8.0,
            trace_reps=2,
        ),
        Workload(
            name="pcbo-ackley2-dims",
            why="pcbo at the compare point on ackley2, d=1..5; 4 centres, so pool, "
            "scoring and per-call overhead dominate and assignment is nearly free",
            objective="ackley2",
            solver="pcbo",
            dims=(1, 2, 3, 4, 5),
            repetitions=4,
            block_seconds=5.0,
            trace_reps=1,
        ),
    )
}
