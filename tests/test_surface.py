import importlib
import pkgutil
from collections import Counter

import gkbo

#: The package's public names; a change here is a change of the public surface.
SURFACE = [
    "BASE_MINIMUM",
    "CSV_HEADER",
    "ClusterState",
    "DiffusionMode",
    "EmptyLeaderSetError",
    "Ensemble",
    "ExperimentConfig",
    "ExperimentSummary",
    "Kind",
    "NumericError",
    "ObjectiveSpec",
    "PRESET_NAMES",
    "PcboConfig",
    "RunReport",
    "SUCCESS_THRESHOLD",
    "SolverConfig",
    "StallTracker",
    "SweepResult",
    "__version__",
    "apply_label_transitions",
    "assign_clusters",
    "check_stall",
    "cluster_consensus",
    "cluster_weights",
    "compute_weights",
    "deterministic_label_pass",
    "evaluate_success",
    "init_uniform",
    "interaction_step",
    "pcbo_assign",
    "pcbo_step",
    "preset",
    "run_experiment",
    "run_gkbo",
    "run_pcbo",
    "write_results",
]


def module_lists():
    """Every gkbo module's own ``__all__``, by module name."""
    lists = {}
    for info in pkgutil.iter_modules(gkbo.__path__):
        module = importlib.import_module(f"gkbo.{info.name}")
        if hasattr(module, "__all__"):
            lists[info.name] = module.__all__
    return lists


def test_the_public_surface_is_pinned():
    assert sorted(gkbo.__all__) == SURFACE


def test_no_public_name_is_listed_twice():
    assert [name for name, count in Counter(gkbo.__all__).items() if count > 1] == []


def test_every_public_name_resolves():
    namespace = {}
    exec("from gkbo import *", namespace)
    for name in gkbo.__all__:
        assert namespace[name] is getattr(gkbo, name)


def test_every_public_name_is_declared_by_exactly_one_module():
    lists = module_lists()
    assert {"bench", "ensemble", "errors", "objectives", "pcbo", "solver"} <= lists.keys()
    for name in gkbo.__all__:
        if name == "__version__":
            continue
        owners = [module for module, names in lists.items() if name in names]
        assert len(owners) == 1, (name, owners)
        assert getattr(gkbo, name) is getattr(importlib.import_module(f"gkbo.{owners[0]}"), name)


def test_every_name_a_module_declares_exists():
    for module, names in module_lists().items():
        loaded = importlib.import_module(f"gkbo.{module}")
        assert [name for name in names if not hasattr(loaded, name)] == [], module
