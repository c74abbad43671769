"""Run one benchmark workload; print every metric by name with its unit.

    python3 perfbench/run.py --workload gkbo-rastrigin2 --seed 0 --seconds 30 --trace 0

Run it from the repository root. ``--trace 0`` times the untraced
``run_experiment`` + ``write_results`` path and prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run. The library is
imported from ``src/`` beside this directory and nowhere else. Every report is
checked; the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit status is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    """Import gkbo from ``src/`` of this checkout, or exit non-zero."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import gkbo
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gkbo from {SRC}: {exc}")
    if not Path(gkbo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: gkbo was imported from {gkbo.__file__}, not from {SRC}")
    return gkbo


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this seed's block-0 digest in golden.json (untraced runs only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    gkbo = _import_library()
    import numpy as np

    from perfbench.checks import golden_status, record_golden
    from perfbench.measure import measure_end_to_end, measure_setup
    from perfbench.workloads import WORKLOADS

    args = _parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    workers = os.cpu_count() or 1
    solver_cfg = workload.experiment(args.seed, 0).solver_config
    centres = "n_leaders" if workload.solver == "gkbo" else "n_clusters"
    env = {
        "workload": workload.name,
        "n": workload.n_agents,
        "d": list(workload.dims),
        centres: getattr(solver_cfg, centres),
        "n_steps": solver_cfg.n_steps,
        "workers": workers,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "gkbo": gkbo.__version__,
        "seed": args.seed,
        "base_seed": workload.base_seed(args.seed, 0),
        "trace": args.trace,
    }

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            # Imported only here: an API refactor may break the trace, never the gate.
            from perfbench.traced import measure_layers

            out = measure_layers(workload, args.seed, Path(workdir), workers)
        else:
            out = measure_end_to_end(workload, args.seed, args.seconds, Path(workdir), workers)
            out.metric("setup_s", measure_setup(workload, args.seed, args.seconds, ROOT), "s")

    digest = out.notes.pop("golden_digest", None)
    if digest is not None:
        if args.record_golden:
            record_golden(workload.name, args.seed, digest)
        out.notes["golden"] = f"{golden_status(workload.name, args.seed, digest)} ({digest[:16]})"
    if not args.trace and out.attempted:
        out.notes["failed_frac"] = out.failed / out.attempted

    print("env", json.dumps(env))
    for name, value in out.notes.items():
        print(f"{name:34s} {value}")
    for name, metric in out.metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    for problem in out.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if out.correct and out.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
