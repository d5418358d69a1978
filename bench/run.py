#!/usr/bin/env python3
"""Benchmark of the cfglmm library, run from the root of a source checkout.

    python3 bench/run.py --workload fit_poisson_5k --seed 1 --seconds 30 --trace 0

Workloads: fit_poisson_5k, predict_grid (see workloads.py).
``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs the
same trials traced and reports the per-layer metrics (medians over trials),
the tracing overhead and the per-scale breakdown, and writes every span to
``bench/out/``.

The package is imported from ``src/`` of the checkout; nothing is installed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: environment, per-trial quality and check failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("fit_poisson_5k", "predict_grid")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True, help="base seed; trial i uses trial_seed(seed, i)")
    ap.add_argument("--seconds", type=float, required=True, help="measurement budget of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs")
    return ap.parse_args(argv)


def blas_threads() -> int:
    """Thread count reported by the OpenBLAS that numpy loaded, or -1."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfglmm" / "__init__.py").is_file():
        print(f"error: no cfglmm package under {SRC.relative_to(ROOT)}/ of this checkout", file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads OpenBLAS. On a shared host,
    # threads that wait on each other time the scheduler: with two threads on
    # two cores, repeated predicts of one model varied by 25%, with one by 3%.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cfglmm

    if Path(cfglmm.__file__).resolve().parent != SRC / "cfglmm":
        print(f"error: imported cfglmm from {cfglmm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    warnings.simplefilter("ignore")  # expected: empty bands, far-site CoV overflow (counted)
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size, "env": environment()}
    if args.trace:
        run, metrics = workloads.run_traced(args.workload, args.size, args.seed, args.seconds, OUT_DIR)
        spans_path = OUT_DIR / f"spans_{args.workload}_{args.seed}.json"
        spans_path.write_text(json.dumps({**detail, "metrics": metrics, "trials": run.spans}))
        detail["scales"] = [{"seed": t["seed"], "scales": t["scales"]} for t in run.spans]
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        run = workloads.run_workload(args.workload, args.size, args.seed, args.seconds, False, OUT_DIR)
        metrics = run.end_to_end()
        detail["samples"] = {k: len(v) for k, v in run.samples.items()}
        detail["samples"]["models_predicted"] = len(run.passes)
        detail["samples"]["passes"] = sum(len(ps) for ps in run.passes.values())
        detail["samples"]["predict_batches"] = sum(len(p.batches) for ps in run.passes.values() for p in ps)
    detail["trials"] = run.trials
    detail["failures"] = run.failures
    units = load_units(args.trace)
    print(json.dumps(detail))
    print(json.dumps(allow_nan=False, obj={
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


def load_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
