"""viewsched benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {train,loop,plan,batched} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics. With `--trace 1` every traced function is wrapped for the
run and the last line holds the per-layer metrics instead, with the tracing
overhead: the wrapper's cost per call, measured on a no-op, times the number
of spans, as a share of the untraced time. Compare the traced run's
`end_to_end` figures with an untraced run for the overhead end to end. The
lines before the last describe the run: environment, output digests, and the
figures each metric stands for under their own names (train_s, loop_ds,
sched_t11_ms_p99, ...).
"""

import os

# BLAS and OpenMP must be pinned before NumPy is imported
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def _import_package():
    """Import viewsched from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "viewsched" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'viewsched'} not found; run from a viewsched checkout")
    sys.path.insert(0, str(SRC))
    import viewsched

    if Path(viewsched.__file__).resolve().parent != SRC / "viewsched":
        raise SystemExit(f"error: viewsched imported from {viewsched.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_omp_threads": {var: os.environ[var] for var in _THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    import workloads
    from tracing import Tracer, span_cost_s

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    if wl.warmup is not None:
        wl.warmup(state)

    tracer = Tracer()
    if args.trace:
        workloads.install(tracer)
    try:
        out = wl.run(state, args.seconds)
    finally:
        tracer.restore()
    end_to_end = out.end_to_end()
    end_to_end["setup_s"] = statistics.median(setup_times)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        added_s = len(tracer.span_start) * span_cost_s()
        overhead_pct = 100.0 * added_s / max(out.busy_s - added_s, 1e-9)
        metrics = workloads.per_layer(tracer, overhead_pct)
        units = {name: unit for name, (unit, _, _) in workloads.PER_LAYER.items()}
    else:
        metrics = end_to_end
        units = {name: unit for name, (unit, _, _) in workloads.END_TO_END.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "setup_runs_s": setup_times,
        "op_samples": len(out.op_ms),
        "digest_sha256": out.digest,
        "end_to_end": end_to_end,
        "report": {name: {"value": v, "unit": u} for name, (v, u) in out.report.items()},
    }
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in sorted(out.report.items()):
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
