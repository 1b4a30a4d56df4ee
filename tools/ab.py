"""Interleaved A/B timing of two fpds source trees in one process.

    python3 tools/ab.py --base ../parent/src/fpds --workload sweep-ex41 --requests 600

Loads the fpds package at --base (A) and this checkout's src/fpds (B) as
two distinctly named packages, which works because fpds imports only
relatively, and loads the benchmark's workload modules (bench/workloads.py
with its checks and spans) once per tree, bound to that tree's package.
Each request of the workload is generated on both trees from the seed the
benchmark's reference outputs are stored for (bench/checks.py's
DEFAULT_SEED) and run on both, in a random order per request, each run
timed on its own; both outputs then go through the workload's own checks.
The last line of standard output is one JSON object: the median of the
per-request time ratios B/A with a bootstrap 95% interval, the median
request times, the largest difference between the two trees' outputs
(relative to max(1, |A's value|), over the whole trajectory where the
request has one and the workload's reference record), whether the outputs
agree bitwise, any check failures, and the environment. The exit code is 0
only if every request ran and passed its checks on both trees.

Use it for a speed claim in seconds instead of minutes: a ratio measured
within one process is free of the drift between separate runs on a shared
machine. It does not measure set-up, memory or the tail of the latency
distribution; the 35 s runs of bench/run.py do.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
# the benchmark's modules that bind the name fpds, loaded once per tree
BENCH_MODULES = ("spans", "checks", "workloads")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP = 2              # untimed requests per tree before the timed ones
RESAMPLES = 2000        # bootstrap resamples of the ratio's median

if __name__ == "__main__":
    # one BLAS thread, as bench/run.py pins it, set before numpy loads
    for var in BLAS_VARS:
        os.environ[var] = "1"

import numpy as np  # noqa: E402


def load_tree(src: Path, name: str):
    """The fpds package in directory src, imported afresh under the name
    `name`, with its submodules as `name`.<module>."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    if spec is None:
        raise ImportError(f"no package at {src}")
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def load_workloads(pkg):
    """bench/workloads.py and the modules it imports, bound to pkg as fpds;
    returns (workloads, spans). Whatever those names meant in sys.modules
    before is restored afterwards."""
    names = ("fpds", *BENCH_MODULES)
    saved = {k: sys.modules.pop(k) for k in names if k in sys.modules}
    sys.modules["fpds"] = pkg
    sys.path.insert(0, str(BENCH_DIR))
    try:
        workloads = importlib.import_module("workloads")
        spans = sys.modules["spans"]
    finally:
        sys.path.remove(str(BENCH_DIR))
        for k in names:
            sys.modules.pop(k, None)
        sys.modules.update(saved)
    return workloads, spans


def _numbers(obj) -> np.ndarray:
    """Every number in a nest of dicts, lists, tuples and arrays, flattened
    in a fixed order."""
    if isinstance(obj, dict):
        parts = [_numbers(obj[k]) for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        parts = [_numbers(v) for v in obj]
    else:
        return np.asarray(obj, dtype=float).ravel()
    return np.concatenate(parts) if parts else np.empty(0)


def outputs(wl, inp: dict, out: dict) -> np.ndarray:
    """The numbers compared between trees: the whole trajectory where the
    request has one, then the workload's reference record."""
    traj = out.get("traj")
    states = traj.states.ravel() if traj is not None else np.empty(0)
    return np.concatenate([states, _numbers(wl.record(inp, out))])


def difference(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |a - b| / max(1, |a|), 0 where both are equal or NaN, inf
    if the shapes differ."""
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(1.0, np.abs(a))
    rel = np.where(same, 0.0, np.nan_to_num(rel, nan=math.inf))
    return float(rel.max(initial=0.0))


def bootstrap(ratios: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """The 2.5 and 97.5 percentiles of the median over resamples of ratios."""
    idx = rng.integers(0, ratios.size, (RESAMPLES, ratios.size))
    lo, hi = np.percentile(np.median(ratios[idx], axis=1), [2.5, 97.5])
    return float(lo), float(hi)


def environment() -> dict:
    import mpmath
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count()),
            "machine": platform.machine()}


def compare(base: Path, change: Path, workload: str, requests: int) -> dict:
    """Run `requests` requests of `workload` on both trees, interleaved in a
    random order per request, and return the summary that `main` prints."""
    sides = {}
    for side, src in (("base", base), ("change", change)):
        pkg = load_tree(Path(src).resolve(), f"fpds_ab_{side}")
        workloads, spans = load_workloads(pkg)
        if workload not in workloads.WORKLOADS:
            raise ValueError(f"no workload {workload!r}: one of {', '.join(workloads.WORKLOADS)}")
        seed = workloads.checks.DEFAULT_SEED
        wl = workloads.WORKLOADS[workload](seed)
        wl.setup()
        sides[side] = (wl, spans.NullTracer())
    failures = []
    for r in range(min(WARMUP, requests)):
        for wl, tracer in sides.values():
            wl.run(wl.make_request(r), tracer)

    rng = np.random.default_rng([seed, requests])
    times = {side: [] for side in sides}
    diff, equal = 0.0, True
    for r in range(requests):
        runs = {}
        for side in rng.permutation(list(sides)):
            wl, tracer = sides[side]
            inp = wl.make_request(r)
            t0 = time.perf_counter()
            try:
                out = wl.run(inp, tracer)
            except Exception:
                out = None
                failures.append(f"{side} request {r} ({inp['label']}): {traceback.format_exc()}")
            times[side].append(time.perf_counter() - t0)
            runs[side] = (wl, inp, out)
        if any(out is None for _, _, out in runs.values()):
            equal = False
            continue
        for side, (wl, inp, out) in runs.items():
            failures += [f"{side} request {r} ({inp['label']}): {p}"
                         for p in wl.check(r, inp, out)]
        a, b = (outputs(*runs[side]) for side in sides)
        diff = max(diff, difference(a, b))
        equal = equal and a.shape == b.shape and a.tobytes() == b.tobytes()

    ratios = np.array(times["change"]) / np.array(times["base"])
    lo, hi = bootstrap(ratios, rng)
    return {
        "workload": workload, "seed": seed, "requests": requests,
        "base": str(Path(base).resolve()), "change": str(Path(change).resolve()),
        "ratio_median": float(np.median(ratios)), "ratio_ci95": [lo, hi],
        "time_median_s": {side: statistics.median(t) for side, t in times.items()},
        "max_output_diff": diff, "outputs_bitwise_equal": equal,
        "failures": failures, "environment": environment(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, type=Path, help="the A tree's src/fpds directory")
    p.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    p.add_argument("--requests", type=int, required=True)
    args = p.parse_args(argv)
    if args.requests < 1:
        p.error("--requests must be positive")
    result = compare(args.base, ROOT / "src" / "fpds", args.workload, args.requests)
    for f in result["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    lo, hi = result["ratio_ci95"]
    print(f"# {args.workload}: time B/A median {result['ratio_median']:.4f} "
          f"[{lo:.4f}, {hi:.4f}] over {args.requests} requests; "
          f"largest output difference {result['max_output_diff']:.3g}")
    print(json.dumps(result))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
