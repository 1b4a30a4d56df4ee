"""fpds benchmark: one closed-loop client, one request at a time.

    python3 bench/run.py --workload sweep-ex41 --seed 1 --seconds 35 --trace 0

Run from the repository root. The benchmark imports fpds from ./src, builds
the workload's inputs from --seed, warms up, then sends requests through the
public fpds API for --seconds seconds, checking every request outside the
timed region. It then checks the outputs of the default seed against the
stored reference outputs and, for sweep-ex41, the per-sample lines of
`fpds sweep` itself.

--trace 0 prints the end-to-end metrics; --trace 1 traces half the time with
spans around each call into fpds, replays the same requests untraced in a
child process to measure the tracing overhead, writes the spans to
.bench_out/ and prints the per-layer metrics. The last line of standard
output is one JSON object; the exit code is 0 only if every check passed.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5       # set-up samples per run: this process plus four children
CHILD_TIMEOUT_S = 170
CLI_SAMPLES = 3         # `fpds sweep --samples 3`: lower, upper, random[seed]
# One BLAS/OpenMP thread: one client on small matrices, and no thread-pool
# start-up or contention on a shared machine (on a 2-CPU x86_64 machine the
# first eigvals call cost 0.6 s with the default pool, 5 ms with one thread).
BLAS_THREADS = "1"
# the names of workloads.WORKLOADS, needed before fpds can be imported
WORKLOAD_NAMES = ("sweep-ex41", "envelope-long", "certify-solve")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result: fpds is missing or not from
    ./src, or a child process failed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int,
                   help="run exactly this many requests instead of --seconds")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.requests is not None and args.requests < 1):
        p.error("--seed must be >= 0, --seconds and --requests positive")
    return args


def import_fpds():
    """Put ./src and the benchmark on the path, pin BLAS threads, and import
    fpds, refusing a copy that does not come from this checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import fpds
    except ImportError as exc:
        raise BenchmarkError(f"cannot import fpds from {src}: {exc}") from exc
    if src.resolve() not in Path(fpds.__file__).resolve().parents:
        raise BenchmarkError(f"fpds imported from {fpds.__file__}, not from {src}")


def warm_up() -> None:
    """First calls that pay one-off costs: LAPACK paths, JSON parsing, the
    integrator, and each Mittag-Leffler region (alpha 0.5 is used by no
    workload, so no measured argument is cached). The extended band is
    warmed at every u from 6 to 37, which covers each working precision it
    uses, so mpmath's per-precision set-up is not paid by the first
    requests."""
    import numpy as np
    import fpds
    from workloads import random_network_document
    spec = fpds.load_spec(random_network_document(np.random.default_rng(0), 8))
    w = fpds.find_weights(spec)
    fpds.picard_solve(spec, fpds.sample_realization(spec, "lower"), w)
    ex = fpds.builtin_scenario("example-4.2")
    z0 = fpds.StateVector(x=ex.box1.midpoint(), y=ex.box2.midpoint())
    fpds.integrate(ex, fpds.sample_realization(ex, "lower"), z0, 1.0, 20)
    for u in (1.0, *range(6, 38), 50.0):
        fpds.mittag_leffler(0.5, 1.0, -u ** 0.5)


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine()}


def tail_latency(latencies: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least 10 samples beyond it
    (nearest rank); returns (value, percentile, samples beyond). With 10 or
    fewer samples no percentile qualifies and the maximum is returned."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n - rank


def run_requests(wl, tracer, seconds: float, count: int | None):
    """The closed loop: generate, time, then check one request at a time.
    Stops after `count` requests, or once `seconds` of wall time have passed."""
    latencies, failures, work, outputs = [], [], {}, {}
    failed = 0
    wall0 = time.perf_counter()
    r = 0
    while (r < count) if count is not None else (time.perf_counter() - wall0 < seconds):
        inp = wl.make_request(r)
        tracer.request_id = r
        t0 = time.perf_counter()
        try:
            with tracer.span("request"):
                out = wl.run(inp, tracer)
        except Exception:
            latencies.append(time.perf_counter() - t0)
            failures.append(f"request {r} ({inp['label']}): {traceback.format_exc()}")
            failed += 1
            r += 1
            continue
        latencies.append(time.perf_counter() - t0)
        problems = wl.check(r, inp, out)
        failures += [f"request {r} ({inp['label']}): {p}" for p in problems]
        failed += bool(problems)
        for key, value in wl.work(inp, out).items():
            work[key] = work.get(key, 0) + value
        if r < CLI_SAMPLES:
            outputs[r] = (inp, out)
        r += 1
    return latencies, failed, failures, work, outputs


def reference_records(name: str) -> dict:
    """Outputs of the workload's reference requests at the default seed,
    keyed by request index."""
    import checks
    from spans import NullTracer
    from workloads import WORKLOADS
    wl = WORKLOADS[name](checks.DEFAULT_SEED)
    wl.setup()
    records = {}
    for r in wl.reference_requests:
        inp = wl.make_request(r)
        records[str(r)] = wl.record(inp, wl.run(inp, NullTracer()))
    return records


def check_reference(name: str, tol: float) -> list[str]:
    """Recompute the reference requests and compare them with the stored
    outputs."""
    import checks
    try:
        got = reference_records(name)
    except Exception:
        return [f"reference requests: {traceback.format_exc()}"]
    ref = checks.load_reference(name)
    return [f"reference request {r}: {f}" for r in got
            for f in checks.compare_record(got[r], ref[r], tol)]


def check_cli(wl, outputs) -> list[str]:
    """`fpds sweep example-4.1 --samples 3 --seed <seed>` must print the same
    per-sample lines as this benchmark's first three requests."""
    from fpds.cli import run as cli_run
    from spans import NullTracer
    for r in range(CLI_SAMPLES):
        if r not in outputs:
            inp = wl.make_request(r)
            try:
                outputs[r] = (inp, wl.run(inp, NullTracer()))
            except Exception:
                return [f"cli cross-check request {r}: {traceback.format_exc()}"]
    buf = io.StringIO()
    code = cli_run(["sweep", "example-4.1", "--samples", str(CLI_SAMPLES),
                    "--seed", str(wl.seed)], out=buf)
    cli_lines = [ln for ln in buf.getvalue().splitlines() if ln.startswith("sample ")]
    ours = [wl.cli_line(r, *outputs[r]) for r in range(CLI_SAMPLES)]
    if code != 0 or cli_lines != ours:
        return [f"fpds sweep differs (exit {code}):\n  cli:   " + "\n  cli:   ".join(cli_lines)
                + "\n  bench: " + "\n  bench: ".join(ours)]
    return []


def child(args, *extra: str) -> dict:
    """Run this script in a fresh process and return its JSON result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"child {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_fpds()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import checks
    import spans
    from workloads import TOL, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    warm_up()
    setup_here = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    env = environment()
    print(f"# fpds benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} (closed loop, 1 client)")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    window = args.seconds / 2 if args.trace else args.seconds
    latencies, failed, failures, work, outputs = run_requests(
        wl, tracer, window, args.requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures += check_reference(args.workload, TOL)
    if args.workload == "sweep-ex41":
        failures += check_cli(wl, outputs)

    attempted = len(latencies)
    busy = sum(latencies)
    notes = {}
    if args.trace:
        replay = child(args, "--trace", "0", "--requests", str(attempted))
        untraced = replay["attempted"] / replay["metrics"]["throughput_per_s"]["value"]
        metrics = spans.layer_metrics(tracer.spans, work, busy / untraced)
        units = {k: spans.LAYER_UNITS[k][0] for k in metrics}
        notes = dict.fromkeys(spans.COMPUTED, "computed")
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "env": env, "metrics": metrics})
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        setups = [setup_here] + [child(args, "--setup-only")["setup_s"]
                                 for _ in range(SETUP_REPEATS - 1)]
        tail, pct, beyond = tail_latency(latencies)
        metrics = {
            "throughput_per_s": attempted / busy,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "success_fraction": 1.0 - failed / attempted,
        }
        units = {"throughput_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
                 "setup_s": "s", "peak_rss_mb": "MB", "success_fraction": "fraction"}
        notes = {"latency_tail_s": f"p{pct}, n={attempted}, {beyond} beyond"
                                   if beyond else f"max, only {attempted} requests",
                 "setup_s": f"median of {len(setups)}",
                 "success_fraction": f"failed_fraction={failed / attempted:g} "
                                     f"({failed}/{attempted})"}
    for key, value in metrics.items():
        print(f"{key:34s} {value:>16.6g} {units[key]:8s} {notes.get(key, '')}".rstrip())
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    correct = not failures
    print(f"# checks: {'all passed' if correct else f'{len(failures)} failed'}; "
          f"reference seed {checks.DEFAULT_SEED} at rel {checks.REF_REL:g}, "
          f"equilibria at {checks.EQ_WEIGHTED:g}*tol")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
