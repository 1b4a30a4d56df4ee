"""Tests of the benchmark itself: deterministic generators, certifiable
certify-solve systems, the metric names against BENCHMARK.json, and the
statistics and checks the benchmark relies on."""
import json
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path[:0] = [str(run.ROOT / "src")]

import checks  # noqa: E402
import fpds  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CertifySolve  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _inputs(name, seed, count):
    wl = WORKLOADS[name](seed)
    wl.setup()
    out = []
    for r in range(count):
        inp = wl.make_request(r)
        spec = inp.get("spec")
        out.append((inp["label"], inp.get("seed"), inp.get("doc"),
                    None if spec is None else fpds.serialize(spec)))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_deterministic_per_seed(name):
    assert _inputs(name, 5, 8) == _inputs(name, 5, 8)
    assert _inputs(name, 5, 8) != _inputs(name, 6, 8)


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert run.WORKLOAD_NAMES == tuple(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_certify_solve_size_stratum_certifies(seed):
    wl = CertifySolve(seed)
    sizes = []
    for r in range(len(wl.size_order)):
        inp = wl.make_request(r)
        spec = fpds.load_spec(inp["doc"])
        w = fpds.find_weights(spec)
        assert w is not None, inp["label"]
        assert fpds.certificate(spec, w).passed, inp["label"]
        sizes.append(spec.n + spec.m)
    assert min(sizes) >= 5 and max(sizes) <= 300


def test_layer_metric_names_and_units_match_benchmark_json():
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == spans.LAYER_UNITS
    fake = [{"id": 0, "name": "request", "parent": None, "request": 0,
             "start": 0.0, "end": 1.0}]
    derived = spans.layer_metrics(fake, {"dim": 5}, 1.0)
    assert set(derived) == set(listed)


def _bench(*args):
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    result = _bench("--workload", "certify-solve", "--seed", "3", "--requests", "3",
                    "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_tail_latency_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail_latency(xs) == (30.0, 75, 10)
    value, pct, beyond = run.tail_latency(xs[:11])
    assert (pct, beyond) == (9, 10) and value == 1.0
    assert run.tail_latency(xs[:10]) == (10.0, 100, 0)


def test_self_time_subtracts_children():
    recs = [{"id": 0, "name": "request", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "fde.integrate", "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "name": "fde.envelope_check", "parent": 0, "start": 5.0, "end": 6.0}]
    assert spans.self_times(recs) == [6.0, 3.0, 1.0]


@pytest.mark.parametrize("alpha,z", [(0.8, -0.3), (0.6, -6.0), (0.9, -40.0)])
def test_oracle_agrees_with_fpds_in_every_band(alpha, z):
    assert checks.close(fpds.mittag_leffler(alpha, 1.0, z), checks.ml_oracle(alpha, z),
                        checks.ML_REL)


def test_reference_compare_passes_reordering_and_fails_wrong_values():
    ref = checks.load_reference("sweep-ex41")["0"]
    reordered = {k: (np.asarray(v) * (1 + 1e-13)).tolist() for k, v in ref.items()}
    assert checks.compare_record(reordered, ref, 1e-10) == []
    wrong = dict(ref, final_state=(np.asarray(ref["final_state"]) * (1 + 1e-6)).tolist())
    assert checks.compare_record(wrong, ref, 1e-10)
    shifted = dict(ref, equilibria=[(np.asarray(ref["equilibria"][0]) + 1e-9).tolist()])
    assert checks.compare_record(shifted, ref, 1e-10)
