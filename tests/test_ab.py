import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import pytest

import fpds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fpds"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


@pytest.mark.parametrize("workload", ["sweep-ex41", "envelope-long", "certify-solve"])
def test_a_against_a_agrees_bitwise(capsys, workload):
    # the same tree as A and as B: two packages whose outputs agree bitwise,
    # with a trajectory (sweep-ex41, envelope-long) or without (certify-solve).
    # Timing is not asserted beyond an interval that is finite and brackets
    # its own median
    assert _ab().main(["--base", str(SRC), "--workload", workload, "--requests", "3"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {"workload", "seed", "requests", "base", "change", "ratio_median", "ratio_ci95",
            "time_median_s", "max_output_diff", "outputs_bitwise_equal", "failures",
            "environment"} <= result.keys()
    assert (result["workload"], result["requests"]) == (workload, 3)
    assert result["failures"] == []
    assert result["outputs_bitwise_equal"] and result["max_output_diff"] == 0.0
    lo, hi = result["ratio_ci95"]
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo <= result["ratio_median"] <= hi
    assert set(result["time_median_s"]) == {"base", "change"}
    assert {"python", "numpy", "blas", "machine"} <= result["environment"].keys()


def test_trees_load_as_distinct_packages():
    # each tree's benchmark modules call their own fpds, and loading them
    # leaves the process's own fpds and module table as they were
    ab = _ab()
    before = {k: sys.modules.get(k) for k in ("fpds", "workloads", "checks", "spans")}
    a, b = ab.load_tree(SRC, "fpds_ab_test_a"), ab.load_tree(SRC, "fpds_ab_test_b")
    (wa, _), (wb, _) = ab.load_workloads(a), ab.load_workloads(b)
    assert a is not b and a.integrate is not b.integrate
    assert wa.fpds is a and wb.fpds is b and wa is not wb
    assert {k: sys.modules.get(k) for k in before} == before
    assert sys.modules["fpds"] is fpds


def test_unknown_workload_is_named():
    with pytest.raises(ValueError, match="no workload 'nope'"):
        _ab().compare(SRC, SRC, "nope", 1)


def test_environment_without_sched_getaffinity(monkeypatch):
    # platforms without os.sched_getaffinity report os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _ab().environment()["nproc"] == os.cpu_count()
