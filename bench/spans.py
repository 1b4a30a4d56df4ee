"""In-memory spans around the benchmark's calls into fpds, and the per-layer
metrics derived from them.

Nothing inside fpds is instrumented: each span wraps one public call made by
the benchmark. A span records its name, start, end, parent span and request
id; a layer's self time is its span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

import fpds

# u = |z|^(1/alpha) thresholds describing where a Mittag-Leffler argument
# lies. They describe the inputs, so they stay fixed even if fpds.mlf's own
# evaluation regions change.
BANDS = (("taylor", 5.0), ("extended", 38.0), ("asymptotic", float("inf")))

LAYER_SPANS = (
    "scenarios.load_spec", "certify.find_weights", "certify.certificate",
    "equilibrium.picard_solve", "fde.integrate", "fde.envelope_check",
    "model.sample_realization",
)


def band_of(alpha: float, z: float) -> str:
    u = abs(z) ** (1.0 / alpha)
    for name, upper in BANDS:
        if u <= upper:
            return name
    return BANDS[-1][0]


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    request_id = None
    _null = nullcontext({})

    def span(self, name: str):
        return self._null

    def mittag_leffler_grid(self, alpha, theta, times) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._seen: set[tuple[float, float]] = set()
        self.request_id: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "request": self.request_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def mittag_leffler_grid(self, alpha, theta, times) -> None:
        """Evaluate E_alpha(-theta t^alpha) over the grid exactly as
        envelope_check does, timing each call by argument band, so the
        envelope check that follows finds the values already computed."""
        counts = {b: 0 for b, _ in BANDS}
        busy = {b: 0.0 for b, _ in BANDS}
        repeats = 0
        clock = time.perf_counter
        with self.span("mlf.mittag_leffler") as rec:
            for t in times:
                z = -theta * t ** alpha
                band = band_of(alpha, z)
                t0 = clock()
                fpds.mittag_leffler(alpha, 1.0, z)
                busy[band] += clock() - t0
                counts[band] += 1
                key = (alpha, float(z))
                if key in self._seen:
                    repeats += 1
                else:
                    self._seen.add(key)
            rec.update(evals=counts, busy=busy, repeats=repeats)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - child[i] for i, rec in enumerate(spans)]


def layer_metrics(spans: list[dict], work: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics of a traced run: span counts and busy (self) times,
    plus work counts summed over the traced requests. The figures named in
    COMPUTED follow from the algorithm's formulas, not from hardware
    counters."""
    selfs = self_times(spans)
    calls = {name: 0 for name in LAYER_SPANS + ("request", "mlf.mittag_leffler")}
    busy = dict.fromkeys(calls, 0.0)
    evals = {b: 0 for b, _ in BANDS}
    band_busy = {b: 0.0 for b, _ in BANDS}
    repeats = 0
    for rec, s in zip(spans, selfs):
        calls[rec["name"]] += 1
        busy[rec["name"]] += s
        if rec["name"] == "mlf.mittag_leffler":
            repeats += rec["repeats"]
            for b, _ in BANDS:
                evals[b] += rec["evals"][b]
                band_busy[b] += rec["busy"][b]
    n_evals = sum(evals.values())
    steps = work.get("steps", 0)
    iters = work.get("iterations", 0)
    out = {
        "request.calls": calls["request"],
        "request.busy_s": sum(rec["end"] - rec["start"] for rec in spans
                              if rec["name"] == "request"),
        "request.self_s": busy["request"],
        "fde.integrate.calls": calls["fde.integrate"],
        "fde.integrate.busy_s": busy["fde.integrate"],
        "fde.steps": steps,
        "fde.us_per_step": 1e6 * busy["fde.integrate"] / steps if steps else 0.0,
        "fde.history_flops": work.get("history_flops", 0),
        "projection.rhs_evals": work.get("rhs_evals", 0),
        "fde.envelope_check.busy_s": busy["fde.envelope_check"],
        "fde.envelope_points": work.get("envelope_points", 0),
        "mlf.evals": n_evals,
        "mlf.busy_s": busy["mlf.mittag_leffler"],
        "mlf.repeat_share": repeats / n_evals if n_evals else 0.0,
        "scenarios.load_spec.calls": calls["scenarios.load_spec"],
        "scenarios.load_spec.busy_s": busy["scenarios.load_spec"],
        "scenarios.spec_bytes": work.get("spec_bytes", 0),
        "certify.find_weights.calls": calls["certify.find_weights"],
        "certify.find_weights.busy_s": busy["certify.find_weights"],
        "certify.certificate.calls": calls["certify.certificate"],
        "certify.certificate.busy_s": busy["certify.certificate"],
        "equilibrium.picard_solve.calls": calls["equilibrium.picard_solve"],
        "equilibrium.picard_solve.busy_s": busy["equilibrium.picard_solve"],
        "equilibrium.iterations": iters,
        "equilibrium.us_per_iteration":
            1e6 * busy["equilibrium.picard_solve"] / iters if iters else 0.0,
        # picard_solve applies the map once per iteration and once more for
        # the final residual
        "projection.picard_map_evals": iters + work.get("picard_solves", 0),
        "model.sample_realization.busy_s": busy["model.sample_realization"],
        "input.dim_mean": work.get("dim", 0) / calls["request"] if calls["request"] else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    for b, _ in BANDS:
        out[f"mlf.evals.{b}"] = evals[b]
        out[f"mlf.busy_s.{b}"] = band_busy[b]
        out[f"mlf.band_share.{b}"] = evals[b] / n_evals if n_evals else 0.0
    return out


# figures that follow from the algorithm's formulas, not from a counter
COMPUTED = ("fde.history_flops", "projection.rhs_evals", "projection.picard_map_evals")

# unit and direction of every per-layer metric, as BENCHMARK.json lists them
LAYER_UNITS = {
    "request.calls": ("count", "higher"),
    "request.busy_s": ("s", "lower"),
    "request.self_s": ("s", "lower"),
    "fde.integrate.calls": ("count", "higher"),
    "fde.integrate.busy_s": ("s", "lower"),
    "fde.steps": ("count", "higher"),
    "fde.us_per_step": ("us", "lower"),
    "fde.history_flops": ("flop", "higher"),
    "projection.rhs_evals": ("count", "higher"),
    "fde.envelope_check.busy_s": ("s", "lower"),
    "fde.envelope_points": ("count", "higher"),
    "mlf.evals": ("count", "higher"),
    "mlf.busy_s": ("s", "lower"),
    "mlf.repeat_share": ("fraction", "higher"),
    "scenarios.load_spec.calls": ("count", "higher"),
    "scenarios.load_spec.busy_s": ("s", "lower"),
    "scenarios.spec_bytes": ("byte", "higher"),
    "certify.find_weights.calls": ("count", "higher"),
    "certify.find_weights.busy_s": ("s", "lower"),
    "certify.certificate.calls": ("count", "higher"),
    "certify.certificate.busy_s": ("s", "lower"),
    "equilibrium.picard_solve.calls": ("count", "higher"),
    "equilibrium.picard_solve.busy_s": ("s", "lower"),
    "equilibrium.iterations": ("count", "higher"),
    "equilibrium.us_per_iteration": ("us", "lower"),
    "projection.picard_map_evals": ("count", "higher"),
    "model.sample_realization.busy_s": ("s", "lower"),
    "input.dim_mean": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    **{f"mlf.evals.{b}": ("count", "higher") for b, _ in BANDS},
    **{f"mlf.busy_s.{b}": ("s", "lower") for b, _ in BANDS},
    **{f"mlf.band_share.{b}": ("fraction", "lower") for b, _ in BANDS},
}
