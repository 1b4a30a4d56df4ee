"""Correctness checks that run outside the timed region: an independent
Mittag-Leffler oracle and the comparison against stored reference outputs."""
from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

from spans import BANDS, band_of

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0     # the seed the reference outputs are stored for
HELD_OUT_SEED = 7919  # not used to tune the benchmark; confirm claims on it

# Mittag-Leffler values against the oracle: fpds promises about 1e-12.
ML_REL = 1e-10
# Reference outputs (kappa, weights, final states, max_ratio, envelope
# values): a change of summation order moves these by about 1e-13 relative;
# a wrong kernel moves them by far more than 1e-8.
REF_REL = 1e-8
REF_ABS = 1e-10
# Equilibria: picard_solve guarantees each to lie within tol of the fixed
# point in the weighted norm, so two correct solves differ by at most
# 2 tol there; 3 tol leaves room for rounding.
EQ_WEIGHTED = 3.0


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def ml_oracle(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) for z <= 0, summed directly
    in mpmath with enough digits to absorb the exp(u) cancellation."""
    if z == 0.0:
        return 1.0
    u = abs(z) ** (1.0 / alpha)
    with mp.workdps(30 + int(math.ceil(u / math.log(10)))):
        a = mp.mpf(alpha)
        zz = mp.mpf(z)
        acc = mp.mpf(0)
        hump = u / alpha
        k = 0
        while True:
            term = zz ** k * mp.rgamma(a * k + 1)
            acc += term
            if k > hump + 2 and abs(term) < mp.mpf(10) ** -30 * abs(acc):
                return float(acc)
            k += 1


def sample_band_times(alpha: float, theta: float, times: np.ndarray,
                      rng: np.random.Generator) -> list:
    """One seeded grid time from each argument band the grid reaches."""
    by_band: dict[str, list] = {b: [] for b, _ in BANDS}
    for t in times:
        by_band[band_of(alpha, -theta * t ** alpha)].append(t)
    return [ts[int(rng.integers(len(ts)))] for ts in by_band.values() if ts]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def compare_record(got: dict, want: dict, tol: float) -> list[str]:
    """Differences between one request's outputs and its reference record."""
    fails = []
    for key, ref in want.items():
        if key == "equilibria":
            continue
        a = np.atleast_1d(np.asarray(got[key], dtype=float))
        b = np.atleast_1d(np.asarray(ref, dtype=float))
        if a.shape != b.shape or not np.all(np.abs(a - b) <= REF_ABS + REF_REL * np.abs(b)):
            fails.append(f"{key}: got {got[key]!r}, reference {ref!r}")
    for eq, ref in zip(got["equilibria"], want["equilibria"]):
        dist = float(np.asarray(got["weights"]) @ np.abs(np.asarray(eq) - np.asarray(ref)))
        if not dist <= EQ_WEIGHTED * tol:
            fails.append(f"equilibrium off by {dist:.3g} in the weighted norm")
    if len(got["equilibria"]) != len(want["equilibria"]):
        fails.append("equilibrium count differs")
    return fails
