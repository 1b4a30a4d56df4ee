"""The Mittag-Leffler function E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) at
the arguments z <= 0 that the decay envelope V(0) E_alpha(-theta t^alpha)
needs, and at every real z for alpha = 1, where E is exp(z).

For z < 0 the series alternates and cancels by up to exp(u), u =
|z|^(1/alpha), so no double-precision series works. E is the inverse Laplace
transform

    E_alpha(z) = (1/2 pi i) int e^s s^(alpha-1) / (s^alpha - z) ds

summed with the trapezoidal rule on Garrappa's parabola s = mu (1 + i u)^2
(R. Garrappa, "Numerical evaluation of two and three parameter
Mittag-Leffler functions", SIAM J. Numer. Anal. 53, 2015; J. A. C. Weideman
and L. N. Trefethen, "Parabolic and hyperbolic contours for computing the
Bromwich integral", Math. Comp. 76, 2007). For z < 0 and alpha <= 1 the
poles s^alpha = z lie off the principal sheet, and the branch point at 0 has
strength 0, so one contour serves every alpha and every z < 0. The one
evaluator, `_ml_negative`, takes an array of x = -z in one broadcast sum;
`mittag_leffler` and `ml_envelope` both call it.

Both are cached: the nodes per alpha, and the decay envelope `ml_envelope`
at v0 = 1 per (alpha, theta, time grid), read-only, so the trajectories of
one sweep, which share those three, evaluate it once.
"""
from __future__ import annotations

import functools
import math

import numpy as np

# Garrappa's OptimalParam_RU at t = 1 for a branch point of strength p = 0,
# target accuracy 1e-15: the parabola's mu, the node step h and the node count
# N (nodes u = h k, |k| <= N)
_MU = 1.5048769942064695
_H = 0.18125923248023865
_N = 27
_CHUNK = 1024            # arguments per broadcast block: temporaries stay small


@functools.lru_cache(maxsize=64)
def _contour(alpha: float) -> tuple[np.ndarray, ...]:
    """Trapezoidal nodes for E_alpha on the u >= 0 half of the parabola:
    Re s^alpha, Im s^alpha and the complex weight split into real parts. The
    node at -u is the conjugate of the one at u, so for real z the u > 0
    weights are doubled and the sum is the real part."""
    u = _H * np.arange(_N + 1)
    s = _MU * (1.0 + 1j * u) ** 2
    weight = _H / (2j * math.pi) * np.exp(s) * s ** (alpha - 1.0) * (2.0 * _MU * (1j - u))
    weight[1:] *= 2.0
    sa = s ** alpha
    out = (sa.real.copy(), sa.imag.copy(), weight.real.copy(), weight.imag.copy())
    for arr in out:
        arr.setflags(write=False)
    return out


def _ml_negative(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) for a 1-D array of x >= 0 (any real x at alpha = 1).

    At alpha = 1 this is exp(-x), inf where it overflows. Otherwise it is
    exactly 1 at x = 0, and elsewhere, with d = Re s^alpha + x and
    q = Im s^alpha, the node sum sum (w_r d + w_i q) / (d^2 + q^2). d and q
    are scaled by a power of two near 1/(1 + x), which is exact, so d^2
    cannot overflow for any finite x; x beyond the float range is clipped to
    it (E(-inf) comes out as about 1e-309)."""
    if alpha == 1.0:
        with np.errstate(over="ignore"):
            return np.exp(-x)
    sa_r, sa_i, w_r, w_i = _contour(alpha)
    x = np.minimum(x, np.finfo(float).max)
    out = np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        xc = x[i : i + _CHUNK, None]
        g = np.ldexp(1.0, -np.frexp(1.0 + xc)[1])
        d = (sa_r + xc) * g
        q = sa_i * g
        out[i : i + _CHUNK] = g[:, 0] * ((w_r * d + w_i * q) / (d * d + q * q)).sum(axis=1)
    out[x == 0.0] = 1.0
    return out


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha out of supported range (0, 1]: {alpha}")


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_alpha(z) = E_{alpha,1}(z) for alpha in (0, 1] and real z <= 0, or
    any real z at alpha = 1, where E is exp(z) (inf where that leaves the
    float range, z above about 709.78). beta must be 1; any other beta, a NaN
    z and a positive z at alpha < 1 raise ValueError.

    Accuracy for z < 0 (against an extended-precision series): relative
    error below 1e-12 for alpha in [0.1, 0.95] and u = |z|^(1/alpha) up to
    60 (measured worst 6.9e-15, at alpha 0.95, z = -21). The contour's error
    is absolute, about 1e-18, so where E itself is tiny it is no longer
    small relative to E. That happens close to alpha = 1, where E tends to
    exp(-u): for alpha in {0.999, 0.9999} and u <= 60 the bound is rel
    1e-11. E(0) is exactly 1."""
    alpha = float(alpha)
    _check_alpha(alpha)
    if float(beta) != 1.0:
        raise ValueError(f"beta must be 1: {beta}")
    z = float(z)
    if math.isnan(z):
        raise ValueError("argument z is NaN")
    if z > 0.0 and alpha < 1.0:
        raise ValueError(f"argument z must be <= 0 for alpha < 1: z = {z}")
    return float(_ml_negative(alpha, np.array([-z]))[0])


def ml_envelope(alpha: float, theta: float, v0: float, t):
    """Decay envelope v0 * E_alpha(-theta t^alpha) for a scalar or an array of
    times t; returns a float or a new array of t's shape.

    The arguments are validated first; the unit envelope E_alpha(-theta
    t^alpha) is then cached per (alpha, theta, the bytes of the grid), so a
    sweep that checks many trajectories on one grid evaluates it once. The
    result is v0 times the cached values, bit for bit what an uncached
    evaluation gives."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise ValueError("t must be nonnegative and not NaN")
    if not 0.0 < theta < math.inf:
        raise ValueError("theta must be finite and positive")
    if not 0.0 <= v0 < math.inf:
        raise ValueError("v0 must be finite and nonnegative")
    alpha = float(alpha)
    _check_alpha(alpha)
    out = v0 * _unit_envelope(alpha, float(theta), t_arr.tobytes()).reshape(t_arr.shape)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=16)
def _unit_envelope(alpha: float, theta: float, grid: bytes) -> np.ndarray:
    """E_alpha(-theta t^alpha) on the grid of times whose float64 bytes are
    `grid`, as a read-only 1-D array."""
    env = _ml_negative(alpha, theta * np.frombuffer(grid) ** alpha)
    env.setflags(write=False)
    return env
