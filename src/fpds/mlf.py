"""Reciprocal gamma and the two-parameter Mittag-Leffler function.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta).

For z > 0 every term is positive and the series is summed directly. For
z < 0 the series alternates and cancels by up to exp(u), u = |z|^(1/alpha)
(at alpha = 0.3, z = -8 the largest term is ~ exp(1024)), so no
double-precision series works there. Instead E is the inverse Laplace
transform

    E_{alpha,beta}(z) = (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha - z) ds

summed with the trapezoidal rule on Garrappa's parabola s = mu (1 + i u)^2
(R. Garrappa, "Numerical evaluation of two and three parameter
Mittag-Leffler functions", SIAM J. Numer. Anal. 53, 2015; J. A. C. Weideman
and L. N. Trefethen, "Parabolic and hyperbolic contours for computing the
Bromwich integral", Math. Comp. 76, 2007). For z < 0 and alpha <= 1 the
poles s^alpha = z lie off the principal sheet, so the only singularity the
contour has to respect is the branch point at 0: mu, the step h and the node
count depend on (alpha, beta) alone, one set of nodes serves every z < 0,
and an array of arguments is evaluated in one broadcast sum.

Both are cached: the nodes per (alpha, beta), and the decay envelope
`ml_envelope` at v0 = 1 per (alpha, theta, time grid), read-only, so the
trajectories of one sweep, which share those three, evaluate it once.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_BETA_MAX = 25.0         # the contour's round-off control fails beyond about 30
_LOG_EPS = math.log(1e-15)                         # target accuracy
_LOG_EPS_MACHINE = math.log(np.finfo(float).eps)
_MAX_NODES = 200         # relax the target while a contour needs more nodes
_CHUNK = 1024            # arguments per broadcast block: temporaries stay small


def recip_gamma(x: float) -> float:
    """1/Gamma(x), entire in x; exactly 0 at the poles x = 0, -1, -2, ...

    Past x = 171.62 Gamma overflows; 1/Gamma is then exp(-lgamma(x)), which
    goes subnormal and then 0. Below about -171 Gamma is subnormal and
    1/Gamma overflows: wherever the true value is beyond the float range the
    result is inf with the sign of Gamma."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return math.exp(-math.lgamma(x))
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def _series_positive(alpha: float, beta: float, z: float) -> float:
    # all terms positive (no cancellation); log-space terms avoid z^k overflow
    # while the sum itself is still representable
    lz = math.log(z)
    acc = 0.0
    prev = -math.inf
    for k in range(1_000_000):
        lt = k * lz - math.lgamma(alpha * k + beta)
        if lt > 709.0:
            return math.inf
        term = math.exp(lt)
        acc += term
        if term < prev and term <= 1e-18 * acc:
            break
        prev = term
    return acc


def _optimal_param_ru(p: float, log_eps: float) -> tuple[float, float, float]:
    """Garrappa's OptimalParam_RU at t = 1 for the region right of the branch
    point at 0, whose strength is p = max(0, 2 (beta - alpha - 1)). Returns
    (mu, h, N) for the 2N + 1 nodes u = h k, |k| <= N; N is inf when no
    contour keeps the round-off error below exp(log_eps)."""
    phibar = 0.01
    while True:
        lep = log_eps / phibar
        n = math.ceil(phibar / math.pi * (1.0 - 1.5 * lep + math.sqrt(1.0 - 2.0 * lep)))
        a = math.pi * n / phibar
        sq_mu = math.sqrt(phibar) * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        fbar = (math.sqrt(phibar) / sq_mu) ** (-p)
        if p < 1e-14 or 1.0 < fbar < 10.0:
            break
        phibar = 5.0 ** (-2.0 / p) * sq_mu ** 2
    mu = sq_mu ** 2
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = log_eps - _LOG_EPS_MACHINE      # e^mu * eps must stay below eps_target
    if mu > threshold:
        phibar = 0.0 if p < 1e-14 else 5.0 ** (-2.0 / p) * mu
        if phibar >= threshold:
            return mu, 0.0, math.inf
        w = math.sqrt(_LOG_EPS_MACHINE / (_LOG_EPS_MACHINE - log_eps))
        u = math.sqrt(-phibar / _LOG_EPS_MACHINE)
        n = math.ceil(w * log_eps / (2.0 * math.pi) / (u * w - 1.0))
        mu, h = threshold, w / n
    return mu, h, n


@functools.lru_cache(maxsize=64)
def _contour(alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """Trapezoidal nodes for E_{alpha,beta} on the u >= 0 half of the parabola:
    Re s^alpha, Im s^alpha and the complex weight split into real parts. The
    node at -u is the conjugate of the one at u, so for real z the u > 0
    weights are doubled and the sum is the real part."""
    p = max(0.0, 2.0 * (beta - alpha - 1.0))
    log_eps = _LOG_EPS
    mu, h, n = _optimal_param_ru(p, log_eps)
    while n > _MAX_NODES:
        log_eps += math.log(10.0)
        mu, h, n = _optimal_param_ru(p, log_eps)
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    weight = h / (2j * math.pi) * np.exp(s) * s ** (alpha - beta) * (2.0 * mu * (1j - u))
    weight[1:] *= 2.0
    sa = s ** alpha
    out = (sa.real.copy(), sa.imag.copy(), weight.real.copy(), weight.imag.copy())
    for arr in out:
        arr.setflags(write=False)
    return out


def _ml_negative(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) for a 1-D array of x > 0.

    With d = Re s^alpha + x and q = Im s^alpha, the node sum is
    sum (w_r d + w_i q) / (d^2 + q^2). d and q are scaled by a power of two
    near 1/(1 + x), which is exact, so d^2 cannot overflow for any finite x;
    x beyond the float range is clipped to it (E(-inf) comes out as about
    1e-309)."""
    sa_r, sa_i, w_r, w_i = _contour(alpha, beta)
    x = np.minimum(x, np.finfo(float).max)
    out = np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        xc = x[i : i + _CHUNK, None]
        g = np.ldexp(1.0, -np.frexp(1.0 + xc)[1])
        d = (sa_r + xc) * g
        q = sa_i * g
        out[i : i + _CHUNK] = g[:, 0] * ((w_r * d + w_i * q) / (d * d + q * q)).sum(axis=1)
    return out


def _check_orders(alpha: float, beta: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha out of supported range (0, 1]: {alpha}")
    if not 0.0 < beta <= _BETA_MAX:
        raise ValueError(f"beta out of supported range (0, {_BETA_MAX:g}]: {beta}")


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for real z, alpha in (0, 1], beta in (0, 25].

    Accuracy for z < 0 (against an extended-precision series): relative
    error below 1e-12 for alpha in [0.1, 1], beta in [0.05, 25] and
    u = |z|^(1/alpha) up to 60 (measured worst 5.2e-13). The contour's error
    is absolute, about 1e-18 at beta = 1, so where E itself is tiny it is no
    longer small relative to E. That happens close to alpha = 1, where E
    tends to exp(-u): for alpha in {0.999, 0.9999}, beta = 1 and u <= 60 the
    bound is rel 1e-11. At alpha = beta = 1 E is exp(z)."""
    alpha = float(alpha)
    beta = float(beta)
    _check_orders(alpha, beta)
    z = float(z)
    if math.isnan(z):
        raise ValueError("argument z is NaN")
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    if z == 0.0:
        return recip_gamma(beta)
    if z > 0.0:
        return _series_positive(alpha, beta, z)
    return float(_ml_negative(alpha, beta, np.array([-z]))[0])


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
    _check_orders(alpha, 1.0)
    out = v0 * _unit_envelope(alpha, float(theta), t_arr.tobytes()).reshape(t_arr.shape)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=16)
def _unit_envelope(alpha: float, theta: float, grid: bytes) -> np.ndarray:
    """E_alpha(-theta t^alpha) on the grid of times whose float64 bytes are
    `grid`, as a read-only 1-D array."""
    x = theta * np.frombuffer(grid) ** alpha
    if alpha == 1.0:
        env = np.exp(-x)
    else:
        env = np.ones_like(x)
        live = x > 0.0
        env[live] = _ml_negative(alpha, 1.0, x[live])
    env.setflags(write=False)
    return env
