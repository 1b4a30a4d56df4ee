"""Reciprocal gamma and the two-parameter Mittag-Leffler function.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta).

Evaluation of E for z < 0 is split by u = |z|^(1/alpha), the size of the
largest series term in log scale:
  u <= 5   : plain double-precision Taylor series (cancellation <= ~3 digits);
  u >= 38  : algebraic asymptotic expansion, optimally truncated
             (remainder ~ exp(-u), far below double precision);
  otherwise: Taylor series in extended precision (mpmath), with working
             digits sized to the cancellation.
A naive double series breaks down here: at alpha = 0.3, z = -8 the largest
term is ~ exp(1024), so region boundaries must scale with |z|^(1/alpha),
not |z|.
"""
from __future__ import annotations

import functools
import math

import mpmath as mp
from scipy import special as _sp

_TAYLOR_U = 5.0
_ASYM_U = 38.0


def recip_gamma(x: float) -> float:
    """1/Gamma(x), entire in x; exactly 0 at the poles x = 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return float(_sp.rgamma(x))


def _series_double(alpha: float, beta: float, z: float) -> float:
    acc = 0.0
    zk = 1.0
    prev = math.inf
    for k in range(100_000):
        term = zk * recip_gamma(alpha * k + beta)
        acc += term
        at = abs(term)
        if at <= prev and at <= 1e-18 * max(abs(acc), 1e-290):
            break
        prev = at
        zk *= z
    return acc


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


def _series_extended(alpha: float, beta: float, z: float, u: float) -> float:
    # working precision absorbs the exp(u)-sized cancellation of the
    # alternating sum; the gamma argument alpha*k must be formed in extended
    # precision too, since its double rounding is amplified by the same factor
    dps = 25 + int(0.4343 * u)
    hump = int(u / alpha) + 10
    with mp.workdps(dps):
        aa = mp.mpf(alpha)
        bb = mp.mpf(beta)
        zz = mp.mpf(z)
        acc = mp.mpf(0)
        zk = mp.mpf(1)
        cutoff = mp.mpf(10) ** (-dps - 10)
        for k in range(hump * 4 + 1000):
            term = zk / mp.gamma(aa * k + bb)
            acc += term
            if k > hump and abs(term) < cutoff:
                break
            zk *= zz
        return float(acc)


def _asymptotic(alpha: float, beta: float, x: float) -> float:
    # E_{alpha,beta}(-x) ~ sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(beta - alpha k).
    # Term magnitudes are not monotone: the reflection-formula sine makes them
    # dip near the Gamma poles, so optimal truncation must look at the envelope
    # of the omitted tail (max over a short window), not at single terms.
    terms: list[float] = []
    xk = x
    sign = 1.0
    for _ in range(1, 400):
        k = len(terms) + 1
        c = recip_gamma(beta - alpha * k)
        t = sign * c / xk
        if not math.isfinite(t):
            break
        terms.append(t)
        xk *= x
        sign = -sign
        if math.isinf(xk):
            break
    if not terms:
        return 0.0
    mags = [abs(t) for t in terms]
    best_m, best_score = len(terms), math.inf
    for m_cut in range(len(terms) - 3):
        # tail envelope over a window wide enough to bridge the sine zeros
        score = max(mags[m_cut + 1 : m_cut + 4])
        if 0.0 < score < best_score:
            best_m, best_score = m_cut + 1, score
    return math.fsum(terms[:best_m])


@functools.lru_cache(maxsize=1 << 18)
def _ml_cached(alpha: float, beta: float, z: float) -> float:
    if z == 0.0:
        return recip_gamma(beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    if z > 0.0:
        return _series_positive(alpha, beta, z)
    u = (-z) ** (1.0 / alpha)
    if u <= _TAYLOR_U:
        return _series_double(alpha, beta, z)
    if u >= _ASYM_U and alpha < 1.0:
        return _asymptotic(alpha, beta, -z)
    return _series_extended(alpha, beta, z, u)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for real z, alpha in (0, 1], beta > 0."""
    alpha = float(alpha)
    beta = float(beta)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha out of supported range (0, 1]: {alpha}")
    if beta <= 0.0:
        raise ValueError(f"beta out of supported range (0, inf): {beta}")
    z = float(z)
    if math.isnan(z):
        raise ValueError("argument z is NaN")
    return _ml_cached(alpha, beta, z)


def ml_envelope(alpha: float, theta: float, v0: float, t: float) -> float:
    """Decay envelope v0 * E_alpha(-theta t^alpha)."""
    if t < 0.0:
        raise ValueError("negative t")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if v0 < 0.0:
        raise ValueError("v0 must be nonnegative")
    return v0 * mittag_leffler(alpha, 1.0, -theta * t ** alpha)
