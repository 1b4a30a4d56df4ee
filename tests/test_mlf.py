import math

import mpmath as mp
import numpy as np
import pytest

from fpds import mittag_leffler, ml_envelope


# --------------------------------------------------- closed-form special cases

def test_alpha_one_is_exp():
    for z in np.linspace(-30.0, 3.0, 100):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(
            math.exp(z), rel=1e-10)


def test_alpha_half_is_scaled_erfc():
    # E_{1/2,1}(z) = exp(z^2) erfc(-z)
    for z in np.linspace(-6.0, 2.0, 60):
        expect = math.exp(z * z) * math.erfc(-z)
        assert mittag_leffler(0.5, 1.0, z) == pytest.approx(expect, rel=1e-10)


def test_value_at_zero_is_exact():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        assert mittag_leffler(alpha, 1.0, 0.0) == 1.0


@pytest.mark.parametrize("alpha", [0.999, 1.0])
def test_overflow_is_inf(alpha):
    # the series for alpha < 1 and exp at alpha = 1 both leave the float range
    assert mittag_leffler(alpha, 1.0, 710.0) == math.inf


# ----------------------------------------------------------- mpmath oracle

def _ml_mpmath(alpha, z):
    # high-precision Taylor reference; dps sized to the largest term
    u = abs(z) ** (1.0 / alpha) if z < 0 else 0.0
    with mp.workdps(40 + int(u)):
        aa = mp.mpf(alpha)
        acc = mp.mpf(0)
        zk = mp.mpf(1)
        zz = mp.mpf(z)
        big = mp.mpf(2) ** 1024
        for k in range(20_000):
            term = zk / mp.gamma(aa * k + 1)
            acc += term
            if z > 0 and acc > big:
                # every term is positive, so float(acc) is inf from here on
                break
            if k * alpha > 2 * u + 10 and abs(term) < mp.mpf(10) ** (-60 - int(u)):
                break
            zk *= zz
        return float(acc)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.8, 0.9, 0.95])
def test_against_extended_taylor(alpha):
    for z in np.linspace(-30.0, 30.0, 41):
        if z < 0 and (-z) ** (1.0 / alpha) > 60.0:
            # the reference series needs tens of thousands of digits here;
            # the deep-decay region is covered by the spectral oracle below
            continue
        expect = _ml_mpmath(alpha, float(z))
        got = mittag_leffler(alpha, 1.0, float(z))
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)


# ------------------------------------------------ spectral-function oracle

def _ml_spectral(alpha, x):
    """E_alpha(-x) for x > 0 via the completely monotone representation
    E_alpha(-t^alpha) = int_0^inf exp(-r t) k(r) dr with
    k(r) = (1/pi) Im[s^(alpha-1) / (s^alpha + 1)] at s = r e^(i pi)."""
    t = x ** (1.0 / alpha)
    with mp.workdps(30):
        def k(r):
            # powers of s = r e^(i pi) written out to fix the branch
            r = mp.mpf(r)
            num = r ** (alpha - 1) * mp.exp(1j * mp.pi * (alpha - 1))
            den = r ** alpha * mp.exp(1j * mp.pi * alpha) + 1
            return -mp.im(num / den) / mp.pi

        val = mp.quad(lambda r: mp.e ** (-r * t) * k(r), [0, 0.5, 1, 2, mp.inf])
        return float(val)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.95])
def test_against_spectral_quadrature(alpha):
    for x in (0.1, 1.0, 4.0, 10.0, 25.0, 50.0):
        expect = _ml_spectral(alpha, x)
        got = mittag_leffler(alpha, 1.0, -x)
        assert got == pytest.approx(expect, rel=1e-8)


# ------------------------------------------------------------------ envelope

def test_envelope_monotone_decreasing():
    ts = np.linspace(0.0, 50.0, 200)
    for alpha in (0.5, 0.8, 1.0):
        vals = [ml_envelope(alpha, 0.05, 3.0, t) for t in ts]
        assert vals[0] == pytest.approx(3.0)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v > 0.0 for v in vals)


def test_envelope_scales_with_v0():
    a = ml_envelope(0.8, 0.1, 1.0, 2.0)
    assert ml_envelope(0.8, 0.1, 5.0, 2.0) == pytest.approx(5.0 * a, rel=1e-15)


def test_envelope_zero_start():
    assert ml_envelope(0.8, 0.1, 0.0, 7.0) == 0.0


@pytest.mark.parametrize("v0", [1.0, 3.0])
def test_envelope_results_are_fresh_arrays(v0):
    ts = np.linspace(0.0, 20.0, 401)
    first = ml_envelope(0.9, 0.2, v0, ts)
    want = first.copy()
    first[:] = -1.0
    again = ml_envelope(0.9, 0.2, v0, ts)
    np.testing.assert_array_equal(again, want)
    again[0] = 7.0
    assert ml_envelope(0.9, 0.2, v0, ts)[0] == v0


@pytest.mark.parametrize("alpha", [0.6, 1.0])
def test_envelope_is_exactly_v0_times_the_unit_envelope(alpha):
    ts = np.linspace(0.0, 40.0, 801)
    unit = ml_envelope(alpha, 0.15, 1.0, ts)
    for v0 in (0.0, 1e-300, 0.37, 5.0, 1e300):
        np.testing.assert_array_equal(ml_envelope(alpha, 0.15, v0, ts), v0 * unit)
        assert ml_envelope(alpha, 0.15, v0, 3.0) == v0 * ml_envelope(alpha, 0.15, 1.0, 3.0)


def test_envelope_grids_of_one_length_do_not_share_a_cache_entry():
    # the same length and dtype, different values: each must give its own
    # envelope, also in the order that would reuse a stale entry
    a = np.linspace(0.0, 10.0, 201)
    b = np.linspace(0.0, 30.0, 201)
    env_a, env_b = ml_envelope(0.8, 0.3, 2.0, a), ml_envelope(0.8, 0.3, 2.0, b)
    assert not np.array_equal(env_a, env_b)
    np.testing.assert_array_equal(ml_envelope(0.8, 0.3, 2.0, a), env_a)
    for t, env in ((a, env_a), (b, env_b)):
        scalar = [ml_envelope(0.8, 0.3, 2.0, float(x)) for x in t]
        np.testing.assert_allclose(env, scalar, rtol=1e-15, atol=0.0)


def test_envelope_errors_with_a_warm_cache():
    ts = np.linspace(0.0, 5.0, 11)
    ml_envelope(0.8, 0.1, 1.0, ts)
    bad = ts.copy()
    bad[4] = math.nan
    with pytest.raises(ValueError, match="t must be nonnegative and not NaN"):
        ml_envelope(0.8, 0.1, 1.0, bad)
    with pytest.raises(ValueError, match="theta must be finite and positive"):
        ml_envelope(0.8, 0.0, 1.0, ts)
    # v0 is not part of the cache key: a warm grid must not skip its check
    for v0 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="v0 must be finite and nonnegative"):
            ml_envelope(0.8, 0.1, v0, ts)


# -------------------------------------------------------------- input checks

@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.2, 1.0), (-0.5, 1.0),
                                        (0.5, 0.0), (0.5, -2.0), (0.5, 2.0)])
def test_parameter_range_errors(alpha, beta):
    # beta = 1 is the only order the evaluator has; alpha is checked first
    match = "alpha out of supported range" if beta == 1.0 else "beta must be 1"
    with pytest.raises(ValueError, match=match):
        mittag_leffler(alpha, beta, -1.0)


def test_nan_argument_named():
    with pytest.raises(ValueError, match="argument z is NaN"):
        mittag_leffler(0.8, 1.0, math.nan)


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.8, "theta": 0.1, "v0": 1.0, "t": -1.0},
    {"alpha": 0.8, "theta": 0.0, "v0": 1.0, "t": 1.0},
    {"alpha": 0.8, "theta": 0.1, "v0": -1.0, "t": 1.0},
])
def test_envelope_argument_errors(kwargs):
    with pytest.raises(ValueError):
        ml_envelope(**kwargs)
