import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from fpds import mittag_leffler, ml_envelope, recip_gamma


# ---------------------------------------------------------------- recip_gamma

def test_recip_gamma_known_values():
    assert recip_gamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert recip_gamma(2.0) == pytest.approx(1.0, rel=1e-15)
    assert recip_gamma(5.0) == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert recip_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -100.0])
def test_recip_gamma_poles_are_exact_zero(x):
    assert recip_gamma(x) == 0.0


def test_recip_gamma_recurrence():
    # 1/Gamma(x+1) = (1/Gamma(x)) / x away from the poles
    for x in np.linspace(-4.7, 6.3, 111):
        if abs(x - round(x)) < 1e-9:
            continue
        assert recip_gamma(x + 1.0) == pytest.approx(recip_gamma(x) / x,
                                                     rel=1e-13, abs=1e-300)


def test_recip_gamma_against_mpmath_over_both_ranges():
    # non-integers on (-200, 200), with points where Gamma leaves the float
    # range: 1/Gamma is subnormal past 171.62, and overflows below about -171
    edges = [171.62, 171.65, 172.3, 180.5, -170.9, -171.0001, -171.5,
             -172.0007, -182.5, -199.5]
    xs = np.concatenate([np.random.default_rng(11).uniform(-200.0, 200.0, 4000), edges])
    tiny = np.finfo(float).tiny
    with mp.workdps(40):
        want = [float(mp.rgamma(x)) for x in xs]
    for x, expect in zip(xs, want):
        assert x != math.floor(x)
        got = recip_gamma(x)
        if math.isinf(expect):
            assert got == expect, x
        elif abs(expect) >= tiny:
            assert abs(got - expect) <= 2e-15 * abs(expect), x
        else:       # subnormal: exp(-lgamma) carries lgamma's absolute error
            assert abs(got - expect) <= 1e-13 * tiny, x


def test_recip_gamma_against_scipy_inside_the_float_range():
    # scipy's rgamma is itself wrong beyond +-170 (-inf at -170.9, 0 at 171.65)
    xs = np.random.default_rng(12).uniform(-170.0, 170.0, 4000)
    got = np.array([recip_gamma(x) for x in xs])
    np.testing.assert_allclose(got, sp.rgamma(xs), rtol=4e-15, atol=0.0)


# --------------------------------------------------- closed-form special cases

def test_alpha_one_is_exp():
    for z in np.linspace(-30.0, 3.0, 100):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(
            math.exp(z), rel=1e-10)


def test_alpha_half_is_scaled_erfc():
    # E_{1/2,1}(z) = exp(z^2) erfc(-z)
    for z in np.linspace(-6.0, 2.0, 60):
        expect = math.exp(z * z) * sp.erfc(-z)
        assert mittag_leffler(0.5, 1.0, z) == pytest.approx(expect, rel=1e-10)


def test_value_at_zero_is_exact():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        assert mittag_leffler(alpha, 1.0, 0.0) == 1.0


def test_beta_two_alpha_one():
    # E_{1,2}(z) = (e^z - 1)/z
    for z in (-10.0, -1.0, 0.5, 2.0):
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx(
            math.expm1(z) / z, rel=1e-12)


# ----------------------------------------------------------- mpmath oracle

def _ml_mpmath(alpha, beta, z):
    # high-precision Taylor reference; dps sized to the largest term
    u = abs(z) ** (1.0 / alpha) if z < 0 else 0.0
    with mp.workdps(40 + int(u)):
        aa, bb = mp.mpf(alpha), mp.mpf(beta)
        acc = mp.mpf(0)
        zk = mp.mpf(1)
        zz = mp.mpf(z)
        for k in range(20_000):
            term = zk / mp.gamma(aa * k + bb)
            acc += term
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
        expect = _ml_mpmath(alpha, 1.0, float(z))
        got = mittag_leffler(alpha, 1.0, float(z))
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)


# ------------------------------------------------ spectral-function oracle

def _ml_spectral(alpha, beta, x):
    """E_{alpha,beta}(-x) for x > 0 via the completely monotone representation
    t^(beta-1) E_{alpha,beta}(-t^alpha) = int_0^inf exp(-r t) k(r) dr with
    k(r) = (1/pi) Im[s^(alpha-beta) / (s^alpha + 1)] at s = r e^(i pi)."""
    t = x ** (1.0 / alpha)
    with mp.workdps(30):
        def k(r):
            # powers of s = r e^(i pi) written out to fix the branch
            r = mp.mpf(r)
            num = r ** (alpha - beta) * mp.exp(1j * mp.pi * (alpha - beta))
            den = r ** alpha * mp.exp(1j * mp.pi * alpha) + 1
            return -mp.im(num / den) / mp.pi

        val = mp.quad(lambda r: mp.e ** (-r * t) * k(r), [0, 0.5, 1, 2, mp.inf])
        return float(val * mp.mpf(t) ** (1.0 - beta))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("beta_kind", ["one", "alpha"])
def test_against_spectral_quadrature(alpha, beta_kind):
    beta = 1.0 if beta_kind == "one" else alpha
    for x in (0.1, 1.0, 4.0, 10.0, 25.0, 50.0):
        expect = _ml_spectral(alpha, beta, x)
        got = mittag_leffler(alpha, beta, -x)
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
                                        (0.5, 0.0), (0.5, -2.0)])
def test_parameter_range_errors(alpha, beta):
    with pytest.raises(ValueError):
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
