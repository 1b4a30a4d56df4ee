"""The contour evaluator behind mittag_leffler for z < 0 and the array form
of ml_envelope."""
import math
import warnings

import numpy as np
import pytest

from fpds import mittag_leffler, ml_envelope

from test_mlf import _ml_mpmath


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
def test_envelope_array_matches_scalar_calls(alpha):
    ts = np.linspace(0.0, 300.0, 1501)          # t = 0 included; more than one chunk
    env = ml_envelope(alpha, 0.3, 1.7, ts)
    scalar = np.array([ml_envelope(alpha, 0.3, 1.7, float(t)) for t in ts])
    assert env.shape == ts.shape
    assert env[0] == 1.7
    np.testing.assert_allclose(env, scalar, rtol=1e-15, atol=0.0)
    grid = ml_envelope(alpha, 0.3, 1.7, ts[:1500].reshape(30, 50))
    assert grid.shape == (30, 50)
    np.testing.assert_allclose(grid.ravel(), scalar[:1500], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.0])
def test_contour_against_extended_taylor(alpha):
    # measured worst: 1.6e-15 (alpha 0.1, u 3)
    for u in (0.5, 3.0, 10.0, 30.0, 60.0):
        z = -u ** alpha
        assert mittag_leffler(alpha, 1.0, z) == pytest.approx(
            _ml_mpmath(alpha, z), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.999, 0.9999])
def test_near_alpha_one(alpha):
    # E tends to exp(-u) here and the contour's error of about 1e-18 is
    # absolute; measured worst 4.0e-13 (0.999) and 4.7e-12 (0.9999)
    for u in np.linspace(1.0, 60.0, 60):
        z = -float(u) ** alpha
        assert mittag_leffler(alpha, 1.0, z) == pytest.approx(
            _ml_mpmath(alpha, z), rel=1e-11, abs=0.0)


def test_huge_argument_follows_leading_term():
    # E(-x) = 1/(x Gamma(1 - alpha)) + O(x^-2); d^2 would overflow above 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e100, 1e200, 1e300):
            lead = 1.0 / (x * math.gamma(1.0 - 0.8))
            assert mittag_leffler(0.8, 1.0, -x) == pytest.approx(lead, rel=1e-12)
        assert 0.0 <= mittag_leffler(0.8, 1.0, -math.inf) < 1e-300


@pytest.mark.parametrize("kwargs", [
    {"t": [0.0, 1.0, math.nan]},
    {"t": [0.0, -1.0]},
    {"theta": math.inf},
    {"theta": math.nan},
    {"v0": math.nan},
    {"alpha": 1.5},
])
def test_envelope_array_argument_errors(kwargs):
    args = {"alpha": 0.8, "theta": 0.1, "v0": 1.0, "t": [0.0, 1.0]} | kwargs
    with pytest.raises(ValueError):
        ml_envelope(**args)
