import numpy as np
import pytest

import fpds
from fpds import StateVector, Weights, picard_solve, residual

from conftest import make_1d_spec


@pytest.fixture(scope="module")
def w1():
    return Weights(mu=[1.0], tau=[])


def test_scalar_fixed_point(w1):
    # clamp(x - 0.5(x - 3)) = clamp(0.5 x + 1.5); the interior fixed point
    # is x* = 3
    spec = make_1d_spec(A=1.0, a=-3.0, rho=0.5)
    real = fpds.sample_realization(spec, "lower")
    eq = picard_solve(spec, real, w1, tol=1e-12)
    assert eq.converged
    assert eq.point.x[0] == pytest.approx(3.0, abs=1e-12)


def test_residual_smaller_than_grid_oracle(ex42, w42):
    # brute-force residual over a grid containing both vertex solutions
    for selector in ("lower", "upper"):
        real = fpds.sample_realization(ex42, selector)
        eq = picard_solve(ex42, real, w42, tol=1e-10)
        assert eq.converged and eq.residual <= 1e-10
        xs = np.arange(-1.5, 2.0 + 1e-12, 1e-3)
        ys = np.arange(-0.6, 0.8 + 1e-12, 1e-3)
        best = min(
            residual(ex42, real, w42, StateVector(x=[gx, gy], y=[]))
            for gx in xs[:: 50] for gy in ys[:: 50]
        )
        # coarse screen first, then full resolution near the winner only
        assert eq.residual < best
        cx = eq.point.x
        fine_x = np.arange(cx[0] - 0.05, cx[0] + 0.05, 1e-3)
        fine_y = np.arange(cx[1] - 0.05, cx[1] + 0.05, 1e-3)
        best_fine = min(
            residual(ex42, real, w42, StateVector(x=[gx, gy], y=[]))
            for gx in fine_x for gy in fine_y
        )
        assert eq.residual < best_fine


def test_start_at_fixed_point(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42, tol=1e-12)
    again = picard_solve(ex42, real, w42, tol=1e-10, start=eq.point)
    assert again.converged and again.iterations <= 2
    np.testing.assert_allclose(again.point.as_array(), eq.point.as_array(),
                               rtol=0, atol=1e-10)


def test_weight_independence(ex42):
    real = fpds.sample_realization(ex42, "upper")
    tol = 1e-11
    eq_a = picard_solve(ex42, real, Weights(mu=[2.0, 1.0], tau=[]), tol=tol)
    eq_b = picard_solve(ex42, real, Weights(mu=[2.2, 1.0], tau=[]), tol=tol)
    assert np.max(np.abs(eq_a.point.as_array() - eq_b.point.as_array())) <= 2 * tol


def test_uniqueness_from_random_starts(ex41, w41):
    real = fpds.sample_realization(ex41, "midpoint")
    ref = picard_solve(ex41, real, w41, tol=1e-11)
    rng = np.random.default_rng(17)
    half1 = 0.5 * (ex41.box1.hi - ex41.box1.lo)
    half2 = 0.5 * (ex41.box2.hi - ex41.box2.lo)
    for _ in range(10):
        # random starts in the twice-inflated boxes
        x = ex41.box1.midpoint() + (2 * rng.random(3) - 1) * 2 * half1
        y = ex41.box2.midpoint() + (2 * rng.random(2) - 1) * 2 * half2
        eq = picard_solve(ex41, real, w41, tol=1e-11,
                          start=StateVector(x=x, y=y))
        assert eq.converged
        assert np.max(np.abs(eq.point.as_array() - ref.point.as_array())) <= 5e-11


def test_linear_convergence_ratio(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    cert = fpds.certificate(ex42, w42)
    eq = picard_solve(ex42, real, w42, tol=1e-12)
    steps = eq.step_norms
    # successive step norms of a kappa-contraction shrink at least by kappa
    for k in range(1, len(steps)):
        if steps[k - 1] < 1e-13:
            break
        assert steps[k] <= cert.kappa * steps[k - 1] + 1e-15


def test_a_priori_bound_holds(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42, tol=1e-10)
    tight = picard_solve(ex42, real, w42, tol=1e-13, start=eq.point)
    err = fpds.weighted_norm(w42, StateVector(
        x=eq.point.x - tight.point.x, y=eq.point.y - tight.point.y))
    assert err <= eq.a_priori_bound * (1 + 1e-9) + 1e-13


def test_rhs_norm_small_at_equilibrium(ex41, w41):
    real = fpds.sample_realization(ex41, "upper")
    eq = picard_solve(ex41, real, w41, tol=1e-11)
    out = fpds.rhs(ex41, real, eq.point)
    assert fpds.weighted_norm(w41, out) <= 1e-10


def test_residual_hand_evaluation_41(ex41, w41):
    # evaluate the fixed-point defect at a hand-checkable off-equilibrium
    # state and compare with a fully scalar re-computation
    real = fpds.sample_realization(ex41, "midpoint")
    s = StateVector(x=[8.6, -7.3, -5.2], y=[6.7, -8.5])
    got = residual(ex41, real, w41, s)

    x, y = np.array(s.x), np.array(s.y)
    H, L = ex41.shifts.H, ex41.shifts.L
    vx = x - ex41.rho * (real.M[:3, :3] @ x + real.M[:3, 3:] @ y + ex41.a)
    vy = y - ex41.lam * (real.M[3:, 3:] @ y + real.M[3:, :3] @ x + ex41.b)
    fx = H @ x + np.minimum(np.maximum(vx - H @ x, ex41.box1.lo), ex41.box1.hi)
    fy = L @ y + np.minimum(np.maximum(vy - L @ y, ex41.box2.lo), ex41.box2.hi)
    expect = np.sum(np.abs(fx - x)) + np.sum(np.abs(fy - y))
    assert got == pytest.approx(expect, rel=1e-14)


def test_failing_certificate_raises(w1):
    spec = make_1d_spec(A=-1.0, a=0.0, rho=1.0)
    real = fpds.sample_realization(spec, "lower")
    with pytest.raises(fpds.CertificateError):
        picard_solve(spec, real, w1)


def test_max_iter_reports_unconverged(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42, tol=1e-12, max_iter=2)
    assert not eq.converged and eq.iterations == 2


@pytest.mark.parametrize("kwargs,match", [
    ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"), ({"tol": 0.0}, "tol"),
    ({"tol": -1e-10}, "tol"), ({"max_iter": 0}, "max_iter"),
])
def test_solver_argument_validation(ex42, w42, kwargs, match):
    real = fpds.sample_realization(ex42, "lower")
    with pytest.raises(fpds.SpecError, match=match):
        picard_solve(ex42, real, w42, **kwargs)


def test_single_iteration_bound(ex42, w42):
    # max_iter = 1: one Picard step, a priori bound kappa / (1 - kappa) * step
    real = fpds.sample_realization(ex42, "lower")
    kappa = fpds.certificate(ex42, w42).kappa
    eq = picard_solve(ex42, real, w42, tol=1e-12, max_iter=1)
    assert eq.iterations == 1 and eq.step_norms.size == 1
    assert eq.a_priori_bound == kappa / (1.0 - kappa) * eq.step_norms[0]


@pytest.mark.parametrize("scenario,gains", [("traffic-gstm", [1.0, 1.0, 2.0, 1.0]),
                                            ("example-4.1", [0.3, 2.0, 1.7, 0.9, 5.0])])
def test_picard_solve_ignores_the_gains(scenario, gains):
    # the Picard step is the unit-gain form: a solver that built it from
    # the gains would move every iterate
    unit = fpds.builtin_scenario(scenario)
    spec = fpds.builtin_scenario(scenario, gains=gains)
    w = fpds.find_weights(unit)
    for selector in ("lower", "upper", "random"):
        real = fpds.sample_realization(unit, selector, seed=4)
        want = picard_solve(unit, real, w)
        got = picard_solve(spec, real, w)
        np.testing.assert_array_equal(got.point.as_array(), want.point.as_array())
        assert got.iterations == want.iterations
        np.testing.assert_array_equal(got.step_norms, want.step_norms)


@pytest.mark.parametrize("selector", ["lower", "upper", "random"])
@pytest.mark.parametrize("scenario", fpds.BUILTIN_NAMES)
def test_picard_solve_matches_iteration_through_project_implicit(scenario, selector):
    # the same number of steps of z <- project_implicit(S, K, z, z - r (M z + c))
    # from the box midpoint reach the solver's point up to rounding
    spec = fpds.builtin_scenario(scenario)
    blk = spec.blocks
    real = fpds.sample_realization(spec, selector, seed=6)
    eq = picard_solve(spec, real, fpds.find_weights(spec))
    z = blk.box.midpoint()
    for _ in range(eq.iterations):
        z = fpds.project_implicit(blk.S, blk.box, z, z - blk.r * (real.M @ z + blk.c))
    got = eq.point.as_array()
    assert np.abs(got - z).max() <= 1e-14 * np.abs(got).max()
