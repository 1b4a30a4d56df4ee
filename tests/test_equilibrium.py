import numpy as np
import pytest

import fpds
from fpds import StateVector, Weights, picard_solve

from conftest import make_1d_spec, random_network, scaled_step, weighted_norm


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
        step = scaled_step(ex42, real)
        xs = np.arange(-1.5, 2.0 + 1e-12, 1e-3)
        ys = np.arange(-0.6, 0.8 + 1e-12, 1e-3)
        best = min(
            weighted_norm(w42, step([gx, gy]))
            for gx in xs[:: 50] for gy in ys[:: 50]
        )
        # coarse screen first, then full resolution near the winner only
        assert eq.residual < best
        cx = eq.point.x
        fine_x = np.arange(cx[0] - 0.05, cx[0] + 0.05, 1e-3)
        fine_y = np.arange(cx[1] - 0.05, cx[1] + 0.05, 1e-3)
        best_fine = min(
            weighted_norm(w42, step([gx, gy]))
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
    err = weighted_norm(w42, eq.point.as_array() - tight.point.as_array())
    assert err <= eq.a_priori_bound * (1 + 1e-9) + 1e-13


def test_rhs_norm_small_at_equilibrium(ex41, w41):
    real = fpds.sample_realization(ex41, "upper")
    eq = picard_solve(ex41, real, w41, tol=1e-11)
    out = scaled_step(ex41, real, ex41.gains)(eq.point.as_array())
    assert weighted_norm(w41, out) <= 1e-10


def test_residual_hand_evaluation_41(ex41, w41):
    # evaluate the fixed-point defect at a hand-checkable off-equilibrium
    # state and compare with a fully scalar re-computation
    real = fpds.sample_realization(ex41, "midpoint")
    s = StateVector(x=[8.6, -7.3, -5.2], y=[6.7, -8.5])
    got = weighted_norm(w41, scaled_step(ex41, real)(s.as_array()))

    x, y = np.array(s.x), np.array(s.y)
    H, L = ex41.H, ex41.L
    vx = x - ex41.rho * (real[:3, :3] @ x + real[:3, 3:] @ y + ex41.a)
    vy = y - ex41.lam * (real[3:, 3:] @ y + real[3:, :3] @ x + ex41.b)
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


def test_stalled_step_norm_stops_unconverged(ex41):
    # at tol 1e-13 example-4.1's step stalls at its rounding floor, above the
    # stop threshold: the solve ends at the first repeated step norm rather
    # than running out max_iter
    real = fpds.sample_realization(ex41, "lower")
    eq = picard_solve(ex41, real, fpds.find_weights(ex41), tol=1e-13)
    assert not eq.converged and eq.iterations == 6 == eq.step_norms.size
    steps = eq.step_norms
    assert steps[-1] in steps[-3:-1]
    assert len(set(steps[:-1])) == steps.size - 1     # no earlier repeat


@pytest.mark.parametrize("kwargs,match", [
    ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"), ({"tol": 0.0}, "tol"),
    ({"tol": -1e-10}, "tol"), ({"max_iter": 0}, "max_iter"),
    ({"max_iter": 10.0}, "max_iter must be an integer"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    ({"max_iter": True}, "max_iter must be an integer, not bool"),
])
def test_solver_argument_validation(ex42, w42, kwargs, match):
    real = fpds.sample_realization(ex42, "lower")
    with pytest.raises(fpds.SpecError, match=match):
        picard_solve(ex42, real, w42, **kwargs)


def test_numpy_integer_max_iter_is_accepted(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42, max_iter=np.int64(2), tol=1e-12)
    assert eq.iterations == 2


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
def test_picard_solve_point_is_fixed_by_project_implicit(scenario, selector):
    # the exact finish lands on the fixed point up to rounding: one step of
    # z <- project_implicit(S, K, z, z - r (M z + c)) from the solver's point
    # moves it by no more than rounding (plain Picard leaves up to tol)
    spec = fpds.builtin_scenario(scenario)
    blk = spec.blocks
    real = fpds.sample_realization(spec, selector, seed=6)
    got = picard_solve(spec, real, fpds.find_weights(spec)).point.as_array()
    z = fpds.project_implicit(blk.S, blk.box, got, got - blk.r * (real @ got + blk.c))
    assert np.abs(got - z).max() <= 1e-14 * np.abs(got).max()


def _plain(monkeypatch):
    """Turn the exact finish off: picard_solve is then plain Picard."""
    monkeypatch.setattr(fpds.equilibrium, "_worth_solving", lambda *args: False)


def _solves(monkeypatch):
    """Record the size of every linear solve that picard_solve makes."""
    sizes, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: sizes.append(b.size) or solve(A, b))
    return sizes


@pytest.mark.parametrize("size", [5, 17, 60, 150, 300])
def test_exact_finish_on_random_networks(size):
    # against plain Picard run to its rounding floor (a tol far below it):
    # every point is within tol, the step norms still contract by kappa, and
    # no solve takes more iterations than plain Picard
    spec = random_network(size, size)
    w = fpds.find_weights(spec)
    kappa, tol = fpds.certificate(spec, w).kappa, 1e-10
    for selector in ("lower", "upper", "random"):
        real = fpds.sample_realization(spec, selector, seed=size)
        eq = picard_solve(spec, real, w, tol=tol)
        with pytest.MonkeyPatch.context() as mp:
            _plain(mp)
            plain = picard_solve(spec, real, w, tol=tol)
            floor = picard_solve(spec, real, w, tol=1e-300)
        assert eq.converged and not floor.converged
        assert w.as_array() @ np.abs(eq.point.as_array() - floor.point.as_array()) <= tol
        steps = eq.step_norms
        assert np.all(steps[1:] <= kappa * steps[:-1] + 1e-15)
        assert eq.iterations <= plain.iterations


def test_a_dropped_jump_still_converges(monkeypatch):
    # 1-D, P(x) = clamp(0.9 x + 10, -1000, 10) from x = -50: the first two
    # steps stay inside the box, so the first jump goes to that piece's fixed
    # point 100, where the step (to 10) is 90 > kappa 13.5. It is dropped and
    # plain Picard goes on (third step 12.15, not 90) to the fixed point 10
    spec = make_1d_spec(A=1.0, a=-100.0, rho=0.1, lo=-1000.0, hi=10.0)
    w = Weights(mu=[1.0], tau=[])
    sizes = _solves(monkeypatch)
    eq = picard_solve(spec, fpds.sample_realization(spec, "lower"), w,
                      start=StateVector(x=[-50.0], y=[]))
    assert sizes == [1]
    assert eq.converged and eq.point.x[0] == 10.0
    np.testing.assert_allclose(eq.step_norms[:3], [15.0, 13.5, 12.15], rtol=1e-12)
    assert np.all(eq.step_norms[1:] <= 0.9 * eq.step_norms[:-1] * (1 + 1e-12))


def test_size_rule(monkeypatch):
    # a solve is tried only while d < 6 n, n the iterations left at the
    # observed rate: at rate 1/2, 30 halvings from 1 down to 2^-30
    worth = fpds.equilibrium._worth_solving
    assert worth(179, 1.0, 2.0, 2.0 ** -30) and not worth(181, 1.0, 2.0, 2.0 ** -30)
    assert worth(10_000, 1.0, 1.0, 1e-10)         # no fall: the rounding floor
    # 300 unknowns with about 30 iterations left: no solve, so the result is
    # plain Picard's bitwise; 17 unknowns: a solve and far fewer iterations
    spec = random_network(300, 300)
    w = fpds.find_weights(spec)
    real = fpds.sample_realization(spec, "lower")
    sizes = _solves(monkeypatch)
    eq = picard_solve(spec, real, w)
    assert sizes == []
    _plain(monkeypatch)
    plain = picard_solve(spec, real, w)
    np.testing.assert_array_equal(eq.point.as_array(), plain.point.as_array())
    np.testing.assert_array_equal(eq.step_norms, plain.step_norms)
    small = random_network(17, 17)
    w = fpds.find_weights(small)
    real = fpds.sample_realization(small, "lower")
    plain = picard_solve(small, real, w)
    monkeypatch.undo()
    sizes = _solves(monkeypatch)
    eq = picard_solve(small, real, w)
    assert sizes == [17] and eq.iterations < plain.iterations / 3
