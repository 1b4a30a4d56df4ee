import dataclasses
import math
import platform
import sys
import warnings

import numpy as np
import pytest

import fpds
from fpds import (StateVector, Weights, envelope_check, integrate,
                  mittag_leffler, picard_solve)

from conftest import (exact_linear_solution, make_linear_spec, make_scalar_decay_spec,
                      random_network, scaled_step)

EPS = np.finfo(float).eps


def scalar_decay_traj(alpha, t_end=1.0, steps=2000):
    spec = make_scalar_decay_spec(alpha)
    real = fpds.sample_realization(spec, "lower")
    return spec, real, integrate(spec, real, StateVector(x=[1.0], y=[]),
                                 t_end, steps)


def test_equilibrium_start_stays_constant(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42, tol=1e-13)
    traj = integrate(ex42, real, eq.point, 5.0, 500)
    drift = np.max(np.abs(traj.states - eq.point.as_array()))
    assert drift < 1e-11


def test_alpha_one_exponential_decay():
    # at alpha = 1 the dynamics reduce to x' = -x
    spec, real, traj = scalar_decay_traj(1.0, t_end=2.0, steps=2000)
    expect = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expect)) < 1e-6


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.9, 1.0])
def test_matches_mittag_leffler_solution(alpha):
    # exact solution of the engineered scalar system is E_alpha(-t^alpha)
    spec, real, traj = scalar_decay_traj(alpha)
    exact = mittag_leffler(alpha, 1.0, -1.0)
    got = traj.states[-1, 0]
    assert abs(got - exact) / abs(exact) <= 1e-3


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.9, 1.0])
def test_halving_step_reduces_error(alpha):
    exact = mittag_leffler(alpha, 1.0, -1.0)
    spec = make_scalar_decay_spec(alpha)
    real = fpds.sample_realization(spec, "lower")
    errs = []
    for steps in (500, 1000, 2000):
        traj = integrate(spec, real, StateVector(x=[1.0], y=[]), 1.0, steps)
        errs.append(abs(traj.states[-1, 0] - exact))
    assert errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.9, 1.0])
def test_observed_convergence_order(alpha):
    # the fractional Adams PECE error at a fixed time is O(h^min(2, 1 + alpha))
    # for this smooth problem (Diethelm, Ford & Freed 2004)
    exact = mittag_leffler(alpha, 1.0, -1.0)
    spec = make_scalar_decay_spec(alpha)
    real = fpds.sample_realization(spec, "lower")
    errs = [abs(integrate(spec, real, StateVector(x=[1.0], y=[]), 1.0, steps).states[-1, 0]
                - exact) for steps in (500, 1000, 2000)]
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) == pytest.approx(min(2.0, 1.0 + alpha), abs=0.1)


def test_single_step_matches_heun_at_alpha_one():
    # one fresh-memory step at alpha = 1 is exactly the Euler/trapezoid pair
    spec = make_scalar_decay_spec(1.0)
    real = fpds.sample_realization(spec, "lower")
    h = 0.01
    x = 1.0
    for _ in range(20):
        traj = integrate(spec, real, StateVector(x=[x], y=[]), h, 1)
        got = traj.states[1, 0]
        pred = x + h * (-x)
        heun = x + 0.5 * h * ((-x) + (-pred))
        assert got == pytest.approx(heun, rel=1e-12)
        x = got


def test_trajectory_grid_and_state_accessor(ex41):
    real = fpds.sample_realization(ex41, "midpoint")
    z0 = StateVector(x=ex41.box1.midpoint(), y=ex41.box2.midpoint())
    traj = integrate(ex41, real, z0, 2.0, 40)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0)
    assert traj.states.shape == (41, 5)
    np.testing.assert_array_equal(traj.states[0], np.concatenate([z0.x, z0.y]))


@pytest.mark.parametrize("scenario,x0,y0", [
    ("example-4.1", [8.6, -7.3, -5.2], [6.7, -8.5]),
    ("example-4.2", [5.8, -4.2], []),
])
@pytest.mark.parametrize("selector", ["lower", "upper"])
def test_envelope_passes_for_builtin_examples(scenario, x0, y0, selector):
    spec = fpds.builtin_scenario(scenario)
    w = (Weights(mu=np.ones(spec.n), tau=np.ones(spec.m)) if spec.m
         else Weights(mu=[2.0, 1.0], tau=[]))
    cert = fpds.certificate(spec, w)
    assert cert.passed
    real = fpds.sample_realization(spec, selector)
    eq = picard_solve(spec, real, w, tol=1e-11)
    traj = integrate(spec, real, StateVector(x=x0, y=y0), 20.0, 2000)
    report = envelope_check(traj, eq, w, cert.theta, slack=0.05)
    assert report.passed
    assert report.violations == 0
    assert report.max_ratio <= 1.05


def make_diag_spec(A, gains):
    """x' = g (clamp((1 - A) x) - x) on the box +-100, alpha = 0.8: inside
    the box coordinate j decays at exactly g_j (1 - kappa_j), kappa_j =
    |1 - A_j|, so the certificate's min_j g_j (1 - kappa_j) is the exact
    rate of the slowest one."""
    d, z = len(A), np.zeros
    return fpds.validate_system(fpds.SystemSpec(
        n=d, m=0, alpha=0.8, rho=1.0, lam=1.0, a=z(d), b=[],
        A=fpds.IntervalMatrix(np.diag(A), np.diag(A)),
        Astar=fpds.IntervalMatrix(z((d, 0)), z((d, 0))),
        B=fpds.IntervalMatrix(z((0, 0)), z((0, 0))),
        Bstar=fpds.IntervalMatrix(z((0, d)), z((0, d))),
        H=z((d, d)), L=z((0, 0)),
        box1=fpds.BoxSet(np.full(d, -100.0), np.full(d, 100.0)),
        box2=fpds.BoxSet([], []), gains=gains,
    ))


@pytest.mark.parametrize("A,gains,x0", [
    ([0.5], [0.2], [5.0]),
    ([0.5, 0.7, 0.3], [0.2, 1.5, 0.6], [5.0, 0.0, 0.0]),
])
def test_gains_aware_theta_is_the_exact_rate(A, gains, x0):
    # the slowest coordinate, started alone, decays at exactly 0.1; the
    # gains-blind 1 - kappa (0.5 in 1-D, 0.3 in 3-D) is too fast a rate
    spec = make_diag_spec(A, gains)
    w = Weights(mu=np.ones(len(A)), tau=[])
    cert = fpds.certificate(spec, w)
    assert cert.passed and cert.theta == pytest.approx(0.1, rel=1e-15)
    real = fpds.sample_realization(spec, "lower")
    eq = picard_solve(spec, real, w)
    traj = integrate(spec, real, StateVector(x=x0, y=[]), 30.0, 6000)

    def ratio(theta):
        return envelope_check(traj, eq, cert.envelope_weights, theta).max_ratio

    assert ratio(cert.theta) < 1.0 + 1e-6
    assert ratio(1.1 * cert.theta) > 1.1
    assert ratio(1.0 - cert.kappa) > 3.0


@pytest.mark.parametrize("scenario", fpds.BUILTIN_NAMES)
def test_envelope_holds_at_the_certified_rate_across_the_family(scenario):
    # random realizations, unit and mixed gains, from the box midpoint and
    # from a far start: every run stays under the certificate's envelope
    plain = fpds.builtin_scenario(scenario)
    rng = np.random.default_rng(5)
    d = plain.n + plain.m
    w = fpds.find_weights(plain)
    mid = plain.blocks.box.midpoint()
    starts = (mid, mid + 20.0 * rng.choice([-1.0, 1.0], d))
    for gains in (None, rng.uniform(0.3, 3.0, d)):
        spec = fpds.builtin_scenario(scenario, gains=gains)
        cert = fpds.certificate(spec, w)
        for seed in range(10):
            real = fpds.sample_realization(spec, "random", seed=seed)
            eq = picard_solve(spec, real, w)
            for z0 in starts:
                traj = integrate(spec, real, StateVector.split(z0, spec.n), 20.0, 400)
                assert envelope_check(traj, eq, cert.envelope_weights, cert.theta).passed


def test_constructed_violation_fails(ex42, w42):
    # freeze the tail at the initial distance: V(t) = V(0) must eventually
    # exceed the decaying envelope
    real = fpds.sample_realization(ex42, "lower")
    cert = fpds.certificate(ex42, w42)
    eq = picard_solve(ex42, real, w42, tol=1e-11)
    traj = integrate(ex42, real, StateVector(x=[5.8, -4.2], y=[]), 20.0, 400)
    states = np.array(traj.states)
    half = states.shape[0] // 2
    states[half:] = states[0]
    fake = fpds.Trajectory(times=traj.times, states=states, alpha=traj.alpha)
    report = envelope_check(fake, eq, w42, cert.theta, slack=0.05)
    assert not report.passed
    assert report.violations > 0
    assert report.max_ratio > 1.05


def test_stationary_start_passes_trivially(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    cert = fpds.certificate(ex42, w42)
    eq = picard_solve(ex42, real, w42, tol=1e-13)
    traj = integrate(ex42, real, eq.point, 5.0, 200)
    report = envelope_check(traj, eq, w42, cert.theta)
    assert report.passed
    assert report.v0 <= 1e-9
    assert report.max_ratio == 0.0


def test_envelope_underflow_counts_zero_over_zero_as_zero():
    # alpha = 1: V and the envelope are both v0 exp(-theta t), and both
    # underflow to exactly 0 beyond t ~ 745/theta
    theta, v0 = 1.0, 1.0
    times = np.linspace(0.0, 3000.0, 3001)
    states = np.array([[v0 * math.exp(-theta * t)] for t in times])
    assert np.count_nonzero(states == 0.0) > 1000
    traj = fpds.Trajectory(times=times, states=states, alpha=1.0)
    eq = fpds.Equilibrium(point=StateVector(x=[0.0], y=[]), iterations=1,
                          residual=0.0, a_priori_bound=0.0, converged=True,
                          step_norms=np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = envelope_check(traj, eq, Weights(mu=[1.0], tau=[]), theta)
    assert report.passed
    assert report.violations == 0
    assert math.isfinite(report.max_ratio)
    assert report.max_ratio == pytest.approx(1.0)


def test_envelope_ratio_beyond_float_range_is_inf():
    # at t = 2 the envelope exp(-368 t) is subnormal and V / env overflows
    # (V = 1e-8 stays above ZERO_TOL, so the point is checked)
    traj = fpds.Trajectory(times=np.array([0.0, 1.0, 2.0]),
                           states=np.array([[1.0], [0.5], [1e-8]]), alpha=1.0)
    eq = fpds.Equilibrium(point=StateVector(x=[0.0], y=[]), iterations=1,
                          residual=0.0, a_priori_bound=0.0, converged=True,
                          step_norms=np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = envelope_check(traj, eq, Weights(mu=[1.0], tau=[]), 368.0)
    assert report.violations == 2
    assert report.max_ratio == math.inf
    assert not report.passed


def test_envelope_zero_tol_applies_where_envelope_is_tiny():
    # alpha = 1, V = v0 exp(-theta t) + 1e-12: far out the envelope is tiny
    # but nonzero, and V, at the level of an equilibrium error, is below
    # ZERO_TOL there, so those points pass
    theta, v0 = 1.0, 1.0
    times = np.linspace(0.0, 740.0, 741)
    states = np.array([[v0 * math.exp(-theta * t) + 1e-12] for t in times])
    traj = fpds.Trajectory(times=times, states=states, alpha=1.0)
    eq = fpds.Equilibrium(point=StateVector(x=[0.0], y=[]), iterations=1,
                          residual=0.0, a_priori_bound=0.0, converged=True,
                          step_norms=np.zeros(1))
    assert 0.0 < mittag_leffler(1.0, 1.0, -theta * times[-1]) < 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = envelope_check(traj, eq, Weights(mu=[1.0], tau=[]), theta)
    assert report.passed
    assert report.violations == 0
    # where V > ZERO_TOL the offset adds at most 1e-12 / 1e-9 to the ratio
    assert 1.0 <= report.max_ratio <= 1.001


@pytest.mark.parametrize("kwargs,match", [
    ({"slack": math.nan}, "slack"), ({"slack": math.inf}, "slack"),
    ({"slack": -0.1}, "slack"), ({"theta": math.nan}, "theta"),
    ({"theta": math.inf}, "theta"), ({"theta": 0.0}, "theta"),
])
def test_envelope_argument_validation(ex42, w42, kwargs, match):
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42)
    traj = integrate(ex42, real, StateVector(x=[5.8, -4.2], y=[]), 1.0, 10)
    args = {"theta": 0.05, **kwargs}
    with pytest.raises(fpds.SpecError, match=match):
        envelope_check(traj, eq, w42, **args)


@pytest.mark.parametrize("first,entries", [(1, np.s_[1:]), (137, np.s_[137, 1]),
                                           (400, np.s_[400, 0])])
def test_envelope_nan_trajectory_is_named(ex42, w42, first, entries):
    # a NaN V is never above the envelope, so it must not read as a pass
    real = fpds.sample_realization(ex42, "lower")
    eq = picard_solve(ex42, real, w42)
    traj = integrate(ex42, real, StateVector(x=[5.8, -4.2], y=[]), 20.0, 400)
    traj.states[entries] = math.nan
    with pytest.raises(fpds.SpecError, match=f"V is NaN at grid index {first}$"):
        envelope_check(traj, eq, w42, 0.05)


def test_envelope_nan_equilibrium_is_named(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    traj = integrate(ex42, real, StateVector(x=[5.8, -4.2], y=[]), 1.0, 10)
    eq = picard_solve(ex42, real, w42)
    eq = dataclasses.replace(eq, point=StateVector(x=[math.nan, eq.point.x[1]], y=[]))
    with pytest.raises(fpds.SpecError, match="V is NaN at grid index 0$"):
        envelope_check(traj, eq, w42, 0.05)


def test_envelope_equilibrium_of_wrong_size(ex41, ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    traj = integrate(ex42, real, StateVector(x=[5.8, -4.2], y=[]), 1.0, 10)
    eq41 = picard_solve(ex41, fpds.sample_realization(ex41, "lower"),
                        Weights(mu=np.ones(3), tau=np.ones(2)))
    with pytest.raises(fpds.SpecError,
                       match="dimension mismatch between trajectory and equilibrium"):
        envelope_check(traj, eq41, w42, 0.05)


def test_two_starts_approach_each_other(ex42, w42):
    # global attractivity: trajectories from different starts close in
    real = fpds.sample_realization(ex42, "upper")
    t1 = integrate(ex42, real, StateVector(x=[5.8, -4.2], y=[]), 20.0, 800)
    t2 = integrate(ex42, real, StateVector(x=[-2.0, 3.0], y=[]), 20.0, 800)
    gap = np.abs(t1.states - t2.states).sum(axis=1)
    assert gap[-1] < 0.02 * gap[0]


def test_argument_validation(ex42):
    real = fpds.sample_realization(ex42, "lower")
    z0 = StateVector(x=[1.0, 1.0], y=[])
    with pytest.raises(fpds.SpecError, match="steps"):
        integrate(ex42, real, z0, 1.0, 0)
    for t_end in (-1.0, math.nan, math.inf):
        with pytest.raises(fpds.SpecError, match="t_end"):
            integrate(ex42, real, z0, t_end, 10)
    for steps in (2.5, 10.0, "10", True):
        with pytest.raises(fpds.SpecError, match="steps must be an integer"):
            integrate(ex42, real, z0, 1.0, steps)


@pytest.mark.parametrize("t_end,steps", [(5e-324, 3), (1e-320, 1000), (1e-310, 10)])
def test_zero_or_subnormal_step_size_is_rejected(ex42, t_end, steps):
    # h = t_end / steps underflows to 0 or below the smallest normal float,
    # where the grid cannot advance: a named error, not a trajectory at t = 0
    real = fpds.sample_realization(ex42, "lower")
    with pytest.raises(fpds.SpecError, match="step size h"):
        integrate(ex42, real, StateVector(x=[1.0, 1.0], y=[]), t_end, steps)


def test_smallest_normal_step_size_runs(ex42):
    real = fpds.sample_realization(ex42, "lower")
    tiny = np.finfo(float).tiny
    traj = integrate(ex42, real, StateVector(x=[1.0, 1.0], y=[]), 2 * tiny, 2)
    assert traj.times[-1] == 2 * tiny and np.isfinite(traj.states).all()


def test_numpy_integer_steps_are_accepted(ex42):
    real = fpds.sample_realization(ex42, "lower")
    z0 = StateVector(x=[1.0, 1.0], y=[])
    got = integrate(ex42, real, z0, 1.0, np.int64(100)).states
    np.testing.assert_array_equal(got, integrate(ex42, real, z0, 1.0, 100).states)


def test_non_finite_state_raises():
    # gain blow-up drives the corrector to overflow; the step index is carried
    spec = fpds.validate_system(fpds.SystemSpec(
        n=1, m=0, alpha=0.9, rho=1.0, lam=1.0, a=[0.0], b=[],
        A=fpds.IntervalMatrix([[-3.0]], [[-3.0]]),
        Astar=fpds.IntervalMatrix(np.zeros((1, 0)), np.zeros((1, 0))),
        B=fpds.IntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0))),
        Bstar=fpds.IntervalMatrix(np.zeros((0, 1)), np.zeros((0, 1))),
        H=[[0.0]], L=np.zeros((0, 0)),
        box1=fpds.BoxSet([-1e300], [1e300]), box2=fpds.BoxSet([], []),
        gains=[1e3],
    ))
    real = fpds.sample_realization(spec, "lower")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(fpds.IntegrationError, match=r"h = 0\.5\b.*raise steps") as exc:
            integrate(spec, real, StateVector(x=[1.0], y=[]), 100.0, 200)
    assert exc.value.step == 51
    assert exc.value.h == 0.5


# example-4.1 with distinct gains exercises the gains folded into the
# right-hand side's clamp bounds on a shifted box (traffic-gstm has H = 0)
ORACLE_CASES = [("example-4.1", None), ("example-4.2", None),
                ("traffic-gstm", [1.0, 1.0, 2.0, 1.0]),
                ("example-4.1", [0.3, 2.0, 1.7, 0.9, 5.0])]


def _reference_rhs(spec, M):
    """gains * (P(z) - z) with the Picard map written out through the public
    project_implicit, one product at a time."""
    blk = spec.blocks

    def f(z):
        v = z - blk.r * (M @ z + blk.c)
        return spec.gains * (fpds.project_implicit(blk.S, blk.box, z, v) - z)
    return f


def _reference_abm(spec, real, z0, t_end, steps):
    """The fractional Adams-Bashforth-Moulton PECE loop, term by term: every
    weight from its formula and each history sum on its own."""
    f = _reference_rhs(spec, real)
    alpha = spec.alpha
    h = t_end / steps
    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)
    Z = [z0]
    F = [f(z0)]
    for k in range(steps):
        pred = z0 + c_pred * sum(((k + 1 - j) ** alpha - (k - j) ** alpha) * F[j]
                                 for j in range(k + 1))
        corr = (k ** (alpha + 1) - (k - alpha) * (k + 1) ** alpha) * F[0]
        for j in range(1, k + 1):
            corr = corr + ((k - j + 2) ** (alpha + 1) + (k - j) ** (alpha + 1)
                           - 2 * (k - j + 1) ** (alpha + 1)) * F[j]
        Z.append(z0 + c_corr * (corr + f(pred)))
        F.append(f(Z[-1]))
    return np.array(Z)


@pytest.mark.parametrize("steps", [1, 2, 3, 50, 65, 130])
@pytest.mark.parametrize("selector", ["lower", "upper", "random"])
@pytest.mark.parametrize("scenario,gains", ORACLE_CASES)
def test_integrate_matches_reference_abm(scenario, gains, selector, steps):
    # steps 1 to 3 cover the empty and one-term history sums; 65 and 130
    # cross the first leaf edge and the first FFT level of the far history
    spec = fpds.builtin_scenario(scenario, gains=gains)
    real = fpds.sample_realization(spec, selector, seed=5)
    # off the box midpoint, so that some rows clamp and some do not
    z0 = np.concatenate([spec.box1.midpoint() + 1.5, spec.box2.midpoint() - 0.5])
    traj = integrate(spec, real, StateVector.split(z0, spec.n), 2.0, steps)
    ref = _reference_abm(spec, real, z0, 2.0, steps)
    assert traj.states.shape == ref.shape
    np.testing.assert_allclose(traj.states, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("selector", ["lower", "upper", "random"])
@pytest.mark.parametrize("scenario,gains", ORACLE_CASES)
def test_picard_map_and_rhs_match_project_implicit(scenario, gains, selector):
    # relative to the larger of |z| and |P(z)|: where the shifted clamp makes
    # P(z) much smaller than z, both sides round at the scale of z
    spec = fpds.builtin_scenario(scenario, gains=gains)
    real = fpds.sample_realization(spec, selector, seed=5)
    blk = spec.blocks
    f = _reference_rhs(spec, real)
    step, rhs = scaled_step(spec, real), scaled_step(spec, real, spec.gains)
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = blk.box.midpoint() + rng.normal(scale=3.0, size=blk.r.size)
        p_ref = fpds.project_implicit(blk.S, blk.box, z, z - blk.r * (real @ z + blk.c))
        scale = max(np.abs(z).max(), np.abs(p_ref).max())
        p_got = z + step(z)
        assert np.abs(p_got - p_ref).max() <= 1e-15 * scale
        r_got = rhs(z)
        assert np.abs(r_got - f(z)).max() <= 1e-15 * scale * spec.gains.max()


def _check_against_exact(spec, z0, bound, free=None):
    """integrate's trajectory at t_end 20 and 4000 steps, and the exact one
    of exact_linear_solution, once the largest relative error, taken
    against max(1, |z|), is at most bound and the observed order from 2000
    steps, read from t = 1 on, at least 1 + alpha - 0.1."""
    M, start = spec.blocks.M_lo, StateVector.split(z0, spec.n)
    errors = []
    for steps in (2000, 4000):
        traj = integrate(spec, M, start, 20.0, steps)
        exact = exact_linear_solution(spec, z0, traj.times, free)
        err = np.abs(traj.states - exact) / np.maximum(1.0, np.abs(exact))
        errors.append(err[traj.times >= 1.0].max())
    assert err.max() <= bound
    assert math.log2(errors[0] / errors[1]) >= 1.0 + spec.alpha - 0.1
    return traj, exact


# the largest error over the whole grid sits at the first steps for alpha =
# 0.5, where z - z0 grows like t^alpha, and its order there is irregular; the
# order is read from t = 1 on, where it is about 1 + alpha
@pytest.mark.parametrize("seed,alpha,bound", [
    (1, 0.5, 1.2e-3), (1, 0.8, 1.8e-4), (1, 0.95, 4.3e-5),
    (2, 0.5, 2.1e-3), (2, 0.8, 5.6e-5), (2, 0.95, 1.6e-5),
])
def test_integrate_against_the_exact_solution_of_a_coupled_linear_spec(seed, alpha, bound):
    spec = make_linear_spec(seed, alpha)
    _check_against_exact(spec, np.linspace(-2.0, 3.0, spec.n + spec.m), bound)


# t_end 1000 at 16000 steps (h = 1/16), where PECE is stable on these specs;
# the largest error over the whole grid sits in the first ten steps. At 4000
# steps (h = 1/4) the same runs return errors of 1.8e8 at alpha = 0.5 with
# finite states and raise nothing (ROADMAP item 4), so that case is not pinned
@pytest.mark.parametrize("seed,alpha,bound", [
    (1, 0.5, 2.8e-1), (1, 0.8, 1.3e-2), (1, 0.95, 6.9e-3),
    (2, 0.5, 8.2e-2), (2, 0.8, 3.7e-3), (2, 0.95, 2.2e-3),
])
def test_integrate_against_the_exact_solution_over_a_long_horizon(seed, alpha, bound):
    spec = make_linear_spec(seed, alpha)
    z0 = np.linspace(-2.0, 3.0, spec.n + spec.m)
    traj = integrate(spec, spec.blocks.M_lo, StateVector.split(z0, spec.n), 1000.0, 16000)
    exact = exact_linear_solution(spec, z0, traj.times)
    assert (np.abs(traj.states - exact) / np.maximum(1.0, np.abs(exact))).max() <= bound


@pytest.mark.parametrize("alpha,bound", [(0.5, 1.4e-3), (0.8, 6.1e-5), (0.95, 2.1e-5)])
def test_integrate_against_the_exact_solution_on_a_fixed_clamp_pattern(alpha, bound):
    # x row 1 held at its upper bound and y row 1 (row 4) at its lower one:
    # on that pattern f is affine, and the three free rows follow their
    # exact solution with the clamped rows as constants, as long as both
    # trajectories stay in the pattern's region
    spec = make_linear_spec(1, alpha, clamp=[(1, 1, 0.5), (4, -1, -1.0)])
    z0 = np.linspace(-2.0, 3.0, 5)
    z0[[1, 4]] = [0.5, -1.0]
    traj, exact = _check_against_exact(spec, z0, bound, free=[0, 2, 3])
    f = fpds.projection.rhs_form(spec, spec.blocks.M_lo, np.ones(5))
    lo_p, hi_p = f.region(np.array([0, 1, 0, 0, -1], dtype=np.int8))
    for states in (traj.states, exact):
        u = states @ f.R[5:].T
        assert np.all((lo_p <= u) & (u <= hi_p))


def _direct_pece(spec, real, z0, t_end, steps):
    """The PECE loop step by step, each step summing its whole history with
    one product over reversed, stacked weights, and the right-hand side in
    the affine-clamp forms of `projection.rhs_form`; the first non-finite
    state, found by one scan after the loop, raises IntegrationError."""
    alpha = spec.alpha
    h = t_end / steps
    idx = np.arange(steps + 2, dtype=float)
    pa = idx ** alpha
    pa1 = idx ** (alpha + 1.0)
    b_w = pa[1:] - pa[:-1]
    a_w = pa1[2:] + pa1[:-2] - 2.0 * pa1[1:-1]
    a0 = pa1[:steps] - (idx[:steps] - alpha) * pa[1 : steps + 1]
    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)
    # W[0, p] = c_pred b_w[steps-1-p] and W[1, p] = c_corr a_{steps-p}: at
    # step k the slice p >= steps-k meets F_j, j = p - steps + k + 1
    W = np.stack([c_pred * b_w[steps - 1 :: -1], c_corr * a_w[::-1]])
    J0 = np.stack([c_pred * b_w[:steps], c_corr * a0], axis=1)
    Z = np.empty((steps + 1, z0.size))
    F = np.empty_like(Z)
    Z[0] = z0
    y = np.empty((2, z0.size))
    pred, corr = y
    with np.errstate(over="ignore", invalid="ignore"):
        f = fpds.projection.rhs_form(spec, real, spec.gains)
        f_corr = fpds.projection.rhs_form(spec, real, c_corr * spec.gains)
        f(z0, F[0])
        base = z0 + J0[:, :, None] * F[0]
        for k in range(steps):
            np.matmul(W[:, steps - k :], F[1 : k + 1], out=y)
            y += base[k]
            f_corr(pred, Z[k + 1])
            Z[k + 1] += corr
            f(Z[k + 1], F[k + 1])
    finite = np.isfinite(Z).all(axis=1)
    if not finite.all():
        raise fpds.IntegrationError(int(np.argmin(finite)), h)
    return Z


@pytest.mark.parametrize("steps", [129, 256, 257, 513, 1000, 4000])
@pytest.mark.parametrize("selector", ["lower", "upper", "random"])
@pytest.mark.parametrize("scenario,gains", ORACLE_CASES)
def test_integrate_matches_direct_pece(scenario, gains, selector, steps):
    # the steps cross leaf edges, FFT levels up to 2048 and, from this start
    # off the box midpoint, changes of the clamp pattern. At 256 steps no
    # level is an FFT, so the scratch has no FFT buffers; at 513 the top
    # level, s = 512, adds its history to one row
    spec = fpds.builtin_scenario(scenario, gains=gains)
    real = fpds.sample_realization(spec, selector, seed=5)
    z0 = np.concatenate([spec.box1.midpoint() + 1.5, spec.box2.midpoint() - 0.5])
    traj = integrate(spec, real, StateVector.split(z0, spec.n), 20.0, steps)
    ref = _direct_pece(spec, real, z0, 20.0, steps)
    assert np.abs(traj.states - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("scenario,selector,step", [
    ("example-4.2", "lower", 299), ("example-4.1", "upper", 345),
    ("traffic-gstm", "random", 361)])
def test_unstable_step_raises_where_direct_pece_does(scenario, selector, step):
    # h = 5: the explicit predictor is unstable and the state overflows
    spec = fpds.builtin_scenario(scenario)
    real = fpds.sample_realization(spec, selector, seed=3)
    z0 = np.concatenate([spec.box1.midpoint(), spec.box2.midpoint()])
    with pytest.raises(fpds.IntegrationError) as ref:
        _direct_pece(spec, real, z0, 5000.0, 1000)
    with pytest.raises(fpds.IntegrationError) as got:
        integrate(spec, real, StateVector.split(z0, spec.n), 5000.0, 1000)
    assert (got.value.step, got.value.h) == (ref.value.step, ref.value.h) == (step, 5.0)


def test_blow_up_stops_at_the_first_non_finite_state(monkeypatch):
    # example-4.2 at h = 5 overflows at step 299 of 20000; the integrator
    # stops there instead of running the remaining steps. Each step it runs
    # evaluates the right-hand side at most twice
    spec = fpds.builtin_scenario("example-4.2")
    real = fpds.sample_realization(spec, "lower")
    calls = []
    call = fpds.projection.AffineClamp.__call__

    def counted(self, z, out):
        calls.append(1)
        return call(self, z, out)
    monkeypatch.setattr(fpds.projection.AffineClamp, "__call__", counted)
    with pytest.raises(fpds.IntegrationError) as exc:
        integrate(spec, real, StateVector(x=spec.box1.midpoint(), y=[]), 5.0 * 20000, 20000)
    assert exc.value.step == 299
    assert len(calls) < 2 * (299 + 64)


def _count_block_rows(monkeypatch):
    """Wrap `_Linear.block` and return a list that gathers, per call, the
    rows asked for, the rows kept, the block's first step and its leaf's."""
    seen = []
    block = fpds.fde._Linear.block

    def counted(self, near, Fs, Zs, leaf, k, base):
        kept = block(self, near, Fs, Zs, leaf, k, base)
        seen.append((base.shape[0], kept, k, leaf))
        return kept
    monkeypatch.setattr(fpds.fde._Linear, "block", counted)
    return seen


@pytest.mark.parametrize("scenario,selector,t_end,steps", [
    ("traffic-gstm", "lower", 350.0, 350), ("traffic-gstm", "upper", 350.0, 350),
    ("example-4.1", "lower", 20.0, 4000)])
def test_every_block_asks_for_the_rest_of_its_leaf(monkeypatch, scenario, selector,
                                                   t_end, steps):
    # a block asks for as many rows as it may have, up to the end of its
    # leaf, after a probe as after a block that kept every row. traffic-gstm
    # from the box midpoint walks through six or seven clamp patterns in its
    # first 20 steps; example-4.1 keeps one pair across every leaf end
    seen = _count_block_rows(monkeypatch)
    spec = fpds.builtin_scenario(scenario)
    real = fpds.sample_realization(spec, selector)
    z0 = StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint())
    integrate(spec, real, z0, t_end, steps)
    leaf_len = fpds.fde.LEAF
    longest = min(leaf_len, fpds.fde.BLOCK_SIZE // (spec.n + spec.m))
    assert [rows for rows, _, _, _ in seen] == [
        min(longest, min(leaf + leaf_len, steps) - k) for _, _, k, leaf in seen]
    assert sum(kept for _, kept, _, _ in seen) > 300


def test_blocks_continue_without_a_probe(monkeypatch):
    # example-4.1 at 4000 steps keeps one pair of clamp patterns: after the
    # first probe every block, across every leaf end, runs without one (a
    # probe per leaf made 127 evaluations)
    spec = fpds.builtin_scenario("example-4.1")
    real = fpds.sample_realization(spec, "lower")
    calls = []
    call = fpds.projection.AffineClamp.__call__

    def counted(self, z, out):
        calls.append(1)
        return call(self, z, out)
    monkeypatch.setattr(fpds.projection.AffineClamp, "__call__", counted)
    z0 = StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint())
    traj = integrate(spec, real, z0, 20.0, 4000)
    assert np.isfinite(traj.states).all()
    assert len(calls) < 20


KEPT_ROW_CASES = [(name, selector) for name in fpds.BUILTIN_NAMES
                  for selector in ("lower", "upper", "random")] + [(16, "random"), (40, "random")]


@pytest.mark.parametrize("start", [0.0, 1.5])
@pytest.mark.parametrize("scenario,selector", KEPT_ROW_CASES)
def test_kept_rows_are_self_consistent(monkeypatch, scenario, selector, start):
    # a block gets a row's state, f(z) and both clamp arguments by one product
    # from the row's history sums, so its f(z) comes from the sums, not from
    # the stored state. Re-evaluated at every kept row, f gives the stored
    # derivative within a few ulps of the row's scale (the largest sum of
    # magnitudes of the terms either way adds up), and f and f_corr give the
    # block's pattern pair except where an argument lies exactly on a bound
    made, kept_rows = {}, []
    linear = fpds.fde._Linear

    def build(*args):
        lin = linear(*args)
        made[id(lin)] = args
        return lin
    block = linear.block

    def checked(self, near, Fs, Zs, leaf, k, base):
        kept = block(self, near, Fs, Zs, leaf, k, base)
        f, f_corr, pp, pz, _ = made[id(self)]
        d = pz.size
        i = k - leaf
        # the kept rows' predictor and corrector sums
        y = (near[: 2 * kept, : i + kept] @ Fs[leaf : k + kept]).reshape(kept, 2 * d)
        y += base[:kept].reshape(kept, 2 * d)
        fused = np.abs(y) @ np.abs(self.E[:, 2 * d : 3 * d]) + np.abs(self.e[2 * d : 3 * d])
        direct = np.abs(Zs[k : k + kept]) @ np.abs(f.R[:d] + f.R[d:]).T
        # |b_p| + |q|, b_p the bound term before the shift q
        direct += np.abs(np.where(pz < 0, f.lo, np.where(pz > 0, f.hi, 0.0))) + np.abs(f.q)
        for j in range(kept):
            z = Zs[k + j]
            scale = (fused[j] + direct[j]).max()
            assert np.abs(Fs[k + j] - f(z, np.empty(d))).max() <= 4 * EPS * scale
            for form, arg, want in ((f, z, pz), (f_corr, y[j, :d], pp)):
                form(arg, np.empty(d))
                u = form.R[d:] @ arg
                assert np.all((form.pattern() == want) | (u == form.lo) | (u == form.hi))
        kept_rows.append(kept)
        return kept
    monkeypatch.setattr(fpds.fde, "_Linear", build)
    monkeypatch.setattr(linear, "block", checked)
    if isinstance(scenario, int):
        spec = random_network(scenario, scenario)
    else:
        spec = fpds.builtin_scenario(scenario)
    real = fpds.sample_realization(spec, selector, seed=5)
    z0 = np.concatenate([spec.box1.midpoint() + start, spec.box2.midpoint() - start])
    integrate(spec, real, StateVector.split(z0, spec.n), 350.0, 350)
    assert sum(kept_rows) > 300


def test_trajectory_is_bitwise_equal_with_the_table_cache_cold_or_warm():
    spec = fpds.builtin_scenario("example-4.1")
    z0 = StateVector(x=spec.box1.midpoint() + 1.5, y=spec.box2.midpoint() - 0.5)
    reals = [fpds.sample_realization(spec, "random", seed=s) for s in (1, 2)]
    fpds.fde._tables.cache_clear()
    cold = [integrate(spec, real, z0, 20.0, 1000).states for real in reals]
    assert fpds.fde._tables.cache_info().misses == 1
    fpds.fde._tables.cache_clear()
    warm = [integrate(spec, real, z0, 20.0, 1000).states for real in reals[::-1]][::-1]
    assert fpds.fde._tables.cache_info().hits == 1
    for a, b in zip(cold, warm):
        np.testing.assert_array_equal(a, b)


def test_cached_tables_are_read_only():
    tab = fpds.fde._tables(0.9, 0.005, 4000)
    arrays = [tab.W, tab.start, tab.near, *tab.far]
    assert tab.start.shape == (8000, 2)
    assert len(tab.far) == 6       # s = 64, 128, ..., 2048
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
        with pytest.raises(ValueError):
            arr += 0.0


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts minor page faults under glibc's malloc on Linux")
def test_a_sweep_reuses_the_integrators_memory():
    # each call's working memory is one allocation of the same size, which
    # the next call takes back from the heap with its pages still mapped. On
    # Linux x86_64 with glibc 2.36 and numpy 2.4, ten calls after one warm-up
    # averaged 32 minor faults (the first of them 317, the rest 0), against
    # 292 a call when every temporary was its own array
    import resource
    spec = fpds.builtin_scenario("example-4.1")
    real = fpds.sample_realization(spec, "lower")
    z0 = StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint())
    integrate(spec, real, z0, 20.0, 4000)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        integrate(spec, real, z0, 20.0, 4000)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10 < 100


@pytest.mark.parametrize("steps", [129, 1000])
@pytest.mark.parametrize("scenario,gains", ORACLE_CASES[:3])
def test_probe_only_path_matches_direct_pece(monkeypatch, scenario, gains, steps):
    # systems of more than AFFINE_DIM unknowns run every step as a probe;
    # with the bound at 0 the builtins take that path
    monkeypatch.setattr(fpds.fde, "AFFINE_DIM", 0)
    spec = fpds.builtin_scenario(scenario, gains=gains)
    real = fpds.sample_realization(spec, "random", seed=5)
    z0 = np.concatenate([spec.box1.midpoint() + 1.5, spec.box2.midpoint() - 0.5])
    traj = integrate(spec, real, StateVector.split(z0, spec.n), 20.0, steps)
    ref = _direct_pece(spec, real, z0, 20.0, steps)
    assert np.abs(traj.states - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _random_spec(d, seed):
    """A random interval network of d unknowns, n = 2d/3 and m = d - n, whose
    point realizations are diagonally dominant."""
    rng = np.random.default_rng(seed)
    n = 2 * d // 3
    m = d - n

    def interval(rows, cols, diag=0.0):
        lo = rng.uniform(-0.3, 0.3, (rows, cols)) / max(cols, 1) + diag * np.eye(rows, cols)
        return fpds.IntervalMatrix(lo, lo + rng.uniform(0.0, 0.05, (rows, cols)) / max(cols, 1))
    return fpds.validate_system(fpds.SystemSpec(
        n=n, m=m, alpha=0.8, rho=0.5, lam=0.5, a=rng.uniform(-2, 2, n), b=rng.uniform(-2, 2, m),
        A=interval(n, n, 1.5), Astar=interval(n, m), B=interval(m, m, 1.5), Bstar=interval(m, n),
        H=rng.uniform(-0.02, 0.02, (n, n)), L=rng.uniform(-0.02, 0.02, (m, m)),
        box1=fpds.BoxSet(-np.ones(n), np.ones(n)), box2=fpds.BoxSet(-np.ones(m), np.ones(m)),
    ))


@pytest.mark.parametrize("d", [16, 24, fpds.fde.AFFINE_DIM])
def test_larger_systems_run_shorter_blocks_that_match_direct_pece(monkeypatch, d):
    # above d = 5 a block holds at most BLOCK_SIZE // d rows, so that its
    # product stays small; AFFINE_DIM is the largest system run in blocks
    seen = _count_block_rows(monkeypatch)
    spec = _random_spec(d, seed=d)
    real = fpds.sample_realization(spec, "random", seed=1)
    z0 = np.concatenate([spec.box1.midpoint() + 2.0, spec.box2.midpoint() - 2.0])
    traj = integrate(spec, real, StateVector.split(z0, spec.n), 20.0, 300)
    ref = _direct_pece(spec, real, z0, 20.0, 300)
    assert np.abs(traj.states - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
    assert sum(kept for _, kept, _, _ in seen) > 250
    assert max(rows for rows, _, _, _ in seen) == fpds.fde.BLOCK_SIZE // d


@pytest.mark.parametrize("rows", [1, 2, 7, 15, 16, 17, 33, 64])
def test_strip_solves_the_block_recurrence(monkeypatch, rows):
    # the strip's product for example-4.1's first pattern pair against
    # forward substitution F_r = G_r + sum_{l=1..r} K_l F_{r-l}; the product
    # is split after rows // 2 rows, so odd counts and both sides of 16 meet
    # its edges
    made = []
    linear = fpds.fde._Linear
    monkeypatch.setattr(fpds.fde, "_Linear", lambda *args: made.append(args) or linear(*args))
    spec = fpds.builtin_scenario("example-4.1")
    real = fpds.sample_realization(spec, "lower")
    integrate(spec, real, StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint()),
              20.0, 4000)
    lin = linear(*made[0])
    d = spec.n + spec.m
    G = np.random.default_rng(rows).standard_normal((rows, d))
    got = np.empty((rows, d))
    lin.solve(G, got)
    ref = G.copy()
    for r in range(rows):
        for l in range(1, r + 1):
            ref[r] += lin.Kh[:, (l - 1) * d : l * d] @ ref[r - l]
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _built_solvers(monkeypatch, scenario, selector, t_end, steps):
    """The `_Linear` solvers that integrate builds on the scenario from the
    box midpoint, each rebuilt from its arguments."""
    made = []
    linear = fpds.fde._Linear
    monkeypatch.setattr(fpds.fde, "_Linear", lambda *args: made.append(args) or linear(*args))
    spec = fpds.builtin_scenario(scenario)
    real = fpds.sample_realization(spec, selector)
    integrate(spec, real, StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint()),
              t_end, steps)
    return [linear(*args) for args in made]


@pytest.mark.parametrize("order", [(1, 64), (3, 7, 64), (2, 4, 8, 16, 32, 64)])
def test_strip_grows_in_any_order(monkeypatch, order):
    # the strip is whole once the solver is built, so every row count,
    # after any others, solves as forward substitution does
    lin = _built_solvers(monkeypatch, "example-4.1", "lower", 20.0, 4000)[0]
    d = lin.Kh.shape[0]
    for rows in order:
        G = np.random.default_rng(rows).standard_normal((rows, d))
        got = np.empty((rows, d))
        lin.solve(G, got)
        ref = G.copy()
        for r in range(rows):
            for l in range(1, r + 1):
                ref[r] += lin.Kh[:, (l - 1) * d : l * d] @ ref[r - l]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("scenario,selector,most", [
    ("traffic-gstm", "lower", 3), ("traffic-gstm", "upper", 3),
    ("example-4.1", "lower", 1)])
def test_a_pattern_pair_is_confirmed_before_its_solver_is_built(monkeypatch, scenario,
                                                                 selector, most):
    # traffic-gstm walks through six or seven pattern pairs in its first 20
    # steps; a pair gets a solver only once three probes in a row gave it
    # (six or seven solvers a run when the first probe built one)
    assert 1 <= len(_built_solvers(monkeypatch, scenario, selector, 350.0, 350)) <= most
