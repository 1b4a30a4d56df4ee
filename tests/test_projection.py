import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fpds
from fpds import BoxSet, StateVector, project_box, project_implicit

from conftest import make_1d_spec

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(n):
    return arrays(np.float64, n, elements=finite)


def test_clamp_above():
    assert project_box(BoxSet([0.0], [1.0]), np.array([2.0])) == pytest.approx(1.0)


def test_interior_point_unchanged():
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    v = np.array([0.25, -0.75])
    np.testing.assert_array_equal(project_box(box, v), v)


def test_example_41_box_clamp(ex41):
    out = project_box(ex41.box1, np.array([5.0, -2.0, 1.0]))
    np.testing.assert_array_equal(out, [4.0, -1.5, 1.0])


def test_zero_shift_reduces_to_box():
    box = BoxSet([0.0, 0.0], [1.0, 2.0])
    v = np.array([3.0, -1.0])
    out = project_implicit(np.zeros((2, 2)), box, np.array([5.0, 5.0]), v)
    np.testing.assert_array_equal(out, project_box(box, v))


def test_1d_shifted_projection():
    # shift 0.5, x = 2 puts the box at [1, 2]; projecting 3 gives 2
    out = project_implicit(np.array([[0.5]]), BoxSet([0.0], [1.0]),
                           np.array([2.0]), np.array([3.0]))
    assert out == pytest.approx(2.0)


def test_example_42_shifted_projection(ex42):
    # Hx = (-1.16, -0.462); clamping (5.8, -4.2) into Hx + box gives
    # (1.34, -0.462), worked out componentwise by hand
    x = np.array([5.8, -4.2])
    out = project_implicit(ex42.shifts.H, ex42.box1, x, x)
    np.testing.assert_allclose(out, [1.34, -0.462], rtol=0, atol=1e-15)


@given(lo=vec(4), width=arrays(np.float64, 4, elements=st.floats(0, 1e6)),
       u=vec(4), v=vec(4))
@settings(max_examples=300, deadline=None)
def test_nonexpansive_l1_l2(lo, width, u, v):
    box = BoxSet(lo, lo + width)
    pu, pv = project_box(box, u), project_box(box, v)
    for ord_ in (1, 2):
        assert np.linalg.norm(pu - pv, ord_) <= np.linalg.norm(u - v, ord_) + 1e-12


@given(lo=vec(3), width=arrays(np.float64, 3, elements=st.floats(0, 1e6)),
       x=vec(3), v=vec(3),
       shift=arrays(np.float64, (3, 3), elements=st.floats(-100, 100)))
@settings(max_examples=300, deadline=None)
def test_shift_identity_bitwise(lo, width, x, v, shift):
    box = BoxSet(lo, lo + width)
    out = project_implicit(shift, box, x, v)
    u = shift @ x
    np.testing.assert_array_equal(out, u + project_box(box, v - u))


@given(lo=vec(5), width=arrays(np.float64, 5, elements=st.floats(0, 1e6)),
       v=vec(5))
@settings(max_examples=200, deadline=None)
def test_idempotent(lo, width, v):
    box = BoxSet(lo, lo + width)
    p = project_box(box, v)
    np.testing.assert_array_equal(project_box(box, p), p)


def test_componentwise_factorization():
    rng = np.random.default_rng(3)
    lo = rng.normal(size=6)
    box = BoxSet(lo, lo + rng.random(6))
    v = rng.normal(scale=3.0, size=6)
    whole = project_box(box, v)
    scalar = [project_box(BoxSet([box.lo[i]], [box.hi[i]]), v[i : i + 1])[0]
              for i in range(6)]
    np.testing.assert_array_equal(whole, scalar)


def test_length_mismatch():
    with pytest.raises(fpds.SpecError, match="length mismatch"):
        project_box(BoxSet([0.0], [1.0]), np.array([1.0, 2.0]))


def test_rhs_simple_1d():
    # clamp(x - (x - 3)) - x = clamp(3) - x; at x = 0 the RHS is 3
    spec = make_1d_spec(A=1.0, a=-3.0, rho=1.0, lo=0.0, hi=10.0)
    real = fpds.sample_realization(spec, "lower")
    out = fpds.rhs(spec, real, StateVector(x=[0.0], y=[]))
    assert out.x[0] == pytest.approx(3.0)


def test_rhs_zero_at_equilibrium(ex42, w42):
    real = fpds.sample_realization(ex42, "lower")
    eq = fpds.picard_solve(ex42, real, w42, tol=1e-13)
    out = fpds.rhs(ex42, real, eq.point)
    assert np.max(np.abs(out.as_array())) < 1e-12


def test_rhs_example_42_hand_evaluation(ex42):
    # scalar-by-scalar evaluation at x = (5.8, -4.2) with A at its lower bound
    real = fpds.sample_realization(ex42, "lower")
    s = StateVector(x=[5.8, -4.2], y=[])
    out = fpds.rhs(ex42, real, s)

    x = np.array([5.8, -4.2])
    expect = np.empty(2)
    for i in range(2):
        drive = x[i] - 0.25 * (real.M[:2, :2][i] @ x + ex42.a[i])
        u = ex42.shifts.H[i] @ x
        clamped = min(max(drive - u, ex42.box1.lo[i]), ex42.box1.hi[i])
        expect[i] = u + clamped - x[i]
    np.testing.assert_allclose(out.x, expect, rtol=0, atol=1e-14)


def test_rhs_gains_scale_each_equation():
    spec = make_1d_spec()
    gained = fpds.SystemSpec(
        n=1, m=0, alpha=spec.alpha, rho=spec.rho, lam=spec.lam,
        a=spec.a, b=spec.b, A=spec.A, Astar=spec.Astar, B=spec.B,
        Bstar=spec.Bstar, shifts=spec.shifts, box1=spec.box1, box2=spec.box2,
        gains=[2.5],
    )
    real = fpds.sample_realization(spec, "lower")
    s = StateVector(x=[0.0], y=[])
    base = fpds.rhs(spec, real, s).x[0]
    assert fpds.rhs(gained, real, s).x[0] == pytest.approx(2.5 * base)


@pytest.mark.parametrize("scenario,gains,selector", [
    ("example-4.1", None, "lower"),
    ("example-4.1", None, "random"),
    ("traffic-gstm", [1.0, 2.0, 1.0, 0.5], "random"),
])
def test_rhs_hand_evaluation_both_blocks(scenario, gains, selector):
    # row by row: x rows use rho, A, A*, H, box1; y rows lam, B, B*, L, box2
    spec = fpds.builtin_scenario(scenario, gains=gains)
    real = fpds.sample_realization(spec, selector, seed=17)
    # near the box midpoint some rows clamp and some do not
    rng = np.random.default_rng(23)
    x = spec.box1.midpoint() + rng.normal(size=spec.n)
    y = spec.box2.midpoint() + rng.normal(size=spec.m)
    out = fpds.rhs(spec, real, StateVector(x=x, y=y))

    def row(i, step, own, cross, offset, shift, box, v, other, g):
        drive = v[i] - step * (own[i] @ v + cross[i] @ other + offset[i])
        u = shift[i] @ v
        return g * (u + min(max(drive - u, box.lo[i]), box.hi[i]) - v[i])

    n = spec.n
    expect_x = [row(i, spec.rho, real.M[:n, :n], real.M[:n, n:], spec.a,
                    spec.shifts.H, spec.box1, x, y, spec.gains[i]) for i in range(spec.n)]
    expect_y = [row(j, spec.lam, real.M[n:, n:], real.M[n:, :n], spec.b,
                    spec.shifts.L, spec.box2, y, x, spec.gains[spec.n + j])
                for j in range(spec.m)]
    np.testing.assert_allclose(out.x, expect_x, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.y, expect_y, rtol=0, atol=1e-13)


def test_mis_split_state_rejected(ex41, w41):
    # the total length n + m = 5 is right, but x has 4 entries instead of 3
    real = fpds.sample_realization(ex41, "lower")
    bad = StateVector(x=np.zeros(4), y=np.zeros(1))
    calls = [
        lambda: fpds.picard_map(ex41, real, bad),
        lambda: fpds.rhs(ex41, real, bad),
        lambda: fpds.residual(ex41, real, w41, bad),
        lambda: fpds.picard_solve(ex41, real, w41, start=bad),
        lambda: fpds.integrate(ex41, real, bad, 1.0, 10),
    ]
    for call in calls:
        with pytest.raises(fpds.SpecError, match="dimension mismatch: state"):
            call()


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_non_finite_state_rejected(ex41, w41, bad_value):
    real = fpds.sample_realization(ex41, "lower")
    bad = StateVector(x=[3.5, bad_value, 1.0], y=[2.0, -1.5])
    calls = [
        lambda: fpds.picard_map(ex41, real, bad),
        lambda: fpds.rhs(ex41, real, bad),
        lambda: fpds.residual(ex41, real, w41, bad),
        lambda: fpds.picard_solve(ex41, real, w41, start=bad),
        lambda: fpds.integrate(ex41, real, bad, 1.0, 10),
    ]
    for call in calls:
        with pytest.raises(fpds.SpecError, match="non-finite value in state"):
            call()


def test_mis_split_weights_rejected(ex41, w41):
    real = fpds.sample_realization(ex41, "lower")
    s = StateVector(x=ex41.box1.midpoint(), y=ex41.box2.midpoint())
    bad = fpds.Weights(mu=np.ones(4), tau=np.ones(1))
    with pytest.raises(ValueError):
        fpds.weighted_norm(bad, s)
    with pytest.raises(fpds.SpecError, match="dimension mismatch: weights"):
        fpds.residual(ex41, real, bad, s)
    eq = fpds.picard_solve(ex41, real, w41)
    traj = fpds.integrate(ex41, real, s, 1.0, 10)
    with pytest.raises(fpds.SpecError, match="dimension mismatch: weights"):
        fpds.envelope_check(traj, eq, bad, theta=0.1)


def test_clamp_pattern_codes():
    # R = [0; I]: the clamp argument is z itself
    R = np.vstack([np.zeros((4, 4)), np.eye(4)])
    form = fpds.projection.AffineClamp(R, np.zeros(4), np.ones(4))
    form(np.array([-0.5, 0.5, 1.5, 1.0]), np.empty(4))
    np.testing.assert_array_equal(form.pattern(), [-1, 0, 1, 0])


@pytest.mark.parametrize("scenario,gains", [("example-4.1", [0.3, 2.0, 1.7, 0.9, 5.0]),
                                            ("example-4.2", None),
                                            ("traffic-gstm", [1.0, 1.0, 2.0, 1.0])])
def test_affine_form_of_a_pattern_matches_the_clamp(scenario, gains):
    # random points at several scales around the box reach every region of
    # every row; at each, the affine form of the point's own pattern is the
    # clamp form, and the clamp argument lies in the pattern's region
    spec = fpds.builtin_scenario(scenario, gains=gains)
    real = fpds.sample_realization(spec, "random", seed=7)
    form, _ = fpds.projection.rhs_form(spec, real.M, 0.7 * spec.gains)
    d = spec.n + spec.m
    mid = spec.blocks.box.midpoint()
    rng = np.random.default_rng(29)
    seen = set()
    out = np.empty(d)
    for scale in (0.5, 3.0, 30.0):
        for _ in range(100):
            z = mid + rng.normal(scale=scale, size=d)
            form(z, out)
            p = form.pattern()
            u = form.R[d:] @ z
            lo_p, hi_p = form.region(p)
            assert np.all((lo_p <= u) & (u <= hi_p))
            A, b = form.affine(p)
            size = (np.abs(form.R[:d]) + np.abs(form.R[d:])) @ np.abs(z)
            assert np.all(np.abs(A @ z + b - out) <= 1e-15 * size.max())
            seen.update(zip(range(d), p.tolist()))
    assert seen == {(i, c) for i in range(d) for c in (-1, 0, 1)}


def test_adjacent_patterns_agree_on_a_bound():
    # the clamp argument sits exactly on lo in row 0 and on hi in row 1, so
    # row 0 is below or inside and row 1 inside or above
    rng = np.random.default_rng(31)
    R = rng.normal(size=(6, 3))
    z = rng.normal(size=3)
    u = (R @ z)[3:]             # the argument exactly as the form computes it
    lo = np.array([u[0], u[1] - 1.0, u[2] - 1.0])
    hi = np.array([u[0] + 1.0, u[1], u[2] + 1.0])
    form = fpds.projection.AffineClamp(R, lo, hi)
    out = form(z, np.empty(3))
    size = ((np.abs(R[:3]) + np.abs(R[3:])) @ np.abs(z)).max()
    for p in ([-1, 0, 0], [0, 0, 0], [0, 1, 0], [-1, 1, 0]):
        p = np.array(p, dtype=np.int8)
        lo_p, hi_p = form.region(p)
        assert np.all((lo_p <= u) & (u <= hi_p))
        A, b = form.affine(p)
        assert np.abs(A @ z + b - out).max() <= 1e-15 * size
