import numpy as np
import pytest

import fpds
from fpds import Weights, certificate, find_weights

from conftest import make_1d_spec, random_network, scaled_step, weighted_norm


def comparison_system(spec):
    """d = 1 - diag T and C = T^T with its diagonal zeroed, T the comparison
    matrix of SystemSpec.blocks, so that diag(d) - C = I - T^T."""
    T = spec.blocks.T
    return 1.0 - np.diag(T), T.T - np.diag(np.diag(T))


def test_tilde_042_offdiagonal(ex42):
    # rho = 0.25, h21 = 0: C[0, 1] = max(|0.25*(-1.8)|, |0.25*3.8|) = 0.95
    d, C = comparison_system(ex42)
    assert C[0, 1] == pytest.approx(0.95, abs=1e-15)


def test_tilde_symmetric_interval():
    spec = fpds.validate_system(fpds.SystemSpec(
        n=1, m=0, alpha=0.5, rho=1.0, lam=1.0, a=[0.0], b=[],
        A=fpds.IntervalMatrix([[-0.7]], [[0.7]]),
        Astar=fpds.IntervalMatrix(np.zeros((1, 0)), np.zeros((1, 0))),
        B=fpds.IntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0))),
        Bstar=fpds.IntervalMatrix(np.zeros((0, 1)), np.zeros((0, 1))),
        H=[[0.0]], L=np.zeros((0, 0)),
        box1=fpds.BoxSet([0.0], [1.0]), box2=fpds.BoxSet([], []),
    ))
    # xi = 1 - rho a_lo = 1.7 and a2 = 1 - rho a_hi = 0.3
    cert = certificate(spec, Weights(mu=[1.0], tau=[]))
    assert cert.xi[0] == pytest.approx(1.7)
    assert cert.a2_margins[0] == pytest.approx(0.3)


def test_tilde_astar_41(ex41):
    # y1 drives x0 through rho A*[0, 1]: rho max(|0.2|, |0.4|) = 0.3*0.4
    d, C = comparison_system(ex41)
    assert C[4, 0] == pytest.approx(0.12)


def test_certificate_42_printed_values(ex42, w42):
    cert = certificate(ex42, w42)
    np.testing.assert_allclose(cert.a2_margins, [0.05, 0.04], rtol=0, atol=1e-12)
    np.testing.assert_allclose(cert.xi, [0.95, 0.875], rtol=0, atol=1e-12)
    assert abs(cert.kappa - 0.95) <= 1e-12
    assert abs(cert.theta - 0.05) <= 1e-12
    assert cert.passed


def test_certificate_scalar_half():
    spec = make_1d_spec(A=0.5, a=0.0, rho=1.0)
    cert = certificate(spec, Weights(mu=[1.0], tau=[]))
    assert cert.xi[0] == pytest.approx(0.5)
    assert cert.kappa == pytest.approx(0.5)
    assert cert.theta == pytest.approx(0.5)
    assert cert.passed


def test_certificate_41_unit_weights(ex41, w41):
    cert = certificate(ex41, w41)
    assert np.all(cert.a2_margins >= 0) and np.all(cert.a3_margins >= 0)
    assert np.all(cert.xi > 0) and np.all(cert.xi < 1)
    assert np.all(cert.zeta > 0) and np.all(cert.zeta < 1)
    assert cert.passed


def test_weight_scaling_invariance(ex41, w41):
    base = certificate(ex41, w41)
    scaled = certificate(ex41, Weights(mu=7.0 * w41.mu, tau=7.0 * w41.tau))
    np.testing.assert_allclose(scaled.xi, base.xi, rtol=1e-14)
    np.testing.assert_allclose(scaled.zeta, base.zeta, rtol=1e-14)
    assert scaled.passed == base.passed
    # a power-of-two scaling is exact in every product and ratio, so the
    # certificate of the found weights keeps its bits, far out in exponent too
    for spec in (*(fpds.builtin_scenario(name) for name in fpds.BUILTIN_NAMES),
                 *(random_network(size, size) for size in (5, 40, 200))):
        w = find_weights(spec)
        base = certificate(spec, w)
        for k in (1, -1, 500, -500, 900, -900):
            scaled = certificate(spec, Weights(mu=w.mu * 2.0**k, tau=w.tau * 2.0**k))
            assert scaled.xi.tobytes() == base.xi.tobytes(), k
            assert scaled.zeta.tobytes() == base.zeta.tobytes(), k
            assert (scaled.kappa, scaled.min_slack, scaled.passed) == (
                base.kappa, base.min_slack, base.passed), k


def test_widening_never_decreases_coefficients(ex41, w41):
    base = certificate(ex41, w41)
    upper = np.array(ex41.A.upper)
    upper[0, 1] += 0.3
    widened = fpds.SystemSpec(
        n=3, m=2, alpha=ex41.alpha, rho=ex41.rho, lam=ex41.lam,
        a=ex41.a, b=ex41.b,
        A=fpds.IntervalMatrix(ex41.A.lower, upper),
        Astar=ex41.Astar, B=ex41.B, Bstar=ex41.Bstar,
        H=ex41.H, L=ex41.L, box1=ex41.box1, box2=ex41.box2,
    )
    wide = certificate(fpds.validate_system(widened), w41)
    assert np.all(wide.xi >= base.xi - 1e-15)
    assert np.all(wide.zeta >= base.zeta - 1e-15)


def test_theta_in_unit_interval_when_passing(ex41, ex42, w41, w42):
    # at unit gains theta is 1 - kappa and the envelope weights are w, bitwise
    traffic = fpds.builtin_scenario("traffic-gstm")
    for spec, w in ((ex41, w41), (ex42, w42), (traffic, find_weights(traffic))):
        cert = certificate(spec, w)
        assert cert.passed
        assert cert.theta == 1.0 - cert.kappa
        assert 0.0 < cert.theta < 1.0
        np.testing.assert_array_equal(cert.envelope_weights.as_array(), w.as_array())


@pytest.mark.parametrize("scenario,selector", [
    ("example-4.1", "lower"), ("example-4.1", "upper"),
    ("example-4.2", "lower"), ("example-4.2", "upper"),
])
def test_picard_map_contracts_with_modulus_kappa(scenario, selector):
    spec = fpds.builtin_scenario(scenario)
    w = (Weights(mu=np.ones(spec.n), tau=np.ones(spec.m)) if spec.m
         else Weights(mu=[2.0, 1.0], tau=[]))
    cert = certificate(spec, w)
    assert cert.passed
    real = fpds.sample_realization(spec, selector)
    step = scaled_step(spec, real)              # P(z) = z + step(z)
    rng = np.random.default_rng(11)
    for _ in range(300):
        z1 = np.concatenate([rng.normal(scale=10, size=spec.n),
                             rng.normal(scale=10, size=spec.m)])
        z2 = np.concatenate([rng.normal(scale=10, size=spec.n),
                             rng.normal(scale=10, size=spec.m)])
        f1 = z1 + step(z1)
        f2 = z2 + step(z2)
        num = weighted_norm(w, f2 - f1)
        den = weighted_norm(w, z2 - z1)
        assert num <= cert.kappa * den


def test_find_weights_42(ex42):
    w = find_weights(ex42)
    assert w is not None
    assert certificate(ex42, w).passed


def test_find_weights_diagonally_dominant_no_coupling():
    spec = make_1d_spec(A=0.5, a=0.0, rho=1.0)
    w = find_weights(spec)
    assert w is not None and certificate(spec, w).passed


def test_find_weights_infeasible_diagonal():
    # rho*a_lo - 0 <= 0 makes xi >= 1 for every weight choice
    spec = make_1d_spec(A=-1.0, a=0.0, rho=1.0)
    assert find_weights(spec) is None


def exact_spec(A, rho=1.0, n=None, M_hi=None):
    """System with interval M = [M_lo, M_hi] (exact when M_hi is None), no
    shifts; the first n rows and columns form the x block (n = all, m = 0,
    by default)."""
    M_lo = np.array(A, dtype=float)
    M_hi = M_lo if M_hi is None else np.array(M_hi, dtype=float)
    d = M_lo.shape[0]
    n = d if n is None else n
    m = d - n
    return fpds.validate_system(fpds.SystemSpec(
        n=n, m=m, alpha=0.8, rho=rho, lam=rho, a=np.zeros(n), b=np.zeros(m),
        A=fpds.IntervalMatrix(M_lo[:n, :n], M_hi[:n, :n]),
        Astar=fpds.IntervalMatrix(M_lo[:n, n:], M_hi[:n, n:]),
        B=fpds.IntervalMatrix(M_lo[n:, n:], M_hi[n:, n:]),
        Bstar=fpds.IntervalMatrix(M_lo[n:, :n], M_hi[n:, :n]),
        H=np.zeros((n, n)), L=np.zeros((m, m)),
        box1=fpds.BoxSet(-np.ones(n), np.ones(n)),
        box2=fpds.BoxSet(-np.ones(m), np.ones(m)),
    ))


@pytest.mark.parametrize("A,rho", [
    ([[1.0, 2.0], [2.0, 1.0]], 1.0),      # d > 0, rho(D^-1 C) = 2: w = (-1, -1)
    ([[1.0, 1.0], [1.0, 1.0]], 1.0),      # D - C exactly singular
    ([[1e-310]], 1.0),                    # positive solve that overflows to inf
])
def test_find_weights_infeasible_returns_none(A, rho):
    with np.errstate(over="ignore", invalid="ignore"):
        spec = exact_spec(A, rho)
        assert find_weights(spec) is None


def test_find_weights_agrees_with_spectral_oracle():
    # whenever weights come back, d > 0 and rho(D^-1 C) < 1 by an eigenvalue
    # computation, and the certificate passes
    rng = np.random.default_rng(2026)
    found = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        size = n + m
        M_lo = rng.normal(scale=10 ** rng.uniform(-1.5, 0.0), size=(size, size))
        M_lo[np.diag_indices(size)] = rng.uniform(-0.3, 1.5, size=size)
        M_hi = M_lo + 0.1 * rng.random((size, size))
        spec = exact_spec(M_lo, rho=rng.uniform(0.2, 0.9), n=n, M_hi=M_hi)
        w = find_weights(spec)
        if w is None:
            continue
        found += 1
        d, C = comparison_system(spec)
        assert np.all(d > 0.0)
        assert np.max(np.abs(np.linalg.eigvals(C / d[:, None]))) < 1.0
        assert certificate(spec, w).passed
    assert 20 <= found <= 180   # both verdicts occur


def test_zero_shift_reduces_to_unshifted_expressions(ex41, w41):
    # with H = L = 0, xi/zeta must reduce to the unshifted expressions
    spec = fpds.validate_system(fpds.SystemSpec(
        n=3, m=2, alpha=ex41.alpha, rho=ex41.rho, lam=ex41.lam,
        a=ex41.a, b=ex41.b, A=ex41.A, Astar=ex41.Astar, B=ex41.B,
        Bstar=ex41.Bstar,
        H=np.zeros((3, 3)), L=np.zeros((2, 2)),
        box1=ex41.box1, box2=ex41.box2,
    ))
    cert = certificate(spec, w41)
    rho, lam = spec.rho, spec.lam
    at = np.maximum(np.abs(rho * spec.A.lower), np.abs(rho * spec.A.upper))
    bst = np.maximum(np.abs(spec.Bstar.lower), np.abs(spec.Bstar.upper))
    for i in range(3):
        expect = 1.0 - rho * spec.A.lower[i, i]
        expect += sum(at[j, i] for j in range(3) if j != i)
        expect += lam * sum(bst[j, i] for j in range(2))
        assert cert.xi[i] == pytest.approx(expect, rel=1e-14)


def test_zeta_hand_evaluation(ex41):
    # per-row zeta on example-4.1, whose shift L is nonzero; non-unit weights
    # exercise the mu/tau ratios
    spec = ex41
    mu, tau = np.array([1.3, 0.7, 1.1]), np.array([0.9, 1.6])
    cert = certificate(spec, Weights(mu=mu, tau=tau))
    rho, lam, L = spec.rho, spec.lam, spec.L
    for j in range(2):
        expect = abs(L[j, j]) + 1.0 - lam * spec.B.lower[j, j] - L[j, j]
        for k in range(2):
            if k != j:
                bt = max(abs(lam * spec.B.lower[k, j] + L[k, j]),
                         abs(lam * spec.B.upper[k, j] + L[k, j]))
                expect += tau[k] / tau[j] * (abs(L[k, j]) + bt)
        for i in range(3):
            ast = max(abs(spec.Astar.lower[i, j]), abs(spec.Astar.upper[i, j]))
            expect += mu[i] / tau[j] * rho * ast
        assert cert.zeta[j] == pytest.approx(expect, rel=1e-14)


def test_exact_matrix_no_shift_scalar_condition():
    # m = 0, exact A, H = 0: pass iff
    # 1 - sum_{j!=i} (mu_j/mu_i) rho |a_ji| - |1 - rho a_ii| > 0
    rng = np.random.default_rng(5)
    for _ in range(50):
        A = rng.normal(scale=0.8, size=(2, 2)) + np.diag([1.0, 1.0])
        rho = 0.5
        if np.any(1.0 - rho * np.diag(A) < 0.0):
            continue
        spec = fpds.validate_system(fpds.SystemSpec(
            n=2, m=0, alpha=0.7, rho=rho, lam=1.0, a=[0.0, 0.0], b=[],
            A=fpds.IntervalMatrix(A, A),
            Astar=fpds.IntervalMatrix(np.zeros((2, 0)), np.zeros((2, 0))),
            B=fpds.IntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0))),
            Bstar=fpds.IntervalMatrix(np.zeros((0, 2)), np.zeros((0, 2))),
            H=np.zeros((2, 2)), L=np.zeros((0, 0)),
            box1=fpds.BoxSet([0.0, 0.0], [1.0, 1.0]),
            box2=fpds.BoxSet([], []),
        ))
        mu = rng.random(2) + 0.5
        cond = all(
            1.0 - sum(mu[j] / mu[i] * rho * abs(A[j, i])
                      for j in range(2) if j != i)
            - abs(1.0 - rho * A[i, i]) > 0.0
            for i in range(2)
        )
        cert = certificate(spec, Weights(mu=mu, tau=[]))
        assert cert.passed == cond


@pytest.mark.parametrize("scenario,gains", [("traffic-gstm", [1.0, 0.5, 2.0, 1.0]),
                                            ("example-4.1", [0.3, 2.0, 1.7, 0.9, 0.5])])
def test_theta_folds_in_the_gains(scenario, gains):
    # theta = min_j g_j (1 - kappa_j) in the norm of w / g; the coefficients,
    # kappa and the verdict do not depend on the gains
    plain = fpds.builtin_scenario(scenario)
    spec = fpds.builtin_scenario(scenario, gains=gains)
    w = find_weights(plain)
    base, cert = certificate(plain, w), certificate(spec, w)
    coeffs = np.concatenate([cert.xi, cert.zeta])
    np.testing.assert_array_equal(coeffs, np.concatenate([base.xi, base.zeta]))
    assert (cert.kappa, cert.passed) == (base.kappa, base.passed)
    g = np.array(gains)
    assert cert.theta == np.min(g * (1.0 - coeffs))
    assert cert.theta != base.theta
    np.testing.assert_array_equal(cert.envelope_weights.as_array(), w.as_array() / g)


def test_nonpositive_weights_rejected():
    with pytest.raises(fpds.SpecError, match="nonpositive weights"):
        Weights(mu=[1.0, -1.0], tau=[])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(fpds.SpecError, match="non-finite weights"):
        Weights(mu=[bad, 1.0], tau=[])


def test_mis_sized_weights_rejected(ex41):
    with pytest.raises(fpds.SpecError, match="dimension mismatch: weights"):
        certificate(ex41, Weights(mu=np.ones(3), tau=np.ones(1)))


def test_non_finite_is_reported_before_nonpositive():
    with pytest.raises(fpds.SpecError, match="non-finite weights"):
        Weights(mu=[-1.0], tau=[np.inf])


def test_weights_are_read_only_views_of_one_vector():
    w = Weights(mu=[1.0, 2.0], tau=[3.0])
    joined = w.as_array()
    assert joined.tolist() == [1.0, 2.0, 3.0] and not joined.flags.writeable
    assert np.shares_memory(w.mu, joined) and np.shares_memory(w.tau, joined)


def _comparison_matrix(spec):
    """The comparison matrix T of SystemSpec.blocks, built on the spot."""
    blk = spec.blocks
    r = blk.r[:, None]
    T = np.abs(blk.S) + np.maximum(np.abs(r * blk.M_lo + blk.S), np.abs(r * blk.M_hi + blk.S))
    diag_s = np.diag(blk.S)
    np.fill_diagonal(T, np.abs(diag_s) + 1.0 - blk.r * np.diag(blk.M_lo) - diag_s)
    return T


def _paper_coefficients(spec, w):
    """xi and zeta as the paper writes them, term by term from the spec's own
    fields: the diagonal term of each row plus the weighted couplings of the
    other rows, each divided by the row's weight."""
    def coupling(scale, im, shift):
        return np.abs(shift) + np.maximum(np.abs(scale * im.lower + shift),
                                          np.abs(scale * im.upper + shift))

    def own(scale, im, shift):
        h = np.diag(shift)
        return np.abs(h) + 1.0 - scale * np.diag(im.lower) - h

    def off(T):
        return T - np.diag(np.diag(T))

    n, m, mu, tau = spec.n, spec.m, w.mu, w.tau
    xx = off(coupling(spec.rho, spec.A, spec.H))
    yy = off(coupling(spec.lam, spec.B, spec.L))
    xy = coupling(spec.rho, spec.Astar, np.zeros((n, m)))   # y_k into x rows
    yx = coupling(spec.lam, spec.Bstar, np.zeros((m, n)))   # x_j into y rows
    xi = own(spec.rho, spec.A, spec.H) + (mu @ xx + tau @ yx) / mu
    zeta = own(spec.lam, spec.B, spec.L) + (mu @ xy + tau @ yy) / tau
    return np.concatenate([xi, zeta])


@pytest.mark.parametrize("spec", [
    *(fpds.builtin_scenario(name) for name in fpds.BUILTIN_NAMES),
    fpds.builtin_scenario("example-4.1", gains=[0.3, 2.0, 1.7, 0.9, 0.5]),
    fpds.builtin_scenario("traffic-gstm", gains=[1.0, 0.5, 2.0, 1.0]),
    *(random_network(size, size) for size in (5, 40, 200)),
])
def test_spec_terms_give_the_certificate_bitwise(spec):
    # the one comparison matrix T of SystemSpec.blocks is the matrix built on
    # the spot, bitwise; its weighted column sums are the certificate's
    # coefficients, bitwise, and the paper's per-term sums up to rounding, at
    # the found and at unit weights
    blk = spec.blocks
    T = _comparison_matrix(spec)
    assert blk.T.tobytes() == T.tobytes()
    margins = 1.0 - blk.r * np.diag(blk.M_hi) - np.diag(blk.S)
    for w in (find_weights(spec), Weights(mu=np.ones(spec.n), tau=np.ones(spec.m))):
        cert = certificate(spec, w)
        wz = w.as_array()
        coeffs = (wz @ T) / wz
        assert np.concatenate([cert.xi, cert.zeta]).tobytes() == coeffs.tobytes()
        np.testing.assert_allclose(coeffs, _paper_coefficients(spec, w), rtol=1e-14, atol=0)
        assert np.concatenate([cert.a2_margins, cert.a3_margins]).tobytes() == margins.tobytes()
        assert cert.min_slack == float(np.min(np.concatenate([margins, coeffs, 1.0 - coeffs])))
        assert cert.kappa == coeffs.max()
        assert cert.passed == bool(np.all(margins >= 0.0) and np.all(coeffs > 0.0)
                                   and np.all(coeffs < 1.0))
        assert cert.envelope_weights.as_array().tobytes() == (wz / spec.gains).tobytes()


def test_subnormal_gain_has_no_envelope_weights():
    # w / g overflows at g = 1e-310: the certificate still decides, without
    # an overflow warning, and has no envelope weights to offer
    spec = fpds.builtin_scenario("example-4.2", gains=[1e-310, 1.0])
    cert = certificate(spec, find_weights(spec))
    assert cert.passed and cert.envelope_weights is None
    assert 0.0 < cert.theta < 1e-300


def _count_certificates(monkeypatch):
    """Count the certificates evaluated, as opposed to read from the cache."""
    built = []
    cls = fpds.certify.Certificate
    monkeypatch.setattr(fpds.certify, "Certificate",
                        lambda **fields: built.append(1) or cls(**fields))
    return built


def test_certificate_is_kept_per_weights_object(monkeypatch):
    spec = fpds.builtin_scenario("traffic-gstm")
    built = _count_certificates(monkeypatch)
    w = find_weights(spec)
    cert = certificate(spec, w)
    assert certificate(spec, w) is cert and len(built) == 1
    for arr in (cert.xi, cert.zeta, cert.a2_margins, cert.a3_margins):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # equal values in another object are evaluated again, to equal fields
    again = certificate(spec, Weights(mu=w.mu.copy(), tau=w.tau.copy()))
    assert again is not cert and len(built) == 2
    for name in ("a2_margins", "a3_margins", "xi", "zeta"):
        assert getattr(again, name).tobytes() == getattr(cert, name).tobytes()
    assert (again.kappa, again.theta, again.min_slack, again.passed) == (
        cert.kappa, cert.theta, cert.min_slack, cert.passed)
    assert (again.envelope_weights.as_array().tobytes()
            == cert.envelope_weights.as_array().tobytes())
    # the cache is the spec's: the same weights on another spec are evaluated
    other = fpds.builtin_scenario("traffic-gstm", gains=[1.0, 0.5, 2.0, 1.0])
    assert certificate(other, w).theta != cert.theta and len(built) == 3


def test_picard_solve_reads_the_cached_certificate(monkeypatch):
    spec = fpds.builtin_scenario("example-4.1")
    w = find_weights(spec)
    built = _count_certificates(monkeypatch)
    for selector in ("lower", "upper", "random"):
        eq = fpds.picard_solve(spec, fpds.sample_realization(spec, selector), w)
        assert eq.converged
    assert built == []
