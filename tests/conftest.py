import numpy as np
import pytest

import fpds


@pytest.fixture(scope="session")
def ex41():
    return fpds.builtin_scenario("example-4.1")


@pytest.fixture(scope="session")
def ex42():
    return fpds.builtin_scenario("example-4.2")


@pytest.fixture(scope="session")
def w41():
    return fpds.Weights(mu=np.ones(3), tau=np.ones(2))


@pytest.fixture(scope="session")
def w42():
    return fpds.Weights(mu=[2.0, 1.0], tau=[])


def scaled_step(spec, M, g=None):
    """z -> g (P(z) - z), P the Picard map of the realization M, through the
    package's one evaluator `projection.rhs_form`, built once: g = 1 by
    default, so that P(z) = z + scaled_step(spec, M)(z), and g = spec.gains
    gives the dynamics' right-hand side."""
    d = spec.n + spec.m
    f = fpds.projection.rhs_form(spec, M, np.ones(d) if g is None else g)
    return lambda z: f(np.asarray(z, dtype=float), np.empty(d))


def weighted_norm(w, v):
    """The certificate's weighted l1 norm of a flat vector v = (x, y)."""
    return float(w.as_array() @ np.abs(v))


def make_scalar_decay_spec(alpha):
    """1-D system whose RHS is exactly -x for x >= 0: A = 1, rho = 1, a = 0,
    H = 0, box [0, 1e9], so clamp(x - x) - x = -x. Exact solution from x0 > 0
    is E_alpha(-t^alpha)."""
    z = np.zeros
    return fpds.validate_system(fpds.SystemSpec(
        n=1, m=0, alpha=alpha, rho=1.0, lam=1.0, a=[0.0], b=[],
        A=fpds.IntervalMatrix([[1.0]], [[1.0]]),
        Astar=fpds.IntervalMatrix(z((1, 0)), z((1, 0))),
        B=fpds.IntervalMatrix(z((0, 0)), z((0, 0))),
        Bstar=fpds.IntervalMatrix(z((0, 1)), z((0, 1))),
        H=[[0.0]], L=z((0, 0)),
        box1=fpds.BoxSet([0.0], [1e9]),
        box2=fpds.BoxSet([], []),
    ))


def make_1d_spec(A=1.0, a=-3.0, rho=1.0, lo=0.0, hi=10.0, h=0.0, alpha=0.9):
    z = np.zeros
    return fpds.validate_system(fpds.SystemSpec(
        n=1, m=0, alpha=alpha, rho=rho, lam=1.0, a=[a], b=[],
        A=fpds.IntervalMatrix([[A]], [[A]]),
        Astar=fpds.IntervalMatrix(z((1, 0)), z((1, 0))),
        B=fpds.IntervalMatrix(z((0, 0)), z((0, 0))),
        Bstar=fpds.IntervalMatrix(z((0, 1)), z((0, 1))),
        H=[[h]], L=z((0, 0)),
        box1=fpds.BoxSet([lo], [hi]),
        box2=fpds.BoxSet([], []),
    ))


def random_network(seed, size):
    """A seeded random interval network of n + m = size, diagonally dominant
    like the certify-solve benchmark's: in the scaled rows r M the diagonal
    lies in [0.5, 0.9] and the other entries of a column, with the shifts,
    add up to less than 0.2, so find_weights succeeds."""
    rng = np.random.default_rng(seed)
    m = max(1, size // 3)
    n = size - m
    rho, lam = rng.uniform(0.05, 0.5, 2)
    r = np.concatenate([np.full(n, rho), np.full(m, lam)])[:, None]
    mid = rng.uniform(-1.0, 1.0, (size, size))
    half = rng.uniform(0.0, 0.3, (size, size))
    lo, hi = (mid - half) * 0.05 / size, (mid + half) * 0.05 / size
    diag = rng.uniform(0.5, 0.85, size)
    np.fill_diagonal(lo, diag)
    np.fill_diagonal(hi, diag + rng.uniform(0.0, 0.05, size))
    lo, hi = lo / r, hi / r
    S = rng.uniform(-1.0, 1.0, (size, size)) * 0.05 / size
    np.fill_diagonal(S, rng.uniform(0.0, 0.05, size))
    box_lo = rng.uniform(-5.0, 5.0, size)
    box_hi = box_lo + rng.uniform(0.5, 5.0, size)
    x, y = slice(0, n), slice(n, size)
    part = {name: fpds.IntervalMatrix(lo[(x, y)[i], (x, y)[j]], hi[(x, y)[i], (x, y)[j]])
            for name, i, j in fpds.model.BLOCKS}
    c = rng.uniform(-5.0, 5.0, size)
    return fpds.validate_system(fpds.SystemSpec(
        n=n, m=m, alpha=0.9, rho=float(rho), lam=float(lam), a=c[x], b=c[y], **part,
        H=S[x, x], L=S[y, y], box1=fpds.BoxSet(box_lo[x], box_hi[x]),
        box2=fpds.BoxSet(box_lo[y], box_hi[y])))


def make_linear_spec(seed, alpha, n=3, m=2, clamp=()):
    """A coupled spec with one realization M = Q diag(D) Q^T (M_lo = M_hi),
    Q a random orthogonal matrix and D in [0.2, 3], H = L = 0, rho = lam = 1
    and unit gains, so that f(z) = -(M z + c) wherever no clamp binds. The
    box is +-1e9 but for the rows (i, side, bound) of clamp: side > 0 puts
    the upper bound of row i at bound and c_i = -20, side < 0 its lower bound
    and c_i = 20, so that a state at the bound stays clamped to it."""
    rng = np.random.default_rng(seed)
    d = n + m
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    M = (Q * rng.uniform(0.2, 3.0, d)) @ Q.T
    M = 0.5 * (M + M.T)
    c = rng.uniform(-1.0, 1.0, d)
    lo, hi = np.full(d, -1e9), np.full(d, 1e9)
    for i, side, bound in clamp:
        (hi if side > 0 else lo)[i] = bound
        c[i] = -20.0 if side > 0 else 20.0
    x, y = slice(0, n), slice(n, d)
    part = {name: fpds.IntervalMatrix(M[(x, y)[i], (x, y)[j]], M[(x, y)[i], (x, y)[j]])
            for name, i, j in fpds.model.BLOCKS}
    return fpds.validate_system(fpds.SystemSpec(
        n=n, m=m, alpha=alpha, rho=1.0, lam=1.0, a=c[x], b=c[y], **part,
        H=np.zeros((n, n)), L=np.zeros((m, m)),
        box1=fpds.BoxSet(lo[x], hi[x]), box2=fpds.BoxSet(lo[y], hi[y])))


def exact_linear_solution(spec, z0, times, free=None):
    """The exact solution of D^alpha z = -(M z + c) for a spec of
    make_linear_spec on the free rows (all by default); the other rows stay
    at their z0. On the free rows F, with M_FF = V diag(D) V^T,
    z_F(t) = z* + V diag(E_alpha(-D_i t^alpha)) V^T (z0_F - z*) and
    z* = -M_FF^-1 (M_F,rest z0_rest + c_F): the Caputo linear system's
    solution by the Mittag-Leffler function of a symmetric matrix."""
    blk = spec.blocks
    M, c = blk.M_lo, blk.c
    free = np.arange(c.size) if free is None else np.asarray(free)
    held = np.setdiff1d(np.arange(c.size), free)
    D, V = np.linalg.eigh(M[np.ix_(free, free)])
    fixed = -np.linalg.solve(M[np.ix_(free, free)], M[np.ix_(free, held)] @ z0[held] + c[free])
    E = np.stack([fpds.ml_envelope(spec.alpha, Di, 1.0, times) for Di in D], axis=1)
    out = np.tile(np.asarray(z0, dtype=float), (times.size, 1))
    out[:, free] = fixed + (E * (V.T @ (z0[free] - fixed))) @ V.T
    return out
