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
