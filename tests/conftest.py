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
