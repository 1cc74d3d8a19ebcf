import pytest

from gainlab import DelayPredictorSystem, StateSpaceSystem


@pytest.fixture
def scalar_system():
    return StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])


@pytest.fixture
def oscillator():
    return StateSpaceSystem(
        a=[[0.0, 1.0], [-1.0, -1.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]]
    )


@pytest.fixture
def diag_two_output():
    return StateSpaceSystem(
        a=[[-1.0, 0.0], [0.0, -2.0]],
        b=[[1.0], [1.0]],
        c=[[1.0, 0.0], [0.0, 1.0]],
    )


@pytest.fixture
def metzler_system():
    return StateSpaceSystem(
        a=[[-2.0, 1.0], [1.0, -2.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]]
    )


@pytest.fixture
def scalar_delay():
    return DelayPredictorSystem(
        a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-0.5]], tau=0.5, mu=2.0
    )
