"""Shared fixtures: canonical distributions, quality curves, scenario paths."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import qosmarket as qm

# property tests replay the same examples on every run, with no time limit
settings.register_profile("qosmarket", derandomize=True, deadline=None)
settings.load_profile("qosmarket")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def uniform1() -> qm.ValuationDistribution:
    return qm.ValuationDistribution.uniform(1.0)


@pytest.fixture(scope="session")
def triangle() -> qm.ValuationDistribution:
    """Decreasing density f(a) = 2(1 - a) on [0, 1], sampled finely.

    The density is linear, so the piecewise-linear interpolant is exact and
    closed forms are available: F(a) = 2a - a^2, F^-1(u) = 1 - sqrt(1 - u).
    """
    a = np.linspace(0.0, 1.0, 101)
    return qm.ValuationDistribution.from_samples(a, 2.0 * (1.0 - a))


@pytest.fixture(scope="session")
def split_qos() -> qm.QoSModel:
    return qm.QoSModel.linear(1.633, 0.088)


@pytest.fixture(scope="session")
def common_qos() -> qm.QoSModel:
    return qm.QoSModel.linear(1.611, 0.129)


@pytest.fixture(scope="session")
def short_steep_qos() -> qm.QoSModel:
    """Quality that drops 0.09 over a 3e-5-wide segment near lam = 0.3.

    A 10,001-point grid over [0, 1] steps over that segment.
    """
    return qm.QoSModel.tabulated([0.0, 0.30001, 0.30004, 1.0], [1.0, 0.99, 0.9, 0.89])


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR
