import numpy as np
import pytest

from magweyl import AntisymmetricForm, HermiteBasisSpec, MetricForm


@pytest.fixture(scope="session")
def spec16():
    return HermiteBasisSpec(d=1, levels=16, halfwidth=8.0, npoints=128)


@pytest.fixture(scope="session")
def spec24():
    return HermiteBasisSpec(d=1, levels=24, halfwidth=10.0, npoints=192)


@pytest.fixture(scope="session")
def spec_d2():
    return HermiteBasisSpec(d=2, levels=12, halfwidth=7.5, npoints=48)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def J2():
    return AntisymmetricForm.standard(1)


@pytest.fixture
def eye2():
    return MetricForm(2, np.eye(2))
