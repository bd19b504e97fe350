import numpy as np
import pytest

from feclab.bch import build_code


@pytest.fixture(scope="session")
def ecc16_code():
    return build_code(4)  # eBCH(16,7)


@pytest.fixture(scope="session")
def ecc32_code():
    return build_code(5)  # eBCH(32,21)


@pytest.fixture(scope="session")
def pc_component_code():
    return build_code(7)  # eBCH(128,113)


@pytest.fixture(scope="session")
def scc_component_code():
    return build_code(8)  # eBCH(256,239)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
