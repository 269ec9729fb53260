import pytest

from polariton2dcs.propagator import build_matrix, decompose
from polariton2dcs.validate import reference_params
from polariton2dcs.vibrations import kernel_from_params


@pytest.fixture(scope="session")
def dye_system():
    """N=10 cyanine-like reference set used throughout."""
    return reference_params()


@pytest.fixture(scope="session")
def dye_dec(dye_system):
    return decompose(build_matrix(dye_system))


@pytest.fixture(scope="session")
def dye_kernel(dye_system):
    return kernel_from_params(dye_system)
