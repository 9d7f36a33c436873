import pytest
from hypothesis import settings

from pcomod import builtin

# Every Tier-1 run draws the same hypothesis cases: each test's examples are
# seeded from the test itself, and no example database is replayed.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def z2():
    return builtin.c_z2()


@pytest.fixture(scope="session")
def u1():
    return builtin.o_u1()


@pytest.fixture(scope="session")
def su():
    return builtin.su_q2()


@pytest.fixture(scope="session")
def gl():
    return builtin.gl_q2()


@pytest.fixture(scope="session")
def sl():
    return builtin.sl_q2()


@pytest.fixture(scope="session")
def z2_smash():
    return builtin.toeplitz_z2_smash()


@pytest.fixture(scope="session")
def u1_smash():
    return builtin.toeplitz_u1_smash()


@pytest.fixture(scope="session")
def plane_smash():
    return builtin.plane_gl_smash()


@pytest.fixture(scope="session")
def sphere():
    return builtin.sphere_covering()


@pytest.fixture(scope="session")
def sphere_pro():
    return builtin.sphere_prolonged()
