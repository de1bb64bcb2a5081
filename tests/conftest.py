import pytest

import symldpc as s


@pytest.fixture(scope="session")
def c22():
    return s.make_code(s.FAMILY_SYMMETRIC, 2, 2)


@pytest.fixture(scope="session")
def ct22():
    return s.make_code(s.FAMILY_TRANSPOSE, 2, 2)


@pytest.fixture(scope="session")
def c23():
    return s.make_code(s.FAMILY_SYMMETRIC, 2, 3)


@pytest.fixture(scope="session")
def ct23():
    return s.make_code(s.FAMILY_TRANSPOSE, 2, 3)


@pytest.fixture(scope="session")
def c24():
    return s.make_code(s.FAMILY_SYMMETRIC, 2, 4)


@pytest.fixture(scope="session")
def ct24():
    return s.make_code(s.FAMILY_TRANSPOSE, 2, 4)


@pytest.fixture(scope="session")
def c32():
    return s.make_code(s.FAMILY_SYMMETRIC, 3, 2)
