from itertools import chain

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


def supports(h):
    """(row supports, column supports) of h as lists, built once for a test to index freely."""
    return h.supports(), h.transpose().supports()


def per_entry_lists(h) -> list[str]:
    """Keys of h's and its transpose's caches holding lists or tuples of an int per entry of h.

    Such a cache is a second copy of H beside its arrays, kept as long as h lives.
    """

    def ints(value) -> int:
        return sum(map(ints, value)) if isinstance(value, (list, tuple)) else isinstance(value, int)

    caches = chain(h._derived.items(), h.transpose()._derived.items())
    return [key for key, value in caches if ints(value) >= h.edge_count]
