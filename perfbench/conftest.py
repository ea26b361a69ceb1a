import pytest

from child import load_library


@pytest.fixture(scope="session")
def lib():
    return load_library()
