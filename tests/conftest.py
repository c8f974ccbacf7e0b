import pytest

from qcomb.structures import set_default_cap


@pytest.fixture
def cell_cap():
    """set_default_cap for one test: the cap it installs is removed after."""
    yield set_default_cap
    set_default_cap(None)
