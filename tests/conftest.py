import pytest

from dygwin import tensor as tensor_mod


@pytest.fixture(autouse=True)
def finite_checks():
    """Every forward primitive is NaN/Inf checked during unit tests."""
    tensor_mod.set_debug_checks(True)
    yield
    tensor_mod.set_debug_checks(False)
