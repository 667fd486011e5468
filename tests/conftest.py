import numpy as np
import pytest

from dygwin import tensor as tensor_mod


@pytest.fixture(autouse=True)
def finite_checks(request, monkeypatch):
    """Every forward primitive is NaN/Inf checked during unit tests, unless the
    test is marked ``allow_nonfinite``."""
    if request.node.get_closest_marker("allow_nonfinite"):
        return
    finish = tensor_mod._finish

    def checked_finish(op, inputs, out_values, backward):
        if not np.all(np.isfinite(out_values)):
            raise FloatingPointError(f"{op} produced non-finite values")
        return finish(op, inputs, out_values, backward)

    monkeypatch.setattr(tensor_mod, "_finish", checked_finish)
