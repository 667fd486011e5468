import numpy as np
import pytest

from dygwin import tensor as tensor_mod


@pytest.fixture(autouse=True)
def finite_checks(request, monkeypatch):
    """Every forward primitive is NaN/Inf checked during unit tests, unless the
    test is marked ``allow_nonfinite``, and may not turn float32 inputs into a
    float64 output."""
    check_finite = not request.node.get_closest_marker("allow_nonfinite")
    finish = tensor_mod._finish

    def checked_finish(op, inputs, out_values, backward):
        if check_finite and not np.all(np.isfinite(out_values)):
            raise FloatingPointError(f"{op} produced non-finite values")
        if inputs and out_values.dtype == np.float64 \
                and all(t.values.dtype == np.float32 for t in inputs):
            raise TypeError(f"{op} promoted float32 inputs to float64")
        return finish(op, inputs, out_values, backward)

    monkeypatch.setattr(tensor_mod, "_finish", checked_finish)
