"""Tensor primitives and reverse-mode gradients against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.errors import ContractError, HarnessError, ShapeError
from dygwin.gradcheck import finite_difference_check
from dygwin.tensor import Tape, backward


def param(values):
    return T.parameter(np.asarray(values, dtype=np.float64))


class TestForwardPrimitives:
    def test_matmul_identity(self):
        out = T.matmul(param([[1, 2], [3, 4]]), param(np.eye(2)))
        assert np.array_equal(out.values, [[1, 2], [3, 4]])

    def test_relu_definition(self):
        out = T.relu(param([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.values, [[0, 0, 2]])

    def test_softmax_symmetry(self):
        out = T.softmax_rows(param([[0.0, 0.0]]))
        assert np.allclose(out.values, [[0.5, 0.5]])

    def test_softmax_rows_sum_double(self):
        rng = np.random.default_rng(0)
        out = T.softmax_rows(T.constant(rng.normal(size=(20, 7)) * 30, dtype=np.float64))
        assert np.all(np.abs(out.values.sum(axis=1) - 1.0) < 1e-12)

    def test_softmax_rows_sum_single(self):
        rng = np.random.default_rng(1)
        out = T.softmax_rows(T.constant(rng.normal(size=(20, 7)) * 30, dtype=np.float32))
        assert np.all(np.abs(out.values.sum(axis=1) - 1.0) < 1e-6)

    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(param(np.ones((2, 3))), param(np.ones((2, 3))))

    def test_dropout_eval_mode_identity(self):
        x = param(np.ones((4, 4)))
        out = T.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_inverted_scaling(self):
        x = T.constant(np.ones((2000, 1)), dtype=np.float64)
        out = T.dropout(x, 0.25, np.random.default_rng(3), training=True)
        kept = out.values[out.values > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.values.mean() - 1.0) < 0.05


class TestBackward:
    def test_square_derivative(self):
        x = param([[3.0]])
        with Tape() as tape:
            y = T.mul(x, x)
        backward(tape, y)
        assert np.allclose(x.grad, [[6.0]])

    def test_linear_mse_matches_central_differences(self):
        rng = np.random.default_rng(7)
        w = param(rng.normal(size=(3, 4)))
        x = T.constant(rng.normal(size=(6, 3)), dtype=np.float64)
        target = T.constant(rng.normal(size=(6, 4)), dtype=np.float64)

        def forward():
            diff = T.sub(T.matmul(x, w), target)
            return T.mean(T.mul(diff, diff))

        report = finite_difference_check(forward, {"w": w}, h=1e-5)
        assert report.max_rel_error < 1e-6

    def test_bce_gradient_is_sigmoid_minus_label_over_n(self):
        rng = np.random.default_rng(11)
        z = param(rng.normal(size=(8, 1)) * 2)
        y = (rng.random((8, 1)) > 0.5).astype(np.float64)
        with Tape() as tape:
            loss = T.bce_with_logits(z, T.constant(y, dtype=np.float64))
        backward(tape, loss)
        sigma = 1.0 / (1.0 + np.exp(-z.values))
        assert np.allclose(z.grad, (sigma - y) / 8, atol=1e-12)

        def forward():
            return T.bce_with_logits(z, T.constant(y, dtype=np.float64))

        report = finite_difference_check(forward, {"z": z})
        assert report.max_rel_error < 1e-6

    def test_gradients_accumulate_across_fanout(self):
        x = param([[2.0]])
        with Tape() as tape:
            y = T.add(T.mul(x, x), T.scale(x, 3.0))  # x^2 + 3x
        backward(tape, y)
        assert np.allclose(x.grad, [[7.0]])

    def test_non_scalar_loss_rejected(self):
        x = param([[1.0, 2.0]])
        with Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        x = param(rng.normal(size=(4, 3)))

        def grad_of(a, b):
            x.grad = None
            with Tape() as tape:
                f = T.mean(T.mul(x, x))
                g = T.tensor_sum(T.sin(x))
                combo = T.add(T.scale(f, a), T.scale(g, b))
            backward(tape, combo)
            return x.grad.copy()

        g_f = grad_of(1.0, 0.0)
        g_g = grad_of(0.0, 1.0)
        combined = grad_of(2.5, -1.5)
        assert np.allclose(combined, 2.5 * g_f - 1.5 * g_g, atol=1e-12)

    def test_forward_and_gradients_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            x = param(rng.normal(size=(5, 5)))
            with Tape() as tape:
                y = T.mean(T.relu(T.matmul(x, x)))
            backward(tape, y)
            return y.values.tobytes(), x.grad.tobytes()

        assert run() == run()

    def test_tape_entries_topologically_ordered(self):
        x = param(np.ones((2, 2)))
        with Tape() as tape:
            a = T.mul(x, x)
            b = T.add(a, x)
            T.mean(b)
        produced = set()
        for entry in tape.entries:
            for inp in entry.inputs:
                assert inp is x or id(inp) in produced
            produced.add(id(entry.output))


def _composition_cases():
    """Fixed-parameter forward closures covering every differentiable primitive."""
    rng = np.random.default_rng(123)
    cases = {}

    q = param(rng.normal(size=(1, 4)))
    k = param(rng.normal(size=(5, 4)))
    cases["attention_like"] = (
        lambda: T.mean(T.matmul(T.softmax_rows(
            T.scale(T.matmul(q, T.transpose(k)), 0.5)), k)),
        {"q": q, "k": k})

    x_seg = param(rng.normal(size=(6, 3)))
    seg = np.array([0, 0, 1, 1, 1, 2])

    def segment_pipeline():
        soft = T.segment_softmax(T.tensor_sum(x_seg, axis=1, keepdims=True), seg)
        pooled = T.segment_sum(T.mul(soft, x_seg), seg, 3)
        return T.mean(T.mul(pooled, pooled))

    cases["segment_pipeline"] = (segment_pipeline, {"x": x_seg})

    table = param(rng.normal(size=(5, 3)))
    other = param(rng.normal(size=(4, 2)))
    cases["gather_concat"] = (
        lambda: T.mean(T.sigmoid(T.concat_last_dim(
            [T.slice_rows(table, [0, 2, 2, 4]), other]))),
        {"table": table, "other": other})

    x_trig = param(np.abs(rng.normal(size=(3, 3))) + 0.5)
    cases["trig_sqrt"] = (
        lambda: T.mean(T.add(T.sin(x_trig), T.sqrt(x_trig))),
        {"x": x_trig})

    x_drop = param(rng.normal(size=(6, 4)) + 3.0)

    def dropout_pinned():
        masked = T.dropout(x_drop, 0.3, np.random.default_rng(9), training=True)
        return T.mean(T.mul(masked, masked))

    return cases, (dropout_pinned, {"x": x_drop})


class TestCompositions:
    @pytest.mark.parametrize("name", ["attention_like", "segment_pipeline",
                                      "gather_concat", "trig_sqrt"])
    def test_composition_gradients(self, name):
        cases, _ = _composition_cases()
        forward, params = cases[name]
        report = finite_difference_check(forward, params)
        assert report.max_rel_error < 1e-4, report

    def test_dropout_gradient_with_pinned_seed(self):
        _, (forward, params) = _composition_cases()
        report = finite_difference_check(forward, params)
        assert report.max_rel_error < 1e-4


class TestGradCheckHarness:
    def test_constant_function_reports_zero_error(self):
        x = param([[1.0, 2.0]])

        def forward():
            return T.mean(T.constant(np.ones((2, 2)), dtype=np.float64))

        report = finite_difference_check(forward, {"x": x})
        assert report.max_rel_error == 0.0

    def test_nondeterminism_detected(self):
        state = {"count": 0}

        def forward():
            state["count"] += 1
            return T.mean(T.constant(np.full((1, 1), float(state["count"]))))

        with pytest.raises(HarnessError):
            finite_difference_check(forward, {})


@settings(deadline=None, max_examples=30)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
def test_add_mul_gradients_property(rows, cols, data):
    values_a = data.draw(st.lists(st.floats(-3, 3), min_size=rows * cols,
                                  max_size=rows * cols))
    values_b = data.draw(st.lists(st.floats(-3, 3), min_size=rows * cols,
                                  max_size=rows * cols))
    a = param(np.asarray(values_a).reshape(rows, cols))
    b = param(np.asarray(values_b).reshape(rows, cols))
    with Tape() as tape:
        loss = T.mean(T.mul(T.add(a, b), b))
    backward(tape, loss)
    n = rows * cols
    assert np.allclose(a.grad, b.values / n, atol=1e-9)
    assert np.allclose(b.grad, (a.values + 2 * b.values) / n, atol=1e-9)
