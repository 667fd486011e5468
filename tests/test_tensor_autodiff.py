"""Tensor primitives and reverse-mode gradients against finite differences."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.errors import ContractError, ShapeError
from dygwin.tensor import Tape, backward

from gradcheck import HarnessError, finite_difference_check
import oracles
from oracles import sigmoid, sin, softmax_rows


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
        out = softmax_rows(param([[0.0, 0.0]]))
        assert np.allclose(out.values, [[0.5, 0.5]])

    def test_softmax_rows_sum_double(self):
        rng = np.random.default_rng(0)
        out = softmax_rows(T.constant(rng.normal(size=(20, 7)) * 30, dtype=np.float64))
        assert np.all(np.abs(out.values.sum(axis=1) - 1.0) < 1e-12)

    def test_softmax_rows_sum_single(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(T.constant(rng.normal(size=(20, 7)) * 30, dtype=np.float32))
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
            y = oracles.mul(x, x)
        backward(tape, y)
        assert np.allclose(x.grad, [[6.0]])

    def test_linear_mse_matches_central_differences(self):
        rng = np.random.default_rng(7)
        w = param(rng.normal(size=(3, 4)))
        x = T.constant(rng.normal(size=(6, 3)), dtype=np.float64)
        target = T.constant(rng.normal(size=(6, 4)), dtype=np.float64)

        def forward():
            diff = oracles.sub(T.matmul(x, w), target)
            return oracles.mean(oracles.mul(diff, diff))

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_far_tails_give_exact_gradients_without_warnings(self, dtype):
        # exp overflows float32 past 88 and float64 past 709.
        z = T.parameter([[100.0, -100.0, 800.0, -800.0, 100.0, -800.0]], dtype=dtype)
        y = np.array([[1.0, 0.0, 1.0, 0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with Tape() as tape:
                loss = T.bce_with_logits(z, T.constant(y, dtype=dtype))
            grad = backward(tape, loss)[z]
        sigma = np.exp(-np.logaddexp(0.0, -z.values.astype(np.float64)))
        assert grad.dtype == dtype and np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, (sigma - y) / 6, rtol=1e-6, atol=1e-12)

    def test_gradients_accumulate_across_fanout(self):
        x = param([[2.0]])
        with Tape() as tape:
            y = T.add(oracles.mul(x, x), oracles.scale(x, 3.0))  # x^2 + 3x
        backward(tape, y)
        assert np.allclose(x.grad, [[7.0]])

    def test_non_scalar_loss_rejected(self):
        x = param([[1.0, 2.0]])
        with Tape() as tape:
            y = oracles.scale(x, 2.0)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        x = param(rng.normal(size=(4, 3)))

        def grad_of(a, b):
            x.grad = None
            with Tape() as tape:
                f = oracles.mean(oracles.mul(x, x))
                g = oracles.tensor_sum(sin(x))
                combo = T.add(oracles.scale(f, a), oracles.scale(g, b))
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
                y = oracles.mean(T.relu(T.matmul(x, x)))
            backward(tape, y)
            return y.values.tobytes(), x.grad.tobytes()

        assert run() == run()

    def test_tape_entries_topologically_ordered(self):
        x = param(np.ones((2, 2)))
        with Tape() as tape:
            a = oracles.mul(x, x)
            b = T.add(a, x)
            oracles.mean(b)
        produced = set()
        for entry in tape.entries:
            for inp in entry.inputs:
                assert inp is x or id(inp) in produced
            produced.add(id(entry.output))


class TestFanIn:
    """``backward`` sums a gradient that has several sources in place once it
    owns the sum, and leaves every array a closure returned untouched."""

    def test_in_place_sums_match_out_of_place_bits(self):
        rng = np.random.default_rng(21)
        x = param(rng.normal(size=(3, 4)))
        factors = [rng.normal(size=(3, 4)) for _ in range(4)]
        with Tape() as tape:
            paths = [oracles.mul(x, T.constant(f)) for f in factors]
            loss = oracles.tensor_sum(T.add(T.add(T.add(paths[0], paths[1]), paths[2]), paths[3]))
        grads = backward(tape, loss)
        # The tape replays the last path first.
        expected = ((factors[3] + factors[2]) + factors[1]) + factors[0]
        assert grads[x].tobytes() == expected.tobytes()

    @staticmethod
    def _shared_by_both_add_inputs(a, d, m):
        return T.add(T.add(a, d), m), 1.0

    @staticmethod
    def _add_of_one_input_twice(a, d, m):
        return T.add(T.add(T.add(a, a), m), d), 2.0

    @staticmethod
    def _concat_slices(a, d, m):
        return T.add(T.concat_last_dim([a, m]),
                     T.concat_last_dim([d, T.constant(np.zeros((2, 3)))])), 1.0

    @pytest.mark.parametrize("build", ["_shared_by_both_add_inputs", "_add_of_one_input_twice",
                                       "_concat_slices"])
    def test_shared_gradients_are_never_written(self, build):
        # ``m = a * c`` is recorded first, so it is replayed last: ``a``'s first
        # gradient is then an array that ``d``'s gradient also is or views, and
        # writing ``a``'s sum into it would change ``d``'s gradient.
        rng = np.random.default_rng(5)
        a, d = param(rng.normal(size=(2, 3))), param(rng.normal(size=(2, 3)))
        c = rng.normal(size=(2, 3))
        with Tape() as tape:
            out, a_paths = getattr(self, build)(a, d, oracles.mul(a, T.constant(c)))
            loss = oracles.tensor_sum(oracles.mul(out, T.constant(np.full(out.shape, 1.5))))
        grads = backward(tape, loss)
        assert np.array_equal(grads[d], np.full((2, 3), 1.5))
        assert np.allclose(grads[a], 1.5 * a_paths + 1.5 * c, rtol=0, atol=1e-12)

    def test_float32_sum_promotes_on_a_float64_gradient(self):
        rng = np.random.default_rng(8)
        x = T.parameter(rng.normal(size=(3, 2)).astype(np.float32))
        w = rng.normal(size=(3, 2))
        c = rng.normal(size=(3, 2))
        with Tape() as tape:
            wide = oracles.mul(x, T.constant(c))                   # float64 gradient, replayed last
            narrow = T.add(T.slice_rows(x, [0, 1, 2]), T.slice_rows(x, [2, 0, 1]))
            loss = oracles.tensor_sum(oracles.mul(T.add(narrow, wide), T.constant(w)))
        grads = backward(tape, loss)
        # slice_rows hands back float32; their sum is then owned, and the
        # float64 gradient of ``wide`` must widen it rather than be cast into it.
        expected = (w[[1, 2, 0]].astype(np.float32) + w.astype(np.float32)) + w * c
        assert grads[x].dtype == np.float64
        assert grads[x].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("op", [T.matmul, oracles.mul, T.add, oracles.sub])
    def test_constant_inputs_get_no_gradient(self, op):
        x, c = param(np.eye(2) + 1.0), T.constant(np.full((2, 2), 3.0))
        for inputs, constant_at in (((x, c), 1), ((c, x), 0)):
            with Tape() as tape:
                op(*inputs)
            grads = tape.entries[-1].backward(np.ones((2, 2)))
            assert grads[constant_at] is None and grads[1 - constant_at] is not None


def _composition_cases():
    """Fixed-parameter forward closures covering every differentiable primitive."""
    rng = np.random.default_rng(123)
    cases = {}

    q = param(rng.normal(size=(1, 4)))
    k = param(rng.normal(size=(5, 4)))
    cases["attention_like"] = (
        lambda: oracles.mean(T.matmul(softmax_rows(
            oracles.scale(T.matmul(q, oracles.transpose(k)), 0.5)), k)),
        {"q": q, "k": k})

    x_seg = param(rng.normal(size=(6, 3)))
    seg = np.array([0, 0, 2, 2, 2, 3])  # segments 1 and 4 stay empty

    def segment_pipeline():
        soft = oracles.segment_softmax(oracles.tensor_sum(x_seg, axis=1, keepdims=True), seg)
        pooled = oracles.segment_sum(oracles.mul(soft, x_seg), seg, 5)
        return oracles.mean(oracles.mul(pooled, pooled))

    cases["segment_pipeline"] = (segment_pipeline, {"x": x_seg})

    table = param(rng.normal(size=(5, 3)))
    other = param(rng.normal(size=(4, 2)))
    cases["gather_concat"] = (
        lambda: oracles.mean(sigmoid(T.concat_last_dim(
            [T.slice_rows(table, [4, 2, 0, 2]), other]))),
        {"table": table, "other": other})

    x_trig = param(np.abs(rng.normal(size=(3, 3))) + 0.5)
    cases["trig_sqrt"] = (
        lambda: oracles.mean(T.add(sin(x_trig), oracles.sqrt(x_trig))),
        {"x": x_trig})

    x_drop = param(rng.normal(size=(6, 4)) + 3.0)

    q_att = param(rng.normal(size=(5, 6)))
    k_att = rng.normal(size=(6, 6))
    v_att = param(rng.normal(size=(6, 4)))
    kv_att = param(np.hstack([k_att, v_att.values]))

    def segment_attention():
        # Two heads; segments 1 and 4 have no messages; the pinned mask drops
        # some weights.
        pooled = T.segment_attention(q_att, kv_att, seg, 5, 2,
                                     (0.3, np.random.default_rng(9).random((6, 2))))
        return oracles.mean(oracles.mul(pooled, pooled))

    cases["segment_attention"] = (segment_attention, {"q": q_att, "kv": kv_att})

    def segment_attention_zero_scores():
        # Every score 0: a per-segment mean of the kept rows, with the same mask.
        pooled = T.segment_attention(None, v_att, seg, 5, 2,
                                     (0.3, np.random.default_rng(9).random((6, 2))))
        return oracles.mean(oracles.mul(pooled, pooled))

    cases["segment_attention_zero_scores"] = (segment_attention_zero_scores, {"v": v_att})

    omega = param(rng.normal(size=(1, 4)))
    phase = param(rng.normal(size=(1, 4)))
    gaps = np.array([[0.0], [0.5], [1.3], [2.0], [3.1]])

    def time_encoding():
        encoded = T.time_encoding(gaps, omega, phase)
        return oracles.mean(oracles.mul(encoded, encoded))

    cases["time_encoding"] = (time_encoding, {"omega": omega, "phase": phase})

    w_enc = param(rng.normal(size=(3, 4)))
    log_counts = np.log1p(rng.integers(0, 5, size=(4, 3)).astype(np.float64))

    extra = rng.normal(size=(4, 2))

    wk_msg, wv_msg = param(rng.normal(size=(9, 4))), param(rng.normal(size=(9, 4)))
    h_msg = param(rng.normal(size=(3, 3)))

    def edge_encoding():
        # Table rows read twice, three times and not at all, in float64, with two
        # constant columns after the encoding, through values alone (zero node columns).
        table = T.EdgeEncodingTable(gaps[:4], log_counts, omega, phase, w_enc, extra)
        encoded = table.messages(None, None, np.array([3, 0, 3, 1, 3]), None, wv_msg)
        return oracles.mean(oracles.mul(encoded, encoded))

    cases["edge_encoding"] = (edge_encoding, {"omega": omega, "phase": phase, "w": w_enc,
                                              "wv": wv_msg})

    def messages():
        # Node rows read twice and not at all; keys and values of the same messages.
        table = T.EdgeEncodingTable(gaps[:4], log_counts, omega, phase, w_enc, extra)
        kv = table.messages(h_msg, np.array([2, 0, 2, 1, 2]), np.array([3, 0, 3, 1, 3]),
                            wk_msg, wv_msg)
        return oracles.mean(oracles.mul(kv, kv))

    cases["messages"] = (messages, {"h": h_msg, "omega": omega, "phase": phase, "w": w_enc,
                                    "wk": wk_msg, "wv": wv_msg})

    def dropout_pinned():
        masked = T.dropout(x_drop, 0.3, np.random.default_rng(9), training=True)
        return oracles.mean(oracles.mul(masked, masked))

    return cases, (dropout_pinned, {"x": x_drop})


class TestCompositions:
    @pytest.mark.parametrize("name", ["attention_like", "segment_pipeline",
                                      "gather_concat", "trig_sqrt", "segment_attention",
                                      "segment_attention_zero_scores",
                                      "time_encoding", "edge_encoding", "messages"])
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
            return oracles.mean(T.constant(np.ones((2, 2)), dtype=np.float64))

        report = finite_difference_check(forward, {"x": x})
        assert report.max_rel_error == 0.0

    def test_nondeterminism_detected(self):
        state = {"count": 0}

        def forward():
            state["count"] += 1
            return oracles.mean(T.constant(np.full((1, 1), float(state["count"]))))

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
        loss = oracles.mean(oracles.mul(T.add(a, b), b))
    backward(tape, loss)
    n = rows * cols
    assert np.allclose(a.grad, b.values / n, atol=1e-9)
    assert np.allclose(b.grad, (a.values + 2 * b.values) / n, atol=1e-9)


def test_finite_check_fixture_raises_on_inf():
    # tests/conftest.py wraps every primitive's output in a finite check.
    with pytest.raises(FloatingPointError, match="add produced non-finite values"):
        T.add(T.constant([[np.inf]]), T.constant([[1.0]]))


DTYPES = st.sampled_from([np.float32, np.float64])


def _values_and_grads(primitive, inputs, g, *args):
    """Forward values and the gradient ``backward`` gives each input when the
    output's upstream gradient is ``g``."""
    params = [T.parameter(x) for x in inputs]
    with Tape() as tape:
        out = primitive(*params, *args)
        seed = T._finish("seed", (out,), np.zeros((), out.dtype), lambda _: (g,))
    grads = backward(tape, seed)
    return [out.values] + [grads[p] for p in params]


def _assert_matches_oracle(primitive, oracle, inputs, g, *args, exact=False):
    """Bit for bit when ``exact`` or when every input is float64; within
    float32 rounding otherwise. An empty result may differ in dtype only."""
    exact = exact or all(x.dtype == np.float64 for x in (*inputs, g))
    for new, old in zip(_values_and_grads(primitive, inputs, g, *args),
                        _values_and_grads(oracle, inputs, g, *args)):
        assert new.shape == old.shape and (new.dtype == old.dtype or new.size == 0)
        if exact:
            assert new.tobytes() == old.tobytes()
        else:
            np.testing.assert_allclose(new, old, rtol=1e-5, atol=1e-5)


@settings(deadline=None, max_examples=60)
@given(num_rows=st.integers(1, 6), tail=st.lists(st.integers(1, 3), max_size=2),
       picks=st.lists(st.integers(0, 99), max_size=8), dtype=DTYPES, g_dtype=DTYPES,
       seed=st.integers(0, 2**16))
@example(num_rows=3, tail=[2], picks=[], dtype=np.float64, g_dtype=np.float64, seed=0)
@example(num_rows=4, tail=[], picks=[3, 1, 3, 0, 1], dtype=np.float64, g_dtype=np.float64,
         seed=1)
@example(num_rows=4, tail=[2, 3], picks=[2, 0, 2, 2], dtype=np.float32, g_dtype=np.float64,
         seed=2)
def test_slice_rows_matches_scatter_oracle(num_rows, tail, picks, dtype, g_dtype, seed):
    rng = np.random.default_rng(seed)
    rows = np.asarray(picks, dtype=np.int64) % num_rows  # unsorted and repeated
    values = rng.normal(scale=3.0, size=(num_rows, *tail)).astype(dtype)
    g = rng.normal(scale=3.0, size=(len(rows), *tail)).astype(g_dtype)
    _assert_matches_oracle(T.slice_rows, oracles.slice_rows, (values,), g, rows)


@settings(deadline=None, max_examples=60)
@given(num_segments=st.integers(1, 5), width=st.integers(1, 3),
       picks=st.lists(st.integers(0, 99), max_size=8), dtype=DTYPES, g_dtype=DTYPES,
       seed=st.integers(0, 2**16))
@example(num_segments=3, width=2, picks=[], dtype=np.float64, g_dtype=np.float64, seed=0)
@example(num_segments=5, width=2, picks=[3, 0, 3, 3, 0], dtype=np.float64,
         g_dtype=np.float64, seed=1)
def test_segment_sum_matches_scatter_oracle(num_segments, width, picks, dtype, g_dtype, seed):
    rng = np.random.default_rng(seed)
    seg = np.asarray(picks, dtype=np.int64) % num_segments  # unsorted, ids skipped
    values = rng.normal(scale=3.0, size=(len(seg), width)).astype(dtype)
    g = rng.normal(scale=3.0, size=(num_segments, width)).astype(g_dtype)
    _assert_matches_oracle(oracles.segment_sum, oracles.segment_sum_at, (values,), g, seg,
                           num_segments)


@settings(deadline=None, max_examples=60)
@given(runs=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 4)), max_size=5,
                     unique_by=lambda run: run[0]),
       width=st.integers(1, 3), dtype=DTYPES, g_dtype=DTYPES, seed=st.integers(0, 2**16))
@example(runs=[], width=1, dtype=np.float64, g_dtype=np.float64, seed=0)
@example(runs=[(0, 2), (2, 3), (7, 1)], width=1, dtype=np.float64, g_dtype=np.float64,
         seed=1)
@example(runs=[(5, 3), (1, 2)], width=2, dtype=np.float32, g_dtype=np.float64, seed=2)
def test_segment_softmax_matches_scatter_oracle(runs, width, dtype, g_dtype, seed):
    rng = np.random.default_rng(seed)
    # Each id one contiguous run; ids in any order, with gaps between them.
    seg = np.repeat([i for i, _ in runs], [n for _, n in runs]).astype(np.int64)
    values = rng.normal(scale=3.0, size=(len(seg), width)).astype(dtype)
    g = rng.normal(scale=3.0, size=(len(seg), width)).astype(g_dtype)
    _assert_matches_oracle(oracles.segment_softmax, oracles.segment_softmax_at, (values,), g,
                           seg)


def test_segment_softmax_rejects_a_split_segment():
    with pytest.raises(ShapeError, match="not contiguous"):
        oracles.segment_softmax(T.constant(np.zeros((3, 1))), [0, 1, 0])
    with pytest.raises(ShapeError, match="not contiguous"):
        T.segment_attention(T.constant(np.zeros((2, 1))), T.constant(np.zeros((3, 2))),
                            [0, 1, 0], 2, 1)


# (input, upstream gradient) dtypes: float64 and float32 throughout, the two
# precisions the encoder runs at, and float32 inputs under a float64 gradient.
# The encoder no longer sends that last mix (its attention scale is a Python
# float), but any caller that meets a float64 tensor downstream does, and
# backward must then give each input the oracle's gradient dtype.
MIXES = st.sampled_from([(np.float64, np.float64), (np.float32, np.float64),
                         (np.float32, np.float32)])


@settings(deadline=None, max_examples=80)
@given(runs=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), max_size=5,
                     unique_by=lambda run: run[0]),
       empty_tail=st.integers(0, 2), heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       value_dim=st.integers(1, 3), mix=MIXES, dropout=st.booleans(),
       seed=st.integers(0, 2**16))
@example(runs=[], empty_tail=2, heads=2, head_dim=2, value_dim=2,
         mix=(np.float64, np.float64), dropout=False, seed=0)
@example(runs=[(0, 1), (2, 1), (3, 1)], empty_tail=1, heads=1, head_dim=3, value_dim=3,
         mix=(np.float32, np.float64), dropout=True, seed=1)
@example(runs=[(4, 3), (1, 2), (2, 1)], empty_tail=0, heads=3, head_dim=2, value_dim=1,
         mix=(np.float64, np.float64), dropout=True, seed=2)
def test_segment_attention_matches_composed_oracle(runs, empty_tail, heads, head_dim,
                                                   value_dim, mix, dropout, seed):
    rng = np.random.default_rng(seed)
    dtype, g_dtype = mix
    # Each id one contiguous run, ids in any order; skipped ids and the tail
    # are anchors without messages.
    seg = np.repeat([i for i, _ in runs], [n for _, n in runs]).astype(np.int64)
    num_segments = max([i for i, _ in runs], default=-1) + 1 + empty_tail
    q_rows = rng.normal(scale=2.0, size=(num_segments, heads * head_dim)).astype(dtype)
    k = rng.normal(scale=2.0, size=(len(seg), heads * head_dim)).astype(dtype)
    v = rng.normal(scale=2.0, size=(len(seg), heads * value_dim)).astype(dtype)
    g = rng.normal(scale=2.0, size=(num_segments, heads * value_dim)).astype(g_dtype)
    u = rng.random((len(seg), heads))
    out, g_q, g_kv = _values_and_grads(
        lambda q_rows, kv: T.segment_attention(q_rows, kv, seg, num_segments, heads,
                                               (0.4, u) if dropout else None),
        (q_rows, np.hstack([k, v])), g)
    fused = out, g_q, g_kv[:, :k.shape[1]], g_kv[:, k.shape[1]:]

    # The per-head oracle on each head's column block, head h with column h of u.
    scale = float(1.0 / np.sqrt(head_dim))  # the fused op's: a Python float keeps the dtype
    per_head = []
    for h in range(heads):
        qk, vg = slice(h * head_dim, (h + 1) * head_dim), slice(h * value_dim, (h + 1) * value_dim)
        keep = (0.4, u[:, h:h + 1]) if dropout else None
        per_head.append(_values_and_grads(
            lambda q_rows, k, v: oracles.segment_attention(q_rows, k, v, seg, num_segments,
                                                           scale, keep),
            (q_rows[:, qk], k[:, qk], v[:, vg]), g[:, vg]))
    for new, parts in zip(fused, zip(*per_head)):
        old = np.hstack(parts)
        assert new.shape == old.shape and (new.dtype == old.dtype or new.size == 0)
        assert new.tobytes() == old.tobytes()


@settings(deadline=None, max_examples=60)
@given(runs=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), max_size=5,
                     unique_by=lambda run: run[0]),
       empty_tail=st.integers(0, 2), heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       value_dim=st.integers(1, 3), dtype=DTYPES, dropout=st.booleans(),
       seed=st.integers(0, 2**16))
@example(runs=[], empty_tail=2, heads=2, head_dim=2, value_dim=2, dtype=np.float64,
         dropout=True, seed=0)
@example(runs=[(3, 1), (0, 4), (1, 2)], empty_tail=1, heads=2, head_dim=3, value_dim=2,
         dtype=np.float32, dropout=True, seed=1)
def test_zero_score_attention_matches_zero_queries_and_keys(runs, empty_tail, heads, head_dim,
                                                            value_dim, dtype, dropout, seed):
    """``q_rows = None`` with values alone gives the bits of zero queries and
    keys: the output and the values' gradient, with and without dropout and with
    empty segments."""
    rng = np.random.default_rng(seed)
    seg = np.repeat([i for i, _ in runs], [n for _, n in runs]).astype(np.int64)
    num_segments = max([i for i, _ in runs], default=-1) + 1 + empty_tail
    v = rng.normal(scale=2.0, size=(len(seg), heads * value_dim)).astype(dtype)
    g = rng.normal(scale=2.0, size=(num_segments, heads * value_dim)).astype(dtype)
    keep = (0.4, rng.random((len(seg), heads))) if dropout else None
    zero_q = np.zeros((num_segments, heads * head_dim), dtype)
    zero_k = np.zeros((len(seg), heads * head_dim), dtype)
    out, g_v = _values_and_grads(
        lambda v: T.segment_attention(None, v, seg, num_segments, heads, keep), (v,), g)
    ref_out, _, ref_g_kv = _values_and_grads(
        lambda q_rows, kv: T.segment_attention(q_rows, kv, seg, num_segments, heads, keep),
        (zero_q, np.hstack([zero_k, v])), g)
    ref_g_v = ref_g_kv[:, zero_k.shape[1]:]
    assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
    assert g_v.dtype == ref_g_v.dtype and g_v.tobytes() == ref_g_v.tobytes()


def test_zero_score_attention_records_only_values():
    v = T.parameter(np.ones((3, 2)))
    with Tape() as tape:
        T.segment_attention(None, v, [0, 0, 1], 2, 2)
    (entry,) = tape.entries
    assert entry.inputs == (v,) and len(entry.backward(np.ones((2, 2)))) == 1
    # Keys with no value columns after them, and values the heads do not divide.
    for q_rows, kv in ((T.constant(np.zeros((2, 2))), v), (None, T.constant(np.ones((3, 3))))):
        with pytest.raises(ShapeError, match="segment_attention"):
            T.segment_attention(q_rows, kv, [0, 0, 1], 2, 2)


@settings(deadline=None, max_examples=60)
@given(rows=st.integers(0, 6), dim=st.integers(1, 5), mix=MIXES, seed=st.integers(0, 2**16))
@example(rows=0, dim=3, mix=(np.float64, np.float64), seed=0)
@example(rows=4, dim=1, mix=(np.float32, np.float64), seed=1)
def test_time_encoding_matches_composed_oracle(rows, dim, mix, seed):
    rng = np.random.default_rng(seed)
    dtype, g_dtype = mix
    # Gaps from 0 to about 1e7, in float64 as time2vec passes them.
    dt = rng.exponential(10.0 ** rng.uniform(0, 7, size=(rows, 1))) * (rng.random((rows, 1)) < 0.8)
    omega = (1.0 / np.power(10.0, rng.uniform(0, 7, size=(1, dim)))).astype(dtype)
    phase = rng.normal(size=(1, dim)).astype(dtype)
    g = rng.normal(scale=2.0, size=(rows, dim)).astype(g_dtype)
    _assert_matches_oracle(lambda w, b: T.time_encoding(dt, w, b),
                           lambda w, b: oracles.time_encoding(dt, w, b),
                           (omega, phase), g, exact=True)


def test_edge_table_keeps_cosines_only_under_a_tape_that_trains_a_parameter():
    rng = np.random.default_rng(3)
    dt, log_counts = rng.exponential(5.0, size=(3, 1)), rng.random((3, 3))
    omega, phase, w = (T.parameter(rng.normal(size=shape)) for shape in ((1, 4), (1, 4), (3, 4)))
    assert T.EdgeEncodingTable(dt, log_counts, omega, phase, w).cos is None
    with Tape():
        trained = T.EdgeEncodingTable(dt, log_counts, omega, phase, w)
    assert np.array_equal(trained.cos[:, 1:], np.cos(dt * omega.values + phase.values)[:, 1:])
    # A frozen encoder's encode under a tape (the probes') keeps none.
    for p in (omega, phase, w):
        p.requires_grad = False
    with Tape() as tape:
        frozen = T.EdgeEncodingTable(dt, log_counts, omega, phase, w)
        frozen.messages(None, None, np.array([2, 0, 2]), None, T.constant(np.ones((6, 2))))
    assert frozen.cos is None and not tape.entries


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("featureless", [True, False])
@pytest.mark.parametrize("edge_dim", [0, 2])
@pytest.mark.parametrize("count", [1, 9])
@pytest.mark.parametrize("dropout", [False, True])
def test_messages_entry_matches_composed_path(dtype, featureless, edge_dim, count, dropout):
    """One ``messages`` entry gives the keys, values, attention output and every
    gradient of the composed ``slice_rows``, table gather, ``concat_last_dim`` and
    two ``matmul``s byte for byte: featureless (values alone over zero node
    columns) or with input rows, with constant edge columns or without, for one
    message or several, under attention with and without dropout."""
    rng = np.random.default_rng(count * 10 + edge_dim)
    # Widths at which BLAS rounds a product over wv's last rows alone differently.
    node_dim, time_dim, width, heads, segments = 16, 16, 8, 2, 3
    dt = rng.exponential(5.0, size=(5, 1))
    log_counts = np.log1p(rng.integers(0, 5, size=(5, 3))).astype(dtype)
    extra = rng.normal(size=(5, edge_dim)).astype(dtype) if edge_dim else None
    leaves = {"omega": rng.normal(size=(1, time_dim)), "phase": rng.normal(size=(1, time_dim)),
              "w": rng.normal(size=(3, time_dim)), "h": rng.normal(size=(6, node_dim)),
              "wk": rng.normal(size=(node_dim + time_dim + edge_dim, width)),
              "wv": rng.normal(size=(node_dim + time_dim + edge_dim, width)),
              "q": rng.normal(size=(segments, width))}
    node_rows, rows = rng.integers(0, 6, size=count), rng.integers(0, 5, size=count)
    seg = np.sort(rng.integers(0, segments, size=count))
    keep = (0.3, rng.random((count, heads))) if dropout else None
    g = rng.normal(size=(segments, width)).astype(dtype)

    def run(build):
        p = {name: T.parameter(values.astype(dtype)) for name, values in leaves.items()}
        h, q_rows = (None, None) if featureless else (p["h"], p["q"])
        with Tape() as tape:
            table = T.EdgeEncodingTable(dt, log_counts, p["omega"], p["phase"], p["w"], extra)
            kv = build(table, h, None if h is None else node_rows, rows, p["wk"], p["wv"])
            out = T.segment_attention(q_rows, kv, seg, segments, heads, keep)
            loss = oracles.tensor_sum(oracles.mul(out, T.constant(g)))
        backward(tape, loss)
        return [kv.values, out.values], {name: t.grad for name, t in p.items()}

    (values, grads), (ref_values, ref_grads) = run(T.EdgeEncodingTable.messages), \
        run(oracles.messages)
    for new, old in zip(values, ref_values):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    for name, grad in grads.items():
        assert (grad is None) == (ref_grads[name] is None), name
        if grad is not None:
            assert grad.dtype == ref_grads[name].dtype, name
            assert grad.tobytes() == ref_grads[name].tobytes(), name
    assert (grads["h"] is None) == featureless and grads["wv"] is not None


def _held(value):
    """What a backward closure references: its cells, through nested functions,
    lists and tuples."""
    if callable(value) and getattr(value, "__closure__", None):
        for cell in value.__closure__:
            yield from _held(cell.cell_contents)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _held(item)
    else:
        yield value


@pytest.mark.parametrize("featureless", [True, False])
def test_messages_entry_keeps_no_per_message_float_array(featureless):
    """After forward, the ``messages`` entry's backward references the index
    arrays, the table, ``h`` and the weights, but no float array with one row
    per message: the message matrix is not kept, and both of its blocks are
    gathered again."""
    rng = np.random.default_rng(2)
    m, node_dim, time_dim, edge_dim, width = 7, 3, 4, 2, 6
    omega, phase, w = (T.parameter(rng.normal(size=shape))
                       for shape in ((1, time_dim), (1, time_dim), (3, time_dim)))
    wk, wv = (T.parameter(rng.normal(size=(node_dim + time_dim + edge_dim, width)))
              for _ in range(2))
    h = None if featureless else T.parameter(rng.normal(size=(4, node_dim)))
    node_rows, rows = rng.integers(0, 4, size=m), rng.integers(0, 5, size=m)
    with Tape() as tape:
        table = T.EdgeEncodingTable(rng.exponential(5.0, size=(5, 1)), rng.random((5, 3)),
                                    omega, phase, w, rng.normal(size=(5, edge_dim)))
        table.messages(h, None if featureless else node_rows, rows, wk, wv)
    (entry,) = tape.entries
    held = [v for v in _held(entry.backward) if isinstance(v, np.ndarray)]
    floats = [v for v in held if v.dtype.kind == "f"]
    assert any(v is table.values for v in floats) and all(len(v) != m for v in floats)
    assert any(v is rows for v in held) and featureless != any(v is node_rows for v in held)
