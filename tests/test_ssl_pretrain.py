"""Distortion pipeline and the variance/invariance/covariance objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.data import chronological_split, split_edge_indices
from dygwin.encoder import init_encoder
from dygwin.errors import ContractError
from dygwin.gradcheck import finite_difference_check
from dygwin.pretrain import (DistortionConfig, PretrainConfig, VicregWeights, distort,
                             init_predictor, predict, pretrain, ssl_loss_terms, vicreg_covariance, vicreg_invariance,
                             vicreg_variance)
from dygwin.synthetic import make_synthetic_ctdg
from dygwin.windows import Interval, make_window_batch

from graphs import ctdg_from


def const(values):
    return T.constant(np.asarray(values, dtype=np.float64))


class TestDistort:
    def _batch(self, n=20):
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(n)])
        return make_window_batch(ctdg, Interval(0, n), target_size=0)

    def test_zero_probabilities_identity(self):
        batch = self._batch()
        view = distort(batch, DistortionConfig(0.0, 0.0), np.random.default_rng(0))
        assert len(view) == len(batch.input_edges)
        assert not view.enc_masked.any()
        assert np.array_equal(view.idx, batch.input_edges.idx)

    def test_full_dropout_empty(self):
        batch = self._batch()
        view = distort(batch, DistortionConfig(1.0, 0.0), np.random.default_rng(0))
        assert len(view) == 0

    def test_binomial_concentration(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10_000)])
        batch = make_window_batch(ctdg, Interval(0, 10_000), target_size=0)
        view = distort(batch, DistortionConfig(0.3, 0.3), np.random.default_rng(42))
        assert 7000 - 150 <= len(view) <= 7000 + 150

    def test_never_alters_times_or_ids(self):
        batch = self._batch()
        view = distort(batch, DistortionConfig(0.5, 0.5), np.random.default_rng(1))
        kept = np.isin(batch.input_edges.idx, view.idx)
        assert np.array_equal(view.t, batch.input_edges.t[kept])
        assert np.array_equal(view.u, batch.input_edges.u[kept])


class TestVicregTerms:
    def test_variance_collapsed_batch(self):
        z = const(np.tile([1.0, -2.0, 0.5], (6, 1)))
        assert abs(vicreg_variance(z, gamma=1.0, eps=1e-4).item() - 0.99) < 1e-9

    def test_variance_clamps_when_spread(self):
        rng = np.random.default_rng(0)
        z = const(rng.normal(size=(500, 4)) * 10)
        assert vicreg_variance(z).item() == 0.0

    def test_variance_half_collapsed(self):
        z = const([[0.0, 0.0], [2.0, 0.0]])
        assert abs(vicreg_variance(z, 1.0, 1e-4).item() - 0.495) < 1e-9

    def test_covariance_orthogonal_columns(self):
        z = const([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        assert abs(vicreg_covariance(z).item()) < 1e-12

    def test_covariance_hand_value(self):
        z = const([[1.0, 1.0], [-1.0, -1.0]])
        assert abs(vicreg_covariance(z).item() - 1.0) < 1e-9

    def test_covariance_single_dim_zero(self):
        z = const([[1.0], [3.0], [-2.0]])
        assert vicreg_covariance(z).item() == 0.0

    def test_invariance_identical_views(self):
        z = const(np.random.default_rng(0).normal(size=(5, 3)))
        assert vicreg_invariance(z, z).item() == 0.0

    def test_invariance_three_four_five(self):
        assert abs(vicreg_invariance(const([[3.0, 4.0]]),
                                     const([[0.0, 0.0]])).item() - 25.0) < 1e-9

    def test_invariance_quadratic_homogeneity(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        base = vicreg_invariance(const(a), const(b)).item()
        doubled = vicreg_invariance(const(2 * a), const(2 * b)).item()
        assert abs(doubled - 4 * base) < 1e-9

    def test_terms_need_two_rows(self):
        with pytest.raises(ContractError):
            vicreg_variance(const([[1.0, 2.0]]))
        with pytest.raises(ContractError):
            vicreg_covariance(const([[1.0, 2.0]]))
        with pytest.raises(ContractError):
            vicreg_invariance(const([[1.0]]), const([[1.0, 2.0]]))


class TestSslLoss:
    def test_zero_loss_configuration(self):
        # identical views, per-column std >= 1, orthogonal columns
        z = const([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        assert abs(ssl_loss_terms(z, z)[0].item()) < 1e-9

    def test_collapsed_batch_dominated_by_variance(self):
        z = const(np.tile([0.3, -0.7], (8, 1)))
        assert ssl_loss_terms(z, z)[0].item() >= 49.5 - 1e-9

    def test_default_weights(self):
        w = VicregWeights()
        assert (w.invariance, w.variance, w.covariance) == (25.0, 25.0, 1.0)
        assert (w.gamma, w.eps) == (1.0, 1e-4)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_loss_and_terms_nonnegative(self, data):
        n = data.draw(st.integers(2, 8))
        d = data.draw(st.integers(1, 5))
        cells = st.floats(-10, 10)
        a = np.asarray(data.draw(st.lists(cells, min_size=n * d, max_size=n * d))
                       ).reshape(n, d)
        b = np.asarray(data.draw(st.lists(cells, min_size=n * d, max_size=n * d))
                       ).reshape(n, d)
        loss, terms = ssl_loss_terms(const(a), const(b))
        assert terms["s"] >= 0 and terms["v"] >= 0 and terms["c"] >= 0
        assert loss.item() >= 0

    def test_gradient_through_predictor_and_loss(self):
        rng = np.random.default_rng(3)
        predictor = init_predictor(4, seed=0, dtype=np.float64)
        h_a = T.constant(rng.normal(size=(6, 4)), dtype=np.float64)
        h_b = T.constant(rng.normal(size=(6, 4)), dtype=np.float64)

        def forward():
            return ssl_loss_terms(predict(predictor, h_a), predict(predictor, h_b))[0]

        report = finite_difference_check(forward, predictor.named(), h=1e-6)
        assert report.max_rel_error < 1e-3, report


@pytest.fixture(scope="module")
def run():
    ctdg = make_synthetic_ctdg(num_nodes=30, num_edges=500, history=60, seed=5)
    split = chronological_split(ctdg)
    train_idx, _, _ = split_edge_indices(ctdg, split)
    train = ctdg.subset(train_idx)

    def execute():
        encoder = init_encoder(num_layers=2, node_dim=16, time_dim=8, heads=2,
                               seed=0)
        predictor = init_predictor(16, seed=0)
        config = PretrainConfig(window=200, stride=100, epochs=2, lr=1e-3,
                                max_neighbors=10, seed=0)
        history, skipped = pretrain(train, encoder, predictor, config)
        return encoder, predictor, history, skipped, train

    return execute, execute()


class TestPretrainLoop:

    def test_loss_decreases_between_epochs(self, run):
        _, (_, _, history, _, _) = run
        assert history[1]["loss"] < history[0]["loss"]

    def test_no_collapse_after_training(self, run):
        from dygwin.encoder import encode
        from dygwin.windows import Interval, make_window_batch
        _, (encoder, predictor, _, _, train) = run
        batch = make_window_batch(train, Interval(0, len(train)), target_size=0)
        h = encode(batch, encoder, 10, rng_key=(123,))
        z = predict(predictor, h.matrix)
        assert z.values.var(axis=0).sum() > 1e-4

    def test_rerun_reproduces_final_loss(self, run):
        execute, (_, _, history, _, _) = run
        _, _, again, _, _ = execute()
        a, b = history[-1]["loss"], again[-1]["loss"]
        assert abs(a - b) <= 1e-5 * max(abs(a), 1.0)

    def test_log_rows_have_components(self, run):
        _, (_, _, history, _, _) = run
        assert set(history[0]) == {"epoch", "loss", "v", "c", "s"}
