"""Distortion pipeline and the variance/invariance/covariance objective."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.data import CTDG, chronological_split, split_edge_indices
from dygwin.encoder import init_encoder
from dygwin.errors import ContractError
from dygwin.pretrain import (COVARIANCE_WEIGHT, INVARIANCE_WEIGHT, VARIANCE_EPS,
                             VARIANCE_TARGET, VARIANCE_WEIGHT, PretrainConfig,
                             distort, init_predictor, pretrain, ssl_loss_terms,
                             vicreg_covariance, vicreg_invariance, vicreg_variance)

from gradcheck import finite_difference_check
from graphs import ctdg_from
from synthetic import make_synthetic_ctdg


def const(values):
    return T.constant(np.asarray(values, dtype=np.float64))


class TestDistort:
    def _edges(self, n=20):
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(n)])
        return ctdg.window(0, n)

    def test_zero_probabilities_identity(self):
        edges = self._edges()
        view = distort(edges, PretrainConfig(p_drop_edge=0.0, p_mask_feat=0.0),
                       np.random.default_rng(0))
        assert len(view) == len(edges)
        assert not view.enc_masked.any()
        assert np.array_equal(view.idx, edges.idx)

    def test_full_dropout_empty(self):
        view = distort(self._edges(), PretrainConfig(p_drop_edge=1.0, p_mask_feat=0.0),
                       np.random.default_rng(0))
        assert len(view) == 0

    def test_binomial_concentration(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10_000)])
        view = distort(ctdg.window(0, 10_000), PretrainConfig(p_drop_edge=0.3, p_mask_feat=0.3),
                       np.random.default_rng(42))
        assert 7000 - 150 <= len(view) <= 7000 + 150

    def test_never_alters_times_or_ids(self):
        edges = self._edges()
        view = distort(edges, PretrainConfig(p_drop_edge=0.5, p_mask_feat=0.5),
                       np.random.default_rng(1))
        kept = np.isin(edges.idx, view.idx)
        assert np.array_equal(view.t, edges.t[kept])
        assert np.array_equal(view.u, edges.u[kept])

    @pytest.mark.parametrize("name", ["p_drop_edge", "p_mask_feat"])
    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_probability_outside_unit_interval_rejected(self, name, p):
        with pytest.raises(ContractError, match=name):
            PretrainConfig(**{name: p})


class TestVicregTerms:
    def test_variance_collapsed_batch(self):
        z = const(np.tile([1.0, -2.0, 0.5], (6, 1)))
        assert abs(vicreg_variance(z).item() - 0.99) < 1e-9

    def test_variance_clamps_when_spread(self):
        rng = np.random.default_rng(0)
        z = const(rng.normal(size=(500, 4)) * 10)
        assert vicreg_variance(z).item() == 0.0

    def test_variance_half_collapsed(self):
        z = const([[0.0, 0.0], [2.0, 0.0]])
        assert abs(vicreg_variance(z).item() - 0.495) < 1e-9

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
        assert (INVARIANCE_WEIGHT, VARIANCE_WEIGHT, COVARIANCE_WEIGHT) == (25.0, 25.0, 1.0)
        assert (VARIANCE_TARGET, VARIANCE_EPS) == (1.0, 1e-4)

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
            return ssl_loss_terms(predictor.forward(h_a), predictor.forward(h_b))[0]

        report = finite_difference_check(forward, predictor.named("predictor"), h=1e-6)
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
        from dygwin.features import WindowFeatureCache
        _, (encoder, predictor, _, _, train) = run
        h = encode(WindowFeatureCache(train), encoder, 10, (123,), train.endpoints())
        z = predictor.forward(h.matrix)
        assert z.values.var(axis=0).sum() > 1e-4

    def test_rerun_reproduces_final_loss(self, run):
        execute, (_, _, history, _, _) = run
        _, _, again, _, _ = execute()
        a, b = history[-1]["loss"], again[-1]["loss"]
        assert abs(a - b) <= 1e-5 * max(abs(a), 1.0)

    def test_log_rows_have_components(self, run):
        _, (_, _, history, _, _) = run
        assert set(history[0]) == {"epoch", "loss", "v", "c", "s"}


def test_epoch_without_a_step_logs_nan():
    # A stride longer than the log leaves no window, so no step runs.
    log = make_synthetic_ctdg(num_nodes=20, num_edges=100, history=40, seed=2)
    encoder = init_encoder(num_layers=1, node_dim=8, time_dim=4, heads=2, seed=0)
    config = PretrainConfig(window=100, stride=200, epochs=2, lr=1e-2, max_neighbors=5)
    history, skipped = pretrain(log, encoder, init_predictor(8), config)
    assert skipped == 0 and [row["epoch"] for row in history] == [0, 1]
    assert all(np.isnan(row[key]) for row in history for key in ("loss", "v", "c", "s"))


def test_pretrain_module_is_not_shadowed():
    # The package exports no names, so the submodule is not rebound to its function.
    import dygwin.pretrain as module
    assert isinstance(module, types.ModuleType) and module.pretrain is pretrain


def test_pretrain_reads_node_features():
    log = make_synthetic_ctdg(num_nodes=20, num_edges=200, history=40, seed=2)
    node_features = np.random.default_rng(0).normal(size=(log.num_nodes, 3))
    log = CTDG(log.u, log.v, log.t, log.feats, log.labels, log.label_present,
               log.num_nodes, node_features=node_features)
    encoder = init_encoder(num_layers=1, node_dim=8, time_dim=4, node_feature_dim=3,
                           heads=2, seed=0)
    before = encoder.input_proj.values.copy()
    config = PretrainConfig(window=100, stride=50, epochs=1, lr=1e-2, max_neighbors=5)
    history, _ = pretrain(log, encoder, init_predictor(8), config)
    assert np.isfinite(history[0]["loss"])
    assert not np.array_equal(encoder.input_proj.values, before)
