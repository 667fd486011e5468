"""Encoder layers against hand arithmetic and the reference attention path."""

import numpy as np
import pytest

import dygwin.tensor as T
from dygwin.encoder import (EncoderParams, NodeEmbeddings, encode, init_encoder,
                            layer_forward, window_end_time)
from dygwin.errors import ConsistencyError
from dygwin.features import WindowFeatureCache
from dygwin.gradcheck import finite_difference_check
from dygwin.windows import Interval, make_window_batch

from graphs import ctdg_from, edges_from
from oracles import edge_message, mha


def tiny_params(node_dim=2, time_dim=2, edge_dim=0, heads=1, num_layers=1,
                seed=0, dtype=np.float64) -> EncoderParams:
    params = init_encoder(num_layers=num_layers, node_dim=node_dim, time_dim=time_dim,
                          edge_dim=edge_dim, heads=heads, dropout=0.0, seed=seed,
                          dtype=dtype)
    return params


class TestMha:
    def test_single_key_weight_is_one(self):
        params = tiny_params(node_dim=4, time_dim=2, heads=2)
        layer = params.layers[0]
        rng = np.random.default_rng(0)
        query = T.constant(rng.normal(size=(1, 4)), dtype=np.float64)
        key = T.constant(rng.normal(size=(1, 6)), dtype=np.float64)
        out = mha(query, key, layer)
        # softmax over one element is exactly 1: output is the projected value
        manual = np.concatenate([(key.values @ layer.wv[h].values)
                                 for h in range(2)], axis=1) @ layer.wo.values
        assert np.allclose(out.values, manual, atol=1e-12)

    def test_duplicate_keys_match_single_key(self):
        params = tiny_params(node_dim=4, time_dim=2, heads=2)
        layer = params.layers[0]
        rng = np.random.default_rng(1)
        query = T.constant(rng.normal(size=(1, 4)), dtype=np.float64)
        key_row = rng.normal(size=(1, 6))
        single = mha(query, T.constant(key_row, dtype=np.float64), layer)
        double = mha(query, T.constant(np.vstack([key_row, key_row]), dtype=np.float64),
                     layer)
        assert np.allclose(single.values, double.values, atol=1e-12)

    def test_empty_key_set_returns_zero(self):
        params = tiny_params(node_dim=4, time_dim=2, heads=2)
        query = T.constant(np.ones((1, 4)), dtype=np.float64)
        out = mha(query, None, params.layers[0])
        assert np.array_equal(out.values, np.zeros((1, 4)))


class TestLayerForward:
    def _embeddings(self, values):
        ids = np.arange(len(values))
        return NodeEmbeddings(ids, T.constant(np.asarray(values, dtype=np.float64)))

    def test_identity_w1_empty_samples_keeps_embeddings(self):
        params = tiny_params(node_dim=2, time_dim=2)
        layer = params.layers[0]
        layer.w1 = T.parameter(np.eye(2), dtype=np.float64)
        edges = edges_from([(0, 1, 1.0)])
        cache = WindowFeatureCache(edges)
        emb = self._embeddings([[1.0, 2.0], [3.0, 4.0]])
        out = layer_forward(emb, {0: np.empty(0, dtype=np.int64),
                                  1: np.empty(0, dtype=np.int64)},
                            layer, params, edges, cache, fallback_time=1.0)
        assert np.allclose(out.matrix.values, emb.matrix.values)

    def test_single_neighbor_matches_hand_computation(self):
        params = tiny_params(node_dim=2, time_dim=2, heads=1)
        layer = params.layers[0]
        edges = edges_from([(0, 1, 3.0)])
        cache = WindowFeatureCache(edges)
        h = np.array([[0.5, -1.0], [2.0, 0.25]])
        emb = self._embeddings(h)
        out = layer_forward(emb, {0: np.array([0])}, layer, params, edges, cache,
                            fallback_time=3.0)

        # hand evaluation of the anchor-0 row with plain numpy
        omega, phase = params.t2v.omega.values, params.t2v.phase.values
        angles = 0.0 * omega + phase  # recency 3.0 minus edge time 3.0
        f_time = np.concatenate([angles[:, :1], np.sin(angles[:, 1:])], axis=1)
        counts = np.log1p(np.array([[1.0, 1.0, 0.0]]))  # deg(0), deg(1), cn at t=3
        f = f_time + counts @ params.edge_enc.w2.values
        phi = np.concatenate([h[1:2], f], axis=1)
        attn_value = phi @ layer.wv[0].values  # single key -> weight 1
        expected_row0 = h[0:1] @ layer.w1.values + attn_value @ layer.wo.values
        assert np.allclose(out.matrix.values[0], expected_row0, atol=1e-10)
        # anchor 1 had no sample: bare transform
        assert np.allclose(out.matrix.values[1], h[1:2] @ layer.w1.values, atol=1e-12)

    def test_permutation_invariance_over_sample_order(self):
        params = tiny_params(node_dim=4, time_dim=3, heads=2, seed=3)
        layer = params.layers[0]
        edges = edges_from([(0, i + 1, float(i)) for i in range(6)])
        cache = WindowFeatureCache(edges)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(7, 4))
        emb = self._embeddings(h)
        forward_order = layer_forward(emb, {0: np.array([0, 1, 2, 3, 4, 5])},
                                      layer, params, edges, cache, 5.0)
        shuffled = layer_forward(emb, {0: np.array([4, 2, 5, 0, 3, 1])},
                                 layer, params, edges, cache, 5.0)
        assert np.allclose(forward_order.matrix.values, shuffled.matrix.values,
                           atol=1e-12)

    def test_matches_reference_mha_composition(self):
        params = tiny_params(node_dim=4, time_dim=3, heads=2, seed=7)
        layer = params.layers[0]
        edges = edges_from([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
        cache = WindowFeatureCache(edges)
        rng = np.random.default_rng(11)
        h = rng.normal(size=(3, 4))
        emb = self._embeddings(h)
        samples = {0: np.array([0, 1]), 1: np.array([2]), 2: np.empty(0, dtype=np.int64)}
        batched = layer_forward(emb, samples, layer, params, edges, cache, 3.0)

        for anchor, sampled in samples.items():
            keys = []
            for position in sampled:
                other = int(edges.v[position]) if int(edges.u[position]) == anchor \
                    else int(edges.u[position])
                message = edge_message(
                    T.constant(h[other:other + 1], dtype=np.float64),
                    float(edges.t[position]),
                    cache.recency(anchor, 3.0),
                    np.empty(0), params, counts=cache.counts(int(position)))
                keys.append(message.values)
            key_tensor = T.constant(np.vstack(keys), dtype=np.float64) if keys else None
            reference = (h[anchor:anchor + 1] @ layer.w1.values +
                         mha(T.constant(h[anchor:anchor + 1], dtype=np.float64),
                             key_tensor, layer).values)
            assert np.allclose(batched.matrix.values[anchor], reference, atol=1e-10)

    def test_missing_embedding_row_is_consistency_error(self):
        params = tiny_params()
        emb = self._embeddings([[1.0, 0.0]])
        edges = edges_from([(0, 5, 1.0)])
        cache = WindowFeatureCache(edges)
        with pytest.raises(ConsistencyError):
            layer_forward(emb, {0: np.array([0])}, params.layers[0], params,
                          edges, cache, 1.0)


class TestEncode:
    def test_empty_input_graph_is_w1_chain_on_features(self):
        node_features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        params = init_encoder(num_layers=2, node_dim=3, time_dim=2, edge_dim=0,
                              node_feature_dim=2, heads=1, dropout=0.0,
                              seed=0, dtype=np.float64)
        ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)],
                         num_nodes=3)
        batch = make_window_batch(ctdg, Interval(0, 0), target_size=3)
        out = encode(batch, params, max_neighbors=5, rng_key=(0,),
                     node_features=node_features)
        chain = node_features[out.ids].astype(np.float64) @ params.input_proj.values
        for layer in params.layers:
            chain = chain @ layer.w1.values
        assert np.allclose(out.matrix.values, chain, atol=1e-12)

    def test_fixed_seed_bitwise_identical(self):
        ctdg = ctdg_from([(i % 5, (i + 2) % 5, float(i)) for i in range(40)])
        params = init_encoder(num_layers=2, node_dim=8, time_dim=6, heads=2,
                              dropout=0.0, seed=1, dtype=np.float64)
        batch = make_window_batch(ctdg, Interval(0, 30), target_size=5)
        a = encode(batch, params, 4, rng_key=(9,))
        b = encode(batch, params, 4, rng_key=(9,))
        assert a.matrix.values.tobytes() == b.matrix.values.tobytes()
        assert np.array_equal(a.ids, b.ids)

    def test_three_node_toy_matches_hand_matrices(self):
        params = tiny_params(node_dim=2, time_dim=2, heads=1, seed=5)
        ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0)], num_nodes=3)
        batch = make_window_batch(ctdg, Interval(0, 2), target_size=0)
        out = encode(batch, params, max_neighbors=5, rng_key=(3,))
        # zero initial embeddings: messages carry only time and count terms
        layer = params.layers[0]
        cache = WindowFeatureCache(batch.input_edges)
        expected = np.zeros((3, 2))
        omega, phase = params.t2v.omega.values, params.t2v.phase.values
        for anchor in range(3):
            positions = [p for p in range(2)
                         if anchor in (int(batch.input_edges.u[p]),
                                       int(batch.input_edges.v[p]))]
            if not positions:
                continue
            recency = cache.recency(anchor, 2.0)
            keys = []
            for p in positions:
                angles = (recency - batch.input_edges.t[p]) * omega + phase
                f_time = np.concatenate([angles[:, :1], np.sin(angles[:, 1:])], axis=1)
                f = f_time + np.log1p(np.array([cache.counts(p)],
                                               dtype=np.float64)) @ params.edge_enc.w2.values
                keys.append(np.concatenate([np.zeros((1, 2)), f], axis=1))
            keys = np.vstack(keys)
            q = np.zeros((1, 2)) @ layer.wq[0].values
            scores = (q @ (keys @ layer.wk[0].values).T) / np.sqrt(layer.wq[0].shape[1])
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            expected[anchor] = (weights @ (keys @ layer.wv[0].values)) @ layer.wo.values
        assert np.allclose(out.matrix.values, expected, atol=1e-6)

    def test_causality_target_content_never_read(self):
        rng = np.random.default_rng(2)
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, 12, size=(80, 2))) if a != b]
        ctdg = ctdg_from(triples, num_nodes=12)
        params = init_encoder(num_layers=3, node_dim=8, time_dim=4, heads=2,
                              dropout=0.0, seed=0, dtype=np.float64)
        batch = make_window_batch(ctdg, Interval(10, 60), target_size=15)
        baseline = encode(batch, params, 5, rng_key=(1,))

        corrupted_targets = batch.target_edges.take(
            np.random.default_rng(0).permutation(len(batch.target_edges)))
        corrupted_targets.t = corrupted_targets.t + 1e6
        corrupted = type(batch)(batch.interval, batch.input_edges, corrupted_targets)
        after = encode(corrupted, params, 5, rng_key=(1,))
        assert baseline.matrix.values.tobytes() == after.matrix.values.tobytes()
        assert np.array_equal(baseline.ids, after.ids)

    def test_gradients_flow_through_one_layer(self):
        params = init_encoder(num_layers=1, node_dim=8, time_dim=4, heads=2,
                              dropout=0.0, seed=4, dtype=np.float64)
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(12)],
                         num_nodes=5)
        batch = make_window_batch(ctdg, Interval(0, 12), target_size=0)

        def forward():
            out = encode(batch, params, max_neighbors=4, rng_key=(8,))
            return T.mean(T.mul(out.matrix, out.matrix))

        report = finite_difference_check(forward, params.named(), h=1e-6,
                                         max_coords_per_param=10)
        assert report.max_rel_error < 1e-4, report

    def test_window_end_time_fallbacks(self):
        ctdg = ctdg_from([(0, 1, 5.0), (1, 2, 9.0)], num_nodes=3)
        with_input = make_window_batch(ctdg, Interval(0, 2), target_size=0)
        assert window_end_time(with_input) == 9.0
        no_input = make_window_batch(ctdg, Interval(0, 0), target_size=2)
        assert window_end_time(no_input) == 5.0

    def test_message_width_at_reference_dimensions(self):
        params = init_encoder(num_layers=1, node_dim=100, time_dim=100, edge_dim=172,
                              heads=2, seed=0)
        assert params.message_dim == 372
        message = edge_message(T.constant(np.zeros((1, 100))), 1.0, 2.0,
                               np.zeros(172), params)
        assert message.shape == (1, 372)

    def test_node_feature_projection_gets_gradients(self):
        node_features = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
        params = init_encoder(num_layers=2, node_dim=6, time_dim=4, edge_dim=0,
                              node_feature_dim=3, heads=2, dropout=0.0,
                              seed=2, dtype=np.float64)
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(10)],
                         num_nodes=5)
        batch = make_window_batch(ctdg, Interval(0, 10), target_size=0)

        def forward():
            out = encode(batch, params, max_neighbors=3, rng_key=(4,),
                         node_features=node_features)
            return T.mean(T.mul(out.matrix, out.matrix))

        report = finite_difference_check(forward, {"proj": params.input_proj}, h=1e-6)
        assert report.max_rel_error < 1e-4
        assert np.any(params.input_proj.grad != 0)
