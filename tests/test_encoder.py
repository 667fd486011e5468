"""Encoder layers against hand arithmetic and the reference attention path."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.data import EdgeArray
from dygwin.downstream import POSITIVE, bce_loss, candidates, flp_score, init_decoder, score
from dygwin import encoder as encoder_module
from dygwin.checkpoint import load_checkpoint, load_model, save_model
from dygwin.encoder import (NEIGHBOR_STREAM, EncoderParams, NodeEmbeddings, edge_table,
                            encode, init_encoder, layer_forward)
from dygwin.errors import ConsistencyError, ContractError, DataError
from dygwin.features import WindowFeatureCache
from dygwin.optim import Adam
from dygwin.pretrain import init_predictor, ssl_loss_terms
from dygwin.windows import (ONE_WINDOW, IncidenceIndex, LayeredNeighborhood,
                            build_layered_neighborhood)

import oracles
from gradcheck import finite_difference_check
from graphs import ctdg_from, edges_from
from oracles import edge_message, mha


# The weights a featureless encoder does not hold: its input rows are all 0,
# so h @ W1 and h @ Wq are 0 and every attention score is 0.
FIRST_LAYER_PLACEHOLDERS = {f"encoder/layer0/{name}" for name in ("w1", "wq", "wk")}


def tiny_params(node_dim=2, time_dim=2, edge_dim=0, heads=1, num_layers=1,
                seed=0, dtype=np.float64, node_feature_dim=1) -> EncoderParams:
    """A dropout-free encoder; by default with node features, so that its first
    layer holds w1, wq and wk for the oracles that read them."""
    return init_encoder(num_layers=num_layers, node_dim=node_dim, time_dim=time_dim,
                        edge_dim=edge_dim, node_feature_dim=node_feature_dim, heads=heads,
                        dropout=0.0, seed=seed, dtype=dtype)


def with_first_layer_placeholders(**kwargs) -> EncoderParams:
    """``init_encoder(**kwargs)`` without node features, but holding layer 0's
    w1, wq and wk as the draw order makes them: the names and bits a featureless
    encoder had while it still kept those unread weights."""
    encoder = init_encoder(**kwargs)
    # Layers are drawn before the input projection, so layer 0's bits match.
    encoder.layers[0] = init_encoder(**kwargs, node_feature_dim=1).layers[0]
    return encoder


class TestMha:
    def test_single_key_weight_is_one(self):
        params = tiny_params(node_dim=4, time_dim=2, heads=2)
        layer = params.layers[0]
        rng = np.random.default_rng(0)
        query = T.constant(rng.normal(size=(1, 4)), dtype=np.float64)
        key = T.constant(rng.normal(size=(1, 6)), dtype=np.float64)
        out = mha(query, key, layer, heads=2)
        # softmax over one element is exactly 1: output is the projected value
        manual = key.values @ layer.wv.values @ layer.wo.values
        assert np.allclose(out.values, manual, atol=1e-12)

    def test_duplicate_keys_match_single_key(self):
        params = tiny_params(node_dim=4, time_dim=2, heads=2)
        layer = params.layers[0]
        rng = np.random.default_rng(1)
        query = T.constant(rng.normal(size=(1, 4)), dtype=np.float64)
        key_row = rng.normal(size=(1, 6))
        single = mha(query, T.constant(key_row, dtype=np.float64), layer, heads=2)
        double = mha(query, T.constant(np.vstack([key_row, key_row]), dtype=np.float64),
                     layer, heads=2)
        assert np.allclose(single.values, double.values, atol=1e-12)

    def test_empty_key_set_returns_zero(self):
        params = tiny_params(node_dim=4, time_dim=2, heads=2)
        query = T.constant(np.ones((1, 4)), dtype=np.float64)
        out = mha(query, None, params.layers[0], heads=2)
        assert np.array_equal(out.values, np.zeros((1, 4)))


def window_forward(emb, samples, layer, params, cache):
    """``layer_forward`` of one window's per-anchor samples, reading an edge
    table built over them."""
    flat = oracles.layer_samples(samples)
    table, (rows,) = edge_table(cache, params, LayeredNeighborhood([flat], emb.ids))
    return layer_forward(emb, flat, layer, params, cache.index, table, rows)


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
        out = window_forward(emb, {0: np.empty(0, dtype=np.int64),
                                  1: np.empty(0, dtype=np.int64)},
                            layer, params, cache)
        assert np.allclose(out.matrix.values, emb.matrix.values)

    def test_single_neighbor_matches_hand_computation(self):
        params = tiny_params(node_dim=2, time_dim=2, heads=1)
        layer = params.layers[0]
        edges = edges_from([(0, 1, 3.0)])
        cache = WindowFeatureCache(edges)
        h = np.array([[0.5, -1.0], [2.0, 0.25]])
        emb = self._embeddings(h)
        out = window_forward(emb, {0: np.array([0]), 1: np.empty(0, dtype=np.int64)},
                            layer, params, cache)

        # hand evaluation of the anchor-0 row with plain numpy
        omega, phase = params.t2v.omega.values, params.t2v.phase.values
        angles = 0.0 * omega + phase  # recency 3.0 minus edge time 3.0
        f_time = np.concatenate([angles[:, :1], np.sin(angles[:, 1:])], axis=1)
        counts = np.log1p(np.array([[1.0, 1.0, 0.0]]))  # deg(0), deg(1), cn at t=3
        f = f_time + counts @ params.edge_enc.values
        phi = np.concatenate([h[1:2], f], axis=1)
        attn_value = phi @ layer.wv.values  # single key -> weight 1
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
        forward_order = window_forward(emb, {0: np.array([0, 1, 2, 3, 4, 5])},
                                      layer, params, cache)
        shuffled = window_forward(emb, {0: np.array([4, 2, 5, 0, 3, 1])},
                                 layer, params, cache)
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
        batched = window_forward(emb, samples, layer, params, cache)

        for anchor, sampled in samples.items():
            keys = []
            for position in sampled:
                other = int(edges.v[position]) if int(edges.u[position]) == anchor \
                    else int(edges.u[position])
                message = edge_message(
                    T.constant(h[other:other + 1], dtype=np.float64),
                    float(edges.t[position]),
                    oracles.last_time(edges, anchor, 3.0),
                    np.empty(0), params, counts=cache.counts_matrix([position])[0])
                keys.append(message.values)
            key_tensor = T.constant(np.vstack(keys), dtype=np.float64) if keys else None
            reference = (h[anchor:anchor + 1] @ layer.w1.values +
                         mha(T.constant(h[anchor:anchor + 1], dtype=np.float64),
                             key_tensor, layer, params.heads).values)
            assert np.allclose(batched.matrix.values[anchor], reference, atol=1e-10)

    def test_one_attention_entry_per_layer_whatever_the_heads(self):
        ctdg = ctdg_from([(i % 5, (i + 2) % 5, float(i)) for i in range(12)], num_nodes=5)
        cache = WindowFeatureCache(ctdg.window(0, 12))
        ops = {}
        for heads in (1, 2, 4):
            params = init_encoder(num_layers=2, node_dim=8, time_dim=4, heads=heads,
                                  dropout=0.1, seed=0)
            with T.Tape() as tape:
                encode(cache, params, 4, (3,), np.arange(5), training=True)
            ops[heads] = [entry.op for entry in tape.entries]
            assert ops[heads].count("segment_attention") == params.num_layers
        assert ops[1] == ops[2] == ops[4]

    def test_missing_embedding_row_is_consistency_error(self):
        params = tiny_params()
        emb = self._embeddings([[1.0, 0.0]])
        edges = edges_from([(0, 5, 1.0)])
        cache = WindowFeatureCache(edges)
        with pytest.raises(ConsistencyError):
            window_forward(emb, {0: np.array([0])}, params.layers[0], params, cache)


class TestEncode:
    def test_empty_input_graph_is_w1_chain_on_features(self):
        node_features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        params = init_encoder(num_layers=2, node_dim=3, time_dim=2, edge_dim=0,
                              node_feature_dim=2, heads=1, dropout=0.0,
                              seed=0, dtype=np.float64)
        ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)],
                         num_nodes=3)
        out = encode(WindowFeatureCache(ctdg.window(0, 0)), params, max_neighbors=5,
                     rng_key=(0,), nodes=ctdg.window(0, 3).endpoints(),
                     node_features=node_features)
        chain = node_features[out.ids].astype(np.float64) @ params.input_proj.values
        for layer in params.layers:
            chain = chain @ layer.w1.values
        assert np.allclose(out.matrix.values, chain, atol=1e-12)

    def test_fixed_seed_bitwise_identical(self):
        ctdg = ctdg_from([(i % 5, (i + 2) % 5, float(i)) for i in range(40)])
        params = init_encoder(num_layers=2, node_dim=8, time_dim=6, heads=2,
                              dropout=0.0, seed=1, dtype=np.float64)
        edges = ctdg.window(0, 30)
        a = encode(WindowFeatureCache(edges), params, 4, (9,), edges.endpoints())
        b = encode(WindowFeatureCache(edges), params, 4, (9,), edges.endpoints())
        assert a.matrix.values.tobytes() == b.matrix.values.tobytes()
        assert np.array_equal(a.ids, b.ids)

    def test_three_node_toy_matches_hand_matrices(self):
        params = tiny_params(node_dim=2, time_dim=2, heads=1, seed=5, node_feature_dim=0)
        ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0)], num_nodes=3)
        edges = ctdg.window(0, 2)
        cache = WindowFeatureCache(edges)
        out = encode(cache, params, max_neighbors=5, rng_key=(3,), nodes=edges.endpoints())
        # zero initial embeddings: messages carry only time and count terms, and
        # every attention score is 0, so a row is the mean message times Wv Wo
        layer = params.layers[0]
        expected = np.zeros((3, 2))
        omega, phase = params.t2v.omega.values, params.t2v.phase.values
        for anchor in range(3):
            positions = [p for p in range(2)
                         if anchor in (int(edges.u[p]), int(edges.v[p]))]
            if not positions:
                continue
            recency = oracles.last_time(edges, anchor, 2.0)
            keys = []
            for p in positions:
                angles = (recency - edges.t[p]) * omega + phase
                f_time = np.concatenate([angles[:, :1], np.sin(angles[:, 1:])], axis=1)
                f = f_time + np.log1p(cache.counts_matrix([p])) @ params.edge_enc.values
                keys.append(np.concatenate([np.zeros((1, 2)), f], axis=1))
            keys = np.vstack(keys)
            weights = np.full(len(keys), 1.0 / len(keys))
            expected[anchor] = (weights @ (keys @ layer.wv.values)) @ layer.wo.values
        assert np.allclose(out.matrix.values, expected, atol=1e-6)

    def test_causality_target_content_never_read(self):
        rng = np.random.default_rng(2)
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, 12, size=(80, 2))) if a != b]
        cut = 60
        # the log's edges from the cut on get shuffled endpoints and times
        # shifted by 1e6, which keeps the log's timestamps non-decreasing
        post = [triples[cut + i][:2] for i in
                np.random.default_rng(0).permutation(len(triples) - cut).tolist()]
        corrupted_triples = triples[:cut] + [(u, v, t + 1e6) for (u, v), (_, _, t)
                                             in zip(post, triples[cut:])]
        params = init_encoder(num_layers=3, node_dim=8, time_dim=4, heads=2,
                              dropout=0.0, seed=0, dtype=np.float64)
        ctdg = ctdg_from(triples, num_nodes=12)
        corrupted = ctdg_from(corrupted_triples, num_nodes=12)
        end = min(cut + 15, len(ctdg))
        assert corrupted.window(cut, end).t.tolist() != ctdg.window(cut, end).t.tolist()
        nodes = np.concatenate([ctdg.window(10, cut).endpoints(),
                                ctdg.window(cut, end).endpoints()])
        baseline = encode(WindowFeatureCache(ctdg.window(10, cut)), params, 5, (1,), nodes)
        after = encode(WindowFeatureCache(corrupted.window(10, cut)), params, 5, (1,), nodes)
        assert baseline.matrix.values.tobytes() == after.matrix.values.tobytes()
        assert np.array_equal(baseline.ids, after.ids)

    def test_gradients_flow_through_one_layer(self):
        params = init_encoder(num_layers=1, node_dim=8, time_dim=4, heads=2,
                              dropout=0.0, seed=4, dtype=np.float64)
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(12)],
                         num_nodes=5)
        edges = ctdg.window(0, 12)

        def forward():
            out = encode(WindowFeatureCache(edges), params, max_neighbors=4,
                         rng_key=(8,), nodes=edges.endpoints())
            return T.mean(T.mul(out.matrix, out.matrix))

        report = finite_difference_check(forward, params.named(), h=1e-6,
                                         max_coords_per_param=10)
        assert report.max_rel_error < 1e-4, report

    def test_gradients_flow_through_a_pruned_request(self):
        params = init_encoder(num_layers=2, node_dim=6, time_dim=4, node_feature_dim=3,
                              heads=2, dropout=0.0, seed=6, dtype=np.float64)
        node_features = np.random.default_rng(1).normal(size=(7, 3))
        # a path 0-1-2-...-6 plus a parallel edge: two layers over node 1
        # reach nodes 0 to 3 only
        ctdg = ctdg_from([(i, i + 1, float(i)) for i in range(6)] + [(0, 1, 6.0)],
                         num_nodes=7)
        cache = WindowFeatureCache(ctdg.window(0, 7))
        hood = build_layered_neighborhood(cache.index, [1], 2, 4, (8, NEIGHBOR_STREAM))
        assert hood.active_nodes.tolist() == [0, 1, 2, 3]
        assert [layer.anchors.tolist() for layer in hood.layers] == [[0, 1, 2], [1]]

        def forward():
            out = encode(cache, params, max_neighbors=4, rng_key=(8,), nodes=[1],
                         node_features=node_features)
            return T.mean(T.mul(out.matrix, out.matrix))

        report = finite_difference_check(forward, params.named(), h=1e-6,
                                         max_coords_per_param=10)
        assert report.max_rel_error < 1e-4, report

    def test_message_width_at_reference_dimensions(self):
        params = init_encoder(num_layers=1, node_dim=100, time_dim=100, edge_dim=172,
                              heads=2, seed=0)
        assert params.layers[0].wv.shape[0] == 372
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
        edges = ctdg.window(0, 10)

        def forward():
            out = encode(WindowFeatureCache(edges), params, max_neighbors=3,
                         rng_key=(4,), nodes=edges.endpoints(),
                         node_features=node_features)
            return T.mean(T.mul(out.matrix, out.matrix))

        report = finite_difference_check(forward, {"proj": params.input_proj}, h=1e-6)
        assert report.max_rel_error < 1e-4
        assert np.any(params.input_proj.grad != 0)


class TestArrayPaths:
    """The array lookups and flattening against one-item-at-a-time oracles."""

    def test_unsorted_ids_rejected(self):
        with pytest.raises(ContractError):
            NodeEmbeddings(np.array([0, 2, 1]), T.constant(np.zeros((3, 2))))
        with pytest.raises(ContractError):
            NodeEmbeddings(np.array([0, 1, 1]), T.constant(np.zeros((3, 2))))

    def test_missing_node_is_consistency_error(self):
        emb = NodeEmbeddings(np.array([2, 4, 7]), T.constant(np.zeros((3, 2))))
        assert emb.rows([7, 2, 4, 2]).tolist() == oracles.dict_rows(emb.ids, [7, 2, 4, 2])
        for node in (0, 3, 8):  # below, between and above the tracked ids
            with pytest.raises(ConsistencyError):
                emb.rows([2, node])
            with pytest.raises(ConsistencyError):
                oracles.dict_rows(emb.ids, [2, node])
        with pytest.raises(ConsistencyError):
            NodeEmbeddings(np.empty(0), T.constant(np.zeros((0, 2)))).rows([0])


def random_window(data) -> tuple[int, EdgeArray]:
    num_nodes = data.draw(st.integers(1, 6))
    # node ids stay below num_nodes, so u == v draws self-loops and repeated
    # pairs draw parallel edges; timestamps are sorted and may tie
    pairs = data.draw(st.lists(st.tuples(st.integers(0, num_nodes - 1),
                                         st.integers(0, num_nodes - 1)), max_size=25))
    times = sorted(data.draw(st.lists(st.integers(0, 6), min_size=len(pairs),
                                      max_size=len(pairs))))
    return num_nodes, edges_from([(u, v, float(t)) for (u, v), t in zip(pairs, times)])


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_array_paths_match_item_oracles(data):
    num_nodes, edges = random_window(data)
    # seeds range past num_nodes: isolated seeds have no edge in the window
    seeds = data.draw(st.lists(st.integers(0, num_nodes + 2), max_size=6))
    num_layers = data.draw(st.integers(1, 3))
    max_neighbors = data.draw(st.integers(1, 4))

    cache = WindowFeatureCache(edges)
    hood = build_layered_neighborhood(cache.index, seeds, num_layers, max_neighbors, (5,))
    needed = oracles.active_nodes(seeds, [oracles.sample_dict(s) for s in hood.layers], edges)
    assert [samples.anchors.tolist() for samples in hood.layers] == needed[1:]
    assert hood.active_nodes.tolist() == needed[0]

    emb = NodeEmbeddings(hood.active_nodes, T.constant(np.zeros((len(hood.active_nodes), 2))))
    params = tiny_params()
    table, rows = edge_table(cache, params, hood)
    for samples, encoding_rows in zip(hood.layers, rows):
        assert np.all(np.diff(samples.anchors) > 0)
        assert list(zip(samples.anchors[samples.segments].tolist(), samples.segments.tolist(),
                        samples.positions.tolist())) \
            == oracles.flatten_layer(oracles.sample_dict(samples))
        looked_up, lookup = [], NodeEmbeddings.rows  # the anchors', then the neighbours'

        def recording(embeddings, nodes):
            looked_up.append(np.asarray(nodes).tolist())
            return lookup(embeddings, nodes)

        with mock.patch.object(NodeEmbeddings, "rows", recording):
            layer_forward(emb, samples, params.layers[0], params, cache.index, table,
                          encoding_rows)
        assert looked_up[1:] == ([oracles.neighbors(oracles.sample_dict(samples), edges)]
                                 if samples.positions.size else [])

    nodes = np.arange(num_nodes + 3)
    assert IncidenceIndex(edges).last_time(nodes, -1.5).tolist() == \
        [oracles.last_time(edges, int(n), -1.5) for n in nodes]

    queries = data.draw(st.lists(st.integers(0, num_nodes + 2), max_size=8))
    if set(queries) <= set(hood.active_nodes.tolist()):
        assert emb.rows(queries).tolist() == oracles.dict_rows(emb.ids, queries)
    else:
        with pytest.raises(ConsistencyError):
            emb.rows(queries)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_requested_rows_match_all_rows_encode(data):
    num_nodes, edges = random_window(data)
    cache = WindowFeatureCache(edges)
    # requests range past num_nodes (nodes absent from the window) and are
    # mostly a strict subset of the window's nodes
    request = np.asarray(data.draw(st.lists(st.integers(0, num_nodes + 2), max_size=5)),
                         dtype=np.int64)
    every_row = np.concatenate([edges.endpoints(), request])
    num_layers = data.draw(st.integers(1, 3))
    max_neighbors = data.draw(st.integers(1, 4))

    pruned = build_layered_neighborhood(cache.index, request, num_layers, max_neighbors, (5,))
    full = build_layered_neighborhood(cache.index, every_row, num_layers, max_neighbors, (5,))
    for pruned_layer, full_layer in zip(pruned.layers, full.layers):
        full_samples = oracles.sample_dict(full_layer)
        for anchor, sample in oracles.sample_dict(pruned_layer).items():
            assert sample.tolist() == full_samples[anchor].tolist()

    params = init_encoder(num_layers=num_layers, node_dim=4, time_dim=3, node_feature_dim=2,
                          heads=2, dropout=0.0, seed=data.draw(st.integers(0, 3)),
                          dtype=np.float64)
    node_features = np.random.default_rng(0).normal(size=(num_nodes + 3, 2))
    out = encode(cache, params, max_neighbors, (8,), request, node_features=node_features)
    reference = encode(cache, params, max_neighbors, (8,), every_row,
                       node_features=node_features)
    assert out.ids.tolist() == sorted(set(request.tolist()))
    expected = reference.matrix.values[reference.rows(out.ids)]
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert np.abs(out.matrix.values - expected).max(initial=0.0) <= 1e-12 * scale


def hub_window(data) -> tuple[int, int, EdgeArray]:
    """(max_neighbors, num_nodes, window): node 0 has from max_neighbors - 1 to
    2 * max_neighbors + 1 incident edges, so hubs fall on both sides of N; a
    partner 0 is a self-loop and a repeated pair a parallel edge, and the
    sorted timestamps tie."""
    max_neighbors = data.draw(st.integers(1, 4))
    num_nodes = data.draw(st.integers(2, 7))
    hub = [(0, data.draw(st.integers(0, num_nodes - 1)))
           for _ in range(max_neighbors + data.draw(st.integers(-1, max_neighbors + 1)))]
    others = data.draw(st.lists(st.tuples(st.integers(0, num_nodes - 1),
                                          st.integers(1, num_nodes - 1)), max_size=25))
    pairs = data.draw(st.permutations(hub + others))
    times = sorted(data.draw(st.lists(st.integers(0, 6), min_size=len(pairs),
                                      max_size=len(pairs))))
    return max_neighbors, num_nodes, edges_from([(u, v, float(t))
                                                 for (u, v), t in zip(pairs, times)])


def training_params(data, num_nodes: int):
    """A float64 encoder with dropout of 1 to 3 layers, and node features."""
    params = init_encoder(num_layers=data.draw(st.integers(1, 3)), node_dim=4, time_dim=3,
                          node_feature_dim=2, heads=data.draw(st.sampled_from([1, 2, 4])),
                          dropout=data.draw(st.sampled_from([0.1, 0.5])),
                          seed=data.draw(st.integers(0, 3)), dtype=np.float64)
    return params, np.random.default_rng(0).normal(size=(num_nodes + 3, 2))


def pruned_and_every_row(data, edges: EdgeArray, num_nodes: int):
    """A request drawn from the window's nodes and beyond, and that request plus
    every window node."""
    request = np.asarray(data.draw(st.lists(st.integers(0, num_nodes + 2), min_size=1,
                                            max_size=4)), dtype=np.int64)
    return request, np.concatenate([edges.endpoints(), request])


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_training_rows_of_a_pruned_request_match_all_rows(data):
    max_neighbors, num_nodes, edges = hub_window(data)
    cache = WindowFeatureCache(edges)
    params, node_features = training_params(data, num_nodes)
    request, every_row = pruned_and_every_row(data, edges, num_nodes)
    out = encode(cache, params, max_neighbors, (8, 1), request, node_features, training=True)
    reference = encode(cache, params, max_neighbors, (8, 1), every_row, node_features,
                       training=True)
    expected = reference.matrix.values[reference.rows(out.ids)]
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert np.abs(out.matrix.values - expected).max(initial=0.0) <= 1e-12 * scale


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_each_message_keeps_its_dropout_mask_in_any_request(data):
    max_neighbors, num_nodes, edges = hub_window(data)
    cache = WindowFeatureCache(edges)
    params, node_features = training_params(data, num_nodes)
    request, every_row = pruned_and_every_row(data, edges, num_nodes)

    def masks(nodes) -> dict[tuple[int, int, int], list[bool]]:
        """Each message's keep mask per head, by (layer, anchor, position)."""
        layers, kept, segment_attention = [], {}, T.segment_attention

        def forward(embeddings, samples, *args):
            layers.append(samples)
            return layer_forward(embeddings, samples, *args)

        def attention(*args):  # a layer without messages skips attention
            p, u = args[-1]
            kept[len(layers) - 1] = u >= p
            return segment_attention(*args)

        with mock.patch.object(encoder_module, "layer_forward", forward), \
                mock.patch.object(T, "segment_attention", attention):
            encode(cache, params, max_neighbors, (8, 1), nodes, node_features, training=True)
        return {(layer, anchor, position): mask.tolist()
                for layer, keep in kept.items()
                for anchor, position, mask in zip(
                    layers[layer].anchors[layers[layer].segments].tolist(),
                    layers[layer].positions.tolist(), keep)}

    pruned, full = masks(request), masks(every_row)
    assert pruned.keys() <= full.keys()
    assert all(full[message] == mask for message, mask in pruned.items())


def explicit_zero_input(node_dim: int, dtype):
    """Patch ``encode``'s featureless start (a ``None`` matrix) into an explicit
    zero constant, so that every layer takes the general path."""
    build = NodeEmbeddings

    def zero_rows(ids, matrix):
        return build(ids, T.constant(np.zeros((len(ids), node_dim), dtype))
                     if matrix is None else matrix)

    return mock.patch.object(encoder_module, "NodeEmbeddings", zero_rows)


@pytest.mark.parametrize("edge_dim", [0, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_featureless_encode_matches_explicit_zero_rows(dtype, edge_dim):
    """Three windows of one log, a pruned request, neighbour sampling and
    dropout 0.3 while training: rows and every parameter gradient have the bits
    of the general path on zero input rows. That path reads layer 0's w1, wq and
    wk, which zero rows make irrelevant, so it takes placeholders, and their
    gradients are exactly 0."""
    rng = np.random.default_rng(11)
    triples = []
    for i in range(60):  # node 0 touches every third edge; times tie in pairs
        u = 0 if i % 3 == 0 else int(rng.integers(1, 9))
        v = int(rng.integers(1, 9))
        triples.append((u, 9 if v == u else v, float(i // 2)))
    ctdg = ctdg_from(triples, num_nodes=11,
                     feats=rng.normal(size=(60, edge_dim)).astype(np.float32))
    stride = ctdg.num_nodes
    cache = WindowFeatureCache(ctdg).windows([0, 12, 30], [30, 45, 60], stride)
    # Node 10 has no edge anywhere, and node 0 is over the sample size.
    nodes = np.array([0, 3, 10, stride + 5, stride + 10, 2 * stride, 2 * stride + 7])
    keys = [(4, slot) for slot in range(3)]

    def step(explicit: bool):
        build = with_first_layer_placeholders if explicit else init_encoder
        encoder = build(num_layers=3, node_dim=8, time_dim=4, edge_dim=edge_dim, heads=2,
                        dropout=0.3, seed=3, dtype=dtype)
        with explicit_zero_input(8, dtype) if explicit else contextlib.nullcontext():
            with T.Tape() as tape:
                rows = encode(cache, encoder, 4, keys, nodes, training=True)
                loss = T.mean(T.mul(rows.matrix, rows.matrix))
        T.backward(tape, loss)
        return rows, encoder.named()

    rows, named = step(explicit=False)
    zero_rows, zero_named = step(explicit=True)
    assert rows.ids.tolist() == zero_rows.ids.tolist() == sorted(nodes.tolist())
    assert rows.matrix.values.tobytes() == zero_rows.matrix.values.tobytes()
    assert zero_named.keys() - named.keys() == FIRST_LAYER_PLACEHOLDERS
    for name, p in named.items():
        assert p.grad.tobytes() == zero_named[name].grad.tobytes(), name
    for name in FIRST_LAYER_PLACEHOLDERS:
        assert not np.any(zero_named[name].grad), name
    assert np.any(named["encoder/layer0/wv"].grad[8:])
    assert not np.any(named["encoder/layer0/wv"].grad[:8])


def test_featureless_checkpoint_with_first_layer_placeholders_loads(tmp_path):
    """A featureless model file that still holds layer 0's w1, wq and wk (the
    ``DYGW`` v2 layout such files had) loads into a featureless encoder, which
    then holds every other weight's bits and encodes the same rows; the file
    such an encoder writes lacks those three names."""
    kwargs = dict(num_layers=2, node_dim=4, time_dim=3, heads=2, seed=1)
    old, new = with_first_layer_placeholders(**kwargs), init_encoder(**{**kwargs, "seed": 2})
    path = tmp_path / "model.dygw"
    save_model(path, encoder=old)
    assert FIRST_LAYER_PLACEHOLDERS <= load_checkpoint(path).keys()
    load_model(path, encoder=new)
    assert new.named().keys() == old.named().keys() - FIRST_LAYER_PLACEHOLDERS
    assert all(p.values.tobytes() == old.named()[name].values.tobytes()
               for name, p in new.named().items())
    ctdg = ctdg_from([(i % 5, (i + 2) % 5, float(i)) for i in range(20)], num_nodes=5)
    cache = WindowFeatureCache(ctdg.window(0, 20))
    rows = [encode(cache, encoder, 3, (5,), np.arange(5)).matrix.values.tobytes()
            for encoder in (old, new)]
    assert rows[0] == rows[1]
    save_model(path, encoder=new)
    with pytest.raises(DataError, match="checkpoint missing parameter"):
        load_model(path, encoder=old)


@pytest.mark.parametrize("kwargs", [{"num_layers": 0}, {"node_dim": 5, "heads": 2}])
def test_encoder_shape_out_of_contract_rejected(kwargs):
    with pytest.raises(ContractError):
        init_encoder(**kwargs)


def test_featureless_window_without_messages_gives_zero_rows():
    encoder = init_encoder(num_layers=2, node_dim=4, time_dim=3, heads=2, seed=1,
                           dtype=np.float64)
    ctdg = ctdg_from([(0, 1, 1.0)], num_nodes=3)
    out = encode(WindowFeatureCache(ctdg.window(0, 0)), encoder, 5, (0,), [0, 2])
    assert out.ids.tolist() == [0, 2]
    assert out.matrix.values.tobytes() == np.zeros((2, 4)).tobytes()


def test_adam_moves_every_encoder_weight_under_weight_decay():
    """One training step moves every weight an encoder holds, with node features
    or without; Adam neither moves nor decays a weight without a gradient."""
    ctdg = ctdg_from([(i % 5, (i + 2) % 5, float(i)) for i in range(20)], num_nodes=5)
    cache = WindowFeatureCache(ctdg.window(0, 20))
    features = np.random.default_rng(0).normal(size=(5, 3))
    for feature_dim in (0, 3):
        encoder = init_encoder(num_layers=2, node_dim=4, time_dim=3, heads=2,
                               node_feature_dim=feature_dim, dropout=0.1, seed=2,
                               dtype=np.float64)
        before = {name: p.values.copy() for name, p in encoder.named().items()}
        unread = T.parameter(np.ones((2, 2)))
        optimizer = Adam({**encoder.named(), "unread": unread}, lr=1e-2, weight_decay=1e-2)
        with T.Tape() as tape:
            rows = encode(cache, encoder, 3, (5,), np.arange(5), training=True,
                          node_features=features if feature_dim else None)
            loss = T.mean(T.mul(rows.matrix, rows.matrix))
        T.backward(tape, loss)
        optimizer.step()
        moved = {name for name, p in encoder.named().items()
                 if p.values.tobytes() != before[name].tobytes()}
        assert moved == set(before)
        assert np.array_equal(unread.values, np.ones((2, 2)))


def test_float32_parameters_stay_float32():
    """Encoder rows, both decoders' logits and the SSL loss stay float32, and
    so does every parameter's gradient; the conftest guard checks each op."""
    rng = np.random.default_rng(3)
    triples, t = [], 0.0
    for _ in range(40):
        u, v = rng.choice(12, size=2, replace=False)
        t += float(rng.exponential(1e5))  # gaps of 1e5 to 1e6 reach the decoders
        triples.append((int(u), int(v), t))
    ctdg = ctdg_from(triples, num_nodes=12, feats=rng.normal(size=(40, 3)).astype(np.float32))
    cache, targets = WindowFeatureCache(ctdg.window(0, 30)), ctdg.window(30, 40)
    nodes = np.unique(np.concatenate([ctdg.window(0, 30).endpoints(), targets.endpoints()]))
    encoder = init_encoder(num_layers=2, node_dim=8, time_dim=6, edge_dim=3, heads=2,
                           dropout=0.1, seed=1)
    flp, dnc = init_decoder("flp", 8, 6, seed=1), init_decoder("dnc", 8, 6, seed=1)
    predictor = init_predictor(8, seed=1)
    with T.Tape() as tape:
        h_a = encode(cache, encoder, 5, (9,), nodes, training=True)
        h_b = encode(cache, encoder, 5, (10,), nodes, training=True)
        pos = flp_score(flp, h_a, targets.u, targets.v, targets.t, cache)
        labels = score("dnc", dnc, h_a, targets.u, targets.u, targets.t, cache, training=True,
                       rng=np.random.default_rng(4))
        ssl, _ = ssl_loss_terms(predictor.forward(h_a.gather(nodes)),
                                predictor.forward(h_b.gather(nodes)))
        loss = T.add(T.add(bce_loss(pos, np.ones(pos.shape)),
                           bce_loss(labels, rng.random(labels.shape) < 0.5)),
                     T.scale(ssl, 0.01))
    assert [x.dtype for x in (h_a.matrix, pos, labels, ssl, loss)] == [np.float32] * 5
    grads = T.backward(tape, loss)
    named = {**encoder.named(), **flp.named("flp"), **dnc.named("dnc"),
             **predictor.named("predictor")}
    # Every parameter a model part holds is read, so each gets a gradient.
    assert {name: grads[p].dtype for name, p in named.items() if p in grads} \
        == dict.fromkeys(named, np.float32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_step_through_a_log_view_matches_a_window_cache(dtype):
    """One FLP training step, with neighbour sampling and dropout, gives the
    same bits through a one-window view of the whole log's cache as through a
    cache over the window's own slice: rows, loss and every gradient."""
    rng = np.random.default_rng(5)
    triples = []
    for i in range(60):  # node 0 touches every other edge; times tie in pairs
        u = 0 if i % 2 == 0 else int(rng.integers(1, 8))
        v = int(rng.integers(1, 8))
        triples.append((u, 8 if v == u else v, float(i // 2)))
    triples[45] = (0, triples[44][1], 22.0)  # edge 44 again, at its time, past the window
    triples[50] = (9, 3, 25.0)  # a target source with no edge in the window
    ctdg = ctdg_from(triples, num_nodes=10, feats=rng.normal(size=(60, 2)).astype(np.float32))
    lo, hi, max_neighbors = 15, 45, 6  # ties straddle both window bounds
    window, targets = ctdg.window(lo, hi), ctdg.window(hi, 55)
    assert IncidenceIndex(window).incident(0).size > max_neighbors
    src, dst, t, kind = candidates("flp", targets, ctdg.num_nodes, np.random.default_rng(3))
    nodes = np.concatenate([window.endpoints(), targets.endpoints(), dst])

    def step(cache):
        encoder = init_encoder(num_layers=2, node_dim=8, time_dim=4, edge_dim=2, heads=2,
                               dropout=0.3, seed=2, dtype=dtype)
        decoder = init_decoder("flp", 8, 4, seed=2, dtype=dtype)
        with T.Tape() as tape:
            rows = encode(cache, encoder, max_neighbors, (7, 1), nodes, training=True)
            loss = bce_loss(flp_score(decoder, rows, src, dst, t, cache), kind == POSITIVE)
        grads = T.backward(tape, loss)
        named = {**encoder.named(), **decoder.named()}
        return rows, loss, {name: grads[p].tobytes() for name, p in named.items() if p in grads}

    view = step(WindowFeatureCache(ctdg).windows([lo], [hi], ONE_WINDOW))
    fresh = step(WindowFeatureCache(window))
    assert np.array_equal(view[0].ids, fresh[0].ids)
    assert view[0].matrix.values.tobytes() == fresh[0].matrix.values.tobytes()
    assert view[1].values.tobytes() == fresh[1].values.tobytes()
    assert view[2] == fresh[2]


@pytest.mark.parametrize("node_feature_dim", [0, 3])
@pytest.mark.parametrize("edge_dim", [0, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_table_matches_per_layer_encodings(dtype, edge_dim, node_feature_dim):
    """One table per encode, gathered by every layer, against each layer encoding
    its own messages: an evaluation encode of three windows, with masked edges,
    and a training encode with dropout 0.3 give rows and every parameter gradient
    with the same bits."""
    rng = np.random.default_rng(5)
    triples = []
    for i in range(60):  # node 0 touches every third edge; times tie in pairs
        u = 0 if i % 3 == 0 else int(rng.integers(1, 9))
        v = int(rng.integers(1, 9))
        triples.append((u, 9 if v == u else v, float(i // 2)))
    edges = edges_from(triples, feats=rng.normal(size=(60, edge_dim)).astype(np.float32))
    edges.enc_masked = rng.random(60) < 0.2
    stride, features = 11, rng.normal(size=(11, node_feature_dim))
    windows = WindowFeatureCache(edges).windows([0, 12, 30], [30, 45, 60], stride)
    nodes = np.array([0, 3, 10, stride + 5, stride + 10, 2 * stride, 2 * stride + 7])

    def run(per_layer: bool, training: bool):
        encoder = init_encoder(num_layers=3, node_dim=8, time_dim=4, edge_dim=edge_dim,
                               node_feature_dim=node_feature_dim, heads=2, dropout=0.3,
                               seed=3, dtype=dtype)
        cache, keys = ((WindowFeatureCache(edges), (4,)) if training
                       else (windows, [(4, slot) for slot in range(3)]))
        with contextlib.ExitStack() as stack:
            if per_layer:
                stack.enter_context(mock.patch.object(encoder_module, "edge_table",
                                                      oracles.per_layer_edge_table))
            tape = stack.enter_context(T.Tape()) if training else None
            rows = encode(cache, encoder, 4, keys, nodes % stride if training else nodes,
                          features if node_feature_dim else None, training=training)
            loss = T.mean(T.mul(rows.matrix, rows.matrix))
        if training:
            T.backward(tape, loss)
        return rows, encoder.named()

    for training in (False, True):
        (rows, named), (expected, expected_named) = run(False, training), run(True, training)
        assert rows.ids.tolist() == expected.ids.tolist()
        assert rows.matrix.values.tobytes() == expected.matrix.values.tobytes()
        for name, p in named.items():
            assert (p.grad is None) == (expected_named[name].grad is None), name
            if p.grad is not None:
                assert p.grad.tobytes() == expected_named[name].grad.tobytes(), name
        assert training or all(p.grad is None for p in named.values())
    assert np.any(named["encoder/time2vec/omega"].grad)
    assert np.any(named["encoder/edge_enc/w2"].grad)


def test_training_encode_records_one_edge_encoding_entry_per_layer():
    ctdg = ctdg_from([(i % 5, (i + 2) % 5, float(i)) for i in range(12)], num_nodes=5)
    encoder = init_encoder(num_layers=3, node_dim=8, time_dim=4, heads=2, dropout=0.1, seed=0)
    with T.Tape() as tape:
        encode(WindowFeatureCache(ctdg.window(0, 12)), encoder, 4, (3,), np.arange(5),
               training=True)
    ops = [entry.op for entry in tape.entries]
    assert ops.count("edge_encoding") == encoder.num_layers
    # The only adds are the residual h @ W1 + context of the layers above the
    # featureless first.
    assert "time_encoding" not in ops and ops.count("add") == encoder.num_layers - 1
    assert not any(entry.op == "matmul" and entry.inputs[1] is encoder.edge_enc
                   for entry in tape.entries)
