"""Encoder layers against hand arithmetic and the reference attention path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.data import EdgeArray
from dygwin.downstream import bce_loss, dnc_score, flp_score, init_decoder
from dygwin.encoder import (NEIGHBOR_STREAM, EncoderParams, NodeEmbeddings, _flatten_layer,
                            encode, init_encoder, layer_forward)
from dygwin.errors import ConsistencyError, ContractError
from dygwin.features import WindowFeatureCache
from dygwin.pretrain import init_predictor, ssl_loss_terms
from dygwin.windows import IncidenceIndex, Interval, build_layered_neighborhood, make_window_batch

import oracles
from gradcheck import finite_difference_check
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
    """``layer_forward`` of one window, with each message's counts in sample order."""
    positions = np.concatenate([np.empty(0, dtype=np.int64),
                                *(samples[anchor] for anchor in sorted(samples))])
    return layer_forward(emb, samples, layer, params, cache.index,
                         cache.counts_matrix(positions))


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
        cache = WindowFeatureCache(make_window_batch(ctdg, Interval(0, 12), 0).input_edges)
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
        batch = make_window_batch(ctdg, Interval(0, 0), target_size=3)
        out = encode(WindowFeatureCache(batch.input_edges), params, max_neighbors=5,
                     rng_key=(0,), nodes=batch.target_edges.endpoints(),
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
        a = encode(WindowFeatureCache(batch.input_edges), params, 4, (9,),
                   batch.input_edges.endpoints())
        b = encode(WindowFeatureCache(batch.input_edges), params, 4, (9,),
                   batch.input_edges.endpoints())
        assert a.matrix.values.tobytes() == b.matrix.values.tobytes()
        assert np.array_equal(a.ids, b.ids)

    def test_three_node_toy_matches_hand_matrices(self):
        params = tiny_params(node_dim=2, time_dim=2, heads=1, seed=5)
        ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0)], num_nodes=3)
        batch = make_window_batch(ctdg, Interval(0, 2), target_size=0)
        cache = WindowFeatureCache(batch.input_edges)
        out = encode(cache, params, max_neighbors=5, rng_key=(3,),
                     nodes=batch.input_edges.endpoints())
        # zero initial embeddings: messages carry only time and count terms
        layer = params.layers[0]
        expected = np.zeros((3, 2))
        omega, phase = params.t2v.omega.values, params.t2v.phase.values
        for anchor in range(3):
            positions = [p for p in range(2)
                         if anchor in (int(batch.input_edges.u[p]),
                                       int(batch.input_edges.v[p]))]
            if not positions:
                continue
            recency = oracles.last_time(batch.input_edges, anchor, 2.0)
            keys = []
            for p in positions:
                angles = (recency - batch.input_edges.t[p]) * omega + phase
                f_time = np.concatenate([angles[:, :1], np.sin(angles[:, 1:])], axis=1)
                f = f_time + np.log1p(cache.counts_matrix([p])) @ params.edge_enc.values
                keys.append(np.concatenate([np.zeros((1, 2)), f], axis=1))
            keys = np.vstack(keys)
            q = np.zeros((1, 2)) @ layer.wq.values
            scores = (q @ (keys @ layer.wk.values).T) / np.sqrt(layer.wq.shape[1])
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
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
        batch = make_window_batch(ctdg_from(triples, num_nodes=12), Interval(10, cut), 15)
        corrupted = make_window_batch(ctdg_from(corrupted_triples, num_nodes=12),
                                      Interval(10, cut), 15)
        assert corrupted.target_edges.t.tolist() != batch.target_edges.t.tolist()
        nodes = np.concatenate([batch.input_edges.endpoints(),
                                batch.target_edges.endpoints()])
        baseline = encode(WindowFeatureCache(batch.input_edges), params, 5, (1,), nodes)
        after = encode(WindowFeatureCache(corrupted.input_edges), params, 5, (1,), nodes)
        assert baseline.matrix.values.tobytes() == after.matrix.values.tobytes()
        assert np.array_equal(baseline.ids, after.ids)

    def test_gradients_flow_through_one_layer(self):
        params = init_encoder(num_layers=1, node_dim=8, time_dim=4, heads=2,
                              dropout=0.0, seed=4, dtype=np.float64)
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(12)],
                         num_nodes=5)
        batch = make_window_batch(ctdg, Interval(0, 12), target_size=0)

        def forward():
            out = encode(WindowFeatureCache(batch.input_edges), params, max_neighbors=4,
                         rng_key=(8,), nodes=batch.input_edges.endpoints())
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
        batch = make_window_batch(ctdg, Interval(0, 7), target_size=0)
        cache = WindowFeatureCache(batch.input_edges)
        hood = build_layered_neighborhood(cache.index, [1], 2, 4, (8, NEIGHBOR_STREAM))
        assert hood.active_nodes.tolist() == [0, 1, 2, 3]
        assert [sorted(layer) for layer in hood.layers] == [[0, 1, 2], [1]]

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
            out = encode(WindowFeatureCache(batch.input_edges), params, max_neighbors=3,
                         rng_key=(4,), nodes=batch.input_edges.endpoints(),
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

    index = IncidenceIndex(edges)
    hood = build_layered_neighborhood(index, seeds, num_layers, max_neighbors, (5,))
    needed = oracles.active_nodes(seeds, hood.layers, edges)
    assert [sorted(samples) for samples in hood.layers] == needed[1:]
    assert hood.active_nodes.tolist() == needed[0]

    emb = NodeEmbeddings(hood.active_nodes, T.constant(np.zeros((len(hood.active_nodes), 2))))
    for samples in hood.layers:
        anchors, segments, positions, neighbors = _flatten_layer(samples, index)
        assert anchors.tolist() == sorted(samples)
        neighbor_rows = emb.rows(neighbors)
        assert list(zip(segments.tolist(), positions.tolist(), neighbor_rows.tolist())) \
            == oracles.flatten_layer(samples, emb.ids, edges)

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
        for anchor, sample in pruned_layer.items():
            assert sample.tolist() == full_layer[anchor].tolist()

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
    batch = make_window_batch(ctdg, Interval(0, 30), target_size=10)
    cache, targets = WindowFeatureCache(batch.input_edges), batch.target_edges
    nodes = np.unique(np.concatenate([batch.input_edges.endpoints(), targets.endpoints()]))
    encoder = init_encoder(num_layers=2, node_dim=8, time_dim=6, edge_dim=3, heads=2,
                           dropout=0.1, seed=1)
    flp, dnc = init_decoder("flp", 8, 6, seed=1), init_decoder("dnc", 8, 6, seed=1)
    predictor = init_predictor(8, seed=1)
    with T.Tape() as tape:
        h_a = encode(cache, encoder, 5, (9,), nodes, training=True)
        h_b = encode(cache, encoder, 5, (10,), nodes, training=True)
        pos = flp_score(flp, h_a, targets.u, targets.v, targets.t, cache)
        labels = dnc_score(dnc, h_a, targets.u, targets.t, cache, training=True,
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
    assert {name: grads[p].dtype for name, p in named.items()} \
        == {name: np.float32 for name in named}
