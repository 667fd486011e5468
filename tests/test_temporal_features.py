"""Time encodings and structural counts against brute-force oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.features import (Time2VecParams, WindowFeatureCache, common_neighbors_at,
                             init_time2vec, time2vec)

from graphs import edges_from
from oracles import brute_common_neighbors, brute_degree, edge_encoding


def degree_at(edges, node, t):
    return int(WindowFeatureCache(edges).counts_at([node], [node], [t])[0, 0])


def t2v_params(omega, phase):
    omega = np.asarray(omega, dtype=np.float64).reshape(1, -1)
    phase = np.asarray(phase, dtype=np.float64).reshape(1, -1)
    return Time2VecParams(omega=T.parameter(omega), phase=T.parameter(phase))


class TestTime2Vec:
    def test_zero_params_zero_output(self):
        params = t2v_params([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert np.array_equal(time2vec(params, 17.5).values, np.zeros((1, 3)))

    def test_linear_component(self):
        params = t2v_params([1.0, 0.0], [0.0, 0.0])
        assert time2vec(params, 2.0).values[0, 0] == 2.0

    def test_sinusoidal_periodicity(self):
        params = t2v_params([0.0, np.pi], [0.0, 0.0])
        assert abs(time2vec(params, 2.0).values[0, 1]) < 1e-12

    def test_sin_components_bounded(self):
        rng = np.random.default_rng(0)
        params = t2v_params(rng.normal(size=8), rng.normal(size=8))
        out = time2vec(params, rng.uniform(0, 1000, size=50)).values
        assert np.all(out[:, 1:] >= -1.0) and np.all(out[:, 1:] <= 1.0)

    def test_float32_gaps_to_1e7_within_float32_rounding_of_float64(self):
        params = init_time2vec(100)
        reference = Time2VecParams(omega=T.parameter(params.omega.values, dtype=np.float64),
                                   phase=T.parameter(params.phase.values, dtype=np.float64))
        gaps = np.concatenate([[0.0], np.random.default_rng(2).uniform(0.0, 1e7, 500),
                               np.geomspace(1e-3, 1e7, 200)])
        out = time2vec(params, gaps).values
        expected = time2vec(reference, gaps).values
        assert out.dtype == np.float32
        # The linear column is rounded once; a sine is off by at most the float32
        # rounding of its wrapped angle (half a unit at pi) and of itself.
        assert np.array_equal(out[:, 0], expected[:, 0].astype(np.float32))
        assert np.abs(out[:, 1:] - expected[:, 1:]).max() <= 2.0 ** -22

    def test_default_init_dimension(self):
        params = init_time2vec(100)
        assert params.omega.shape == params.phase.shape == (1, 100)
        assert np.all(np.isfinite(params.omega.values))


class TestCounts:
    TRIPLES = [(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)]

    def test_degree_examples(self):
        edges = edges_from(self.TRIPLES)
        assert degree_at(edges, 1, 2.0) == 2
        assert degree_at(edges, 1, 0.5) == 0

    def test_parallel_edges_each_count(self):
        edges = edges_from([(1, 2, 1.0), (1, 2, 2.0)])
        assert degree_at(edges, 1, 2.0) == 2

    def test_unseen_node_zero(self):
        edges = edges_from(self.TRIPLES)
        assert degree_at(edges, 42, 5.0) == 0

    def test_common_neighbor_examples(self):
        triples = [(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0), (2, 4, 4.0)]
        edges = edges_from(triples)
        assert common_neighbors_at(edges, 1, 2, 4.0) == 1
        assert common_neighbors_at(edges, 1, 2, 1.5) == 0
        assert common_neighbors_at(edges, 7, 2, 4.0) == 0

    def test_distinct_nodes_not_multiplicity(self):
        triples = [(1, 3, 1.0), (1, 3, 2.0), (2, 3, 3.0)]
        edges = edges_from(triples)
        assert common_neighbors_at(edges, 1, 2, 4.0) == 1

    def test_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(3)
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, 8, size=(40, 2)))]
        edges = edges_from(triples)
        for t in (0.0, 10.0, 25.0, 39.0):
            for u in range(8):
                for v in range(8):
                    assert common_neighbors_at(edges, u, v, t) == \
                        common_neighbors_at(edges, v, u, t)
        times = sorted({tr[2] for tr in triples})
        for u in range(8):
            degrees = [degree_at(edges, u, t) for t in times]
            assert degrees == sorted(degrees)

    def test_oracle_equivalence_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n_nodes = int(rng.integers(3, 10))
            n_edges = int(rng.integers(1, 50))
            triples = [(int(a), int(b), float(i))
                       for i, (a, b) in enumerate(rng.integers(0, n_nodes,
                                                               size=(n_edges, 2)))]
            edges = edges_from(triples)
            probe_times = [tr[2] for tr in triples[:: max(1, n_edges // 5)]]
            for t in probe_times:
                for u in range(n_nodes):
                    assert degree_at(edges, u, t) == brute_degree(triples, u, t)
                    for v in range(u, n_nodes):
                        assert common_neighbors_at(edges, u, v, t) == \
                            brute_common_neighbors(triples, u, v, t)

    def test_counts_matrix_repeated_positions_match_rows(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.integers(0, 10, size=30)).astype(float)
        triples = [(int(a), int(b), float(t))
                   for (a, b), t in zip(rng.integers(0, 6, size=(30, 2)), times)]
        positions = rng.integers(0, 30, size=80)  # unsorted, with repeats
        got = WindowFeatureCache(edges_from(triples)).counts_matrix(positions)
        expected = [[brute_degree(triples, u, t), brute_degree(triples, v, t),
                     brute_common_neighbors(triples, u, v, t)]
                    for u, v, t in (triples[p] for p in positions)]
        assert got.dtype == np.float64
        assert got.tolist() == expected


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_counts_at_matches_brute_force(data):
    num_nodes = data.draw(st.integers(1, 6))
    # node ids stay below num_nodes, so u == v draws self-loops and repeated
    # pairs draw parallel edges; timestamps are sorted and may tie; the
    # window may be empty
    pairs = data.draw(st.lists(st.tuples(st.integers(0, num_nodes - 1),
                                         st.integers(0, num_nodes - 1)), max_size=25))
    times = sorted(data.draw(st.lists(st.integers(0, 6), min_size=len(pairs),
                                      max_size=len(pairs))))
    triples = [(u, v, float(t)) for (u, v), t in zip(pairs, times)]
    # query nodes past num_nodes are absent from the window, u == v is drawn,
    # and half-step times fall between, before and after the window's times
    queries = data.draw(st.lists(st.tuples(st.integers(0, num_nodes + 1),
                                           st.integers(0, num_nodes + 1),
                                           st.integers(-2, 16).map(lambda x: x / 2)),
                                 max_size=20))
    got = WindowFeatureCache(edges_from(triples)).counts_at(
        [q[0] for q in queries], [q[1] for q in queries], [q[2] for q in queries])
    assert got.shape == (len(queries), 3)
    assert got.tolist() == [[brute_degree(triples, u, t), brute_degree(triples, v, t),
                             brute_common_neighbors(triples, u, v, t)]
                            for u, v, t in queries]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_region_windows_match_slice_built_caches(data):
    num_nodes = data.draw(st.integers(1, 6))
    # self-loops, parallel edges and tied timestamps, as above
    pairs = data.draw(st.lists(st.tuples(st.integers(0, num_nodes - 1),
                                         st.integers(0, num_nodes - 1)), max_size=25))
    times = sorted(data.draw(st.lists(st.integers(0, 6), min_size=len(pairs),
                                      max_size=len(pairs))))
    log = edges_from([(u, v, float(t)) for (u, v), t in zip(pairs, times)])
    # up to three windows [lo, hi) of the log at once, lo == hi allowed; a
    # window's nodes are a subset of the log's, and queries reach past both
    ranges = data.draw(st.lists(st.tuples(st.integers(0, len(log)), st.integers(0, len(log)))
                                .map(sorted), min_size=1, max_size=3))
    stride = num_nodes + 2
    region = WindowFeatureCache(log).windows([lo for lo, _ in ranges],
                                             [hi for _, hi in ranges], stride)
    queries = data.draw(st.lists(st.tuples(st.integers(0, num_nodes + 1),
                                           st.integers(0, num_nodes + 1),
                                           st.integers(-2, 16).map(lambda x: x / 2)),
                                 max_size=20))
    us, vs, ts = (np.asarray([q[i] for q in queries]) for i in range(3))
    nodes = np.arange(stride)
    for slot, (lo, hi) in enumerate(ranges):
        piece = WindowFeatureCache(log.take(slice(lo, hi)))
        row = slot * stride
        for node in nodes.tolist():
            assert (region.index.incident(row + node) - lo).tolist() == \
                piece.index.incident(node).tolist()
        assert np.array_equal(region.index.last_time(row + nodes),
                              piece.index.last_time(nodes), equal_nan=True)
        assert region.counts_at(row + us, row + vs, ts).tolist() == \
            piece.counts_at(us, vs, ts).tolist()
        window = region.window(slot)
        assert window.edges.idx.tolist() == list(range(lo, hi))
        positions = np.arange(hi - lo)
        assert window.counts_matrix(positions).tolist() == piece.counts_matrix(positions).tolist()


class TestEdgeEncoding:
    def test_zero_map_gives_zero(self):
        enc = T.parameter(np.zeros((3, 5)))
        edges = edges_from([(0, 1, 1.0), (0, 2, 2.0)])
        out = edge_encoding(enc, edges, 0, 1, 3.0)
        assert np.array_equal(out.values, np.zeros((1, 5)))

    def test_isolated_pair_bias_free_zero(self):
        rng = np.random.default_rng(0)
        enc = T.parameter(rng.normal(size=(3, 4)))
        edges = edges_from([(5, 6, 1.0)])
        out = edge_encoding(enc, edges, 0, 1, 0.5)
        assert np.array_equal(out.values, np.zeros((1, 4)))

    def test_selector_rows_expose_log1p_counts(self):
        w2 = np.zeros((3, 5))
        w2[:3, :3] = np.eye(3)
        enc = T.parameter(w2)
        # deg(0)=2, deg(1)=3, common neighbor {2}
        triples = [(0, 2, 1.0), (1, 2, 2.0), (0, 1, 3.0), (1, 3, 4.0)]
        edges = edges_from(triples)
        out = edge_encoding(enc, edges, 0, 1, 5.0)
        assert np.allclose(out.values[0, :3], np.log1p([2.0, 3.0, 1.0]), rtol=0, atol=1e-12)

    def test_log1p_scale(self):
        w2 = np.zeros((3, 3))
        w2[0, 0] = 1.0
        enc = T.parameter(w2)
        edges = edges_from([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
        out = edge_encoding(enc, edges, 0, 1, 4.0)
        assert abs(out.values[0, 0] - np.log1p(3)) < 1e-12
