"""Time encodings and structural counts against brute-force oracles."""

import numpy as np

import dygwin.tensor as T
from dygwin.features import (TemporalEdgeEncoding, Time2VecParams, common_neighbors_at,
                             init_time2vec, time2vec)
from dygwin.windows import IncidenceIndex

from graphs import edges_from
from oracles import edge_encoding


def degree_at(edges, node, t):
    return IncidenceIndex(edges).degree_before(node, t)


def brute_degree(triples, node, t):
    """Oracle: count incident edges with timestamp <= t by direct scan."""
    return sum(1 for (u, v, ts) in triples if ts <= t and (u == node or v == node))


def brute_common_neighbors(triples, a, b, t):
    """Oracle: distinct shared neighbors via explicit set construction."""
    def nbrs(x):
        out = set()
        for (u, v, ts) in triples:
            if ts > t:
                continue
            if u == x:
                out.add(v)
            if v == x:
                out.add(u)
        return out - {a, b}
    return len(nbrs(a) & nbrs(b))


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

    def test_default_init_dimension(self):
        params = init_time2vec(100)
        assert params.dim == 100
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


class TestEdgeEncoding:
    def test_zero_map_gives_zero(self):
        enc = TemporalEdgeEncoding(w2=T.parameter(np.zeros((3, 5))), scale="raw")
        edges = edges_from([(0, 1, 1.0), (0, 2, 2.0)])
        out = edge_encoding(enc, edges, 0, 1, 3.0)
        assert np.array_equal(out.values, np.zeros((1, 5)))

    def test_isolated_pair_bias_free_zero(self):
        rng = np.random.default_rng(0)
        enc = TemporalEdgeEncoding(w2=T.parameter(rng.normal(size=(3, 4))), scale="raw")
        edges = edges_from([(5, 6, 1.0)])
        out = edge_encoding(enc, edges, 0, 1, 0.5)
        assert np.array_equal(out.values, np.zeros((1, 4)))

    def test_selector_rows_expose_raw_counts(self):
        w2 = np.zeros((3, 5))
        w2[:3, :3] = np.eye(3)
        enc = TemporalEdgeEncoding(w2=T.parameter(w2), scale="raw")
        # deg(0)=2, deg(1)=3, common neighbor {2}
        triples = [(0, 2, 1.0), (1, 2, 2.0), (0, 1, 3.0), (1, 3, 4.0)]
        edges = edges_from(triples)
        out = edge_encoding(enc, edges, 0, 1, 5.0)
        assert out.values[0, :3].tolist() == [2.0, 3.0, 1.0]

    def test_log1p_scale(self):
        w2 = np.zeros((3, 3))
        w2[0, 0] = 1.0
        enc = TemporalEdgeEncoding(w2=T.parameter(w2), scale="log1p")
        edges = edges_from([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
        out = edge_encoding(enc, edges, 0, 1, 4.0)
        assert abs(out.values[0, 0] - np.log1p(3)) < 1e-12
