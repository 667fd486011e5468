"""Interval arithmetic, batch slicing, and neighbor sampling."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dygwin import windows
from dygwin.errors import ContractError
from dygwin.features import WindowFeatureCache
from dygwin.windows import (Interval, IncidenceIndex, build_layered_neighborhood,
                            generate_intervals, make_window_batch, sample_neighbors)

import oracles
from graphs import ctdg_from, edges_from


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with ``df`` degrees of freedom, by the
    recurrence Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) of the
    regularized upper incomplete gamma, from Q(1/2, y) or Q(1, y)."""
    y = x / 2.0
    a, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    while a < df / 2.0:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return q


class TestGenerateIntervals:
    def test_worked_example(self):
        intervals = generate_intervals(10, stride=2, window=4)
        assert [(i.start, i.end) for i in intervals] == \
            [(0, 2), (0, 4), (2, 6), (4, 8), (6, 10)]

    def test_single_full_window(self):
        for window in (4, 400):  # a window longer than the log starts at its first edge
            intervals = generate_intervals(4, stride=4, window=window)
            assert [(i.start, i.end) for i in intervals] == [(0, 4)]

    def test_monotone_bounds(self):
        intervals = generate_intervals(103, stride=7, window=20)
        starts = [i.start for i in intervals]
        ends = [i.end for i in intervals]
        assert starts == sorted(starts) and ends == sorted(ends)

    @pytest.mark.parametrize("total,k", [(100, 10), (57, 7), (20, 20), (9, 4)])
    def test_stride_equals_horizon_targets_cover_once(self, total, k):
        # every edge index >= K lands in exactly one target slice
        covered = np.zeros(total, dtype=int)
        for interval in generate_intervals(total, stride=k, window=3 * k):
            lo, hi = interval.end, min(interval.end + k, total)
            covered[lo:hi] += 1
        assert np.all(covered[k:] == 1)
        assert np.all(covered[:k] == 0)

    def test_preconditions(self):
        with pytest.raises(ContractError):
            generate_intervals(10, stride=0, window=4)
        with pytest.raises(ContractError):
            generate_intervals(10, stride=2, window=0)


class TestMakeWindowBatch:
    def test_slicing(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10)])
        batch = make_window_batch(ctdg, Interval(0, 4), target_size=2)
        assert batch.input_edges.idx.tolist() == [0, 1, 2, 3]
        assert batch.target_edges.idx.tolist() == [4, 5]

    def test_interval_at_end_gives_empty_target(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10)])
        batch = make_window_batch(ctdg, Interval(6, 10), target_size=5)
        assert len(batch.target_edges) == 0
        assert len(batch.input_edges) == 4

    def test_causality_input_before_target(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(30)])
        for interval in generate_intervals(30, stride=5, window=12):
            batch = make_window_batch(ctdg, interval, target_size=5)
            if len(batch.input_edges) and len(batch.target_edges):
                assert batch.input_edges.t.max() <= batch.target_edges.t.min()


class TestSampleNeighbors:
    def test_undersized_neighborhood_returned_whole(self):
        edges = edges_from([(0, i + 1, float(i)) for i in range(5)])
        out = sample_neighbors(IncidenceIndex(edges), 0, max_neighbors=20,
                               rng=np.random.default_rng(0))
        assert out.tolist() == [0, 1, 2, 3, 4]

    def test_isolated_anchor_empty(self):
        edges = edges_from([(1, 2, 0.0)])
        out = sample_neighbors(IncidenceIndex(edges), 7, max_neighbors=3,
                               rng=np.random.default_rng(0))
        assert out.size == 0

    def test_uniformity_over_seeded_draws(self):
        index = IncidenceIndex(edges_from([(0, i + 1, float(i)) for i in range(100)]))
        counts = np.zeros(100)
        for draw in range(10_000):
            picked = sample_neighbors(index, 0, max_neighbors=20,
                                      rng=np.random.default_rng((99, draw)))
            assert len(set(picked.tolist())) == 20
            counts[picked] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_deterministic_for_fixed_stream(self):
        edges = edges_from([(0, i + 1, float(i)) for i in range(50)])
        a = sample_neighbors(IncidenceIndex(edges), 0, 10, np.random.default_rng(123))
        b = sample_neighbors(IncidenceIndex(edges), 0, 10, np.random.default_rng(123))
        assert a.tolist() == b.tolist()

    def test_self_loop_counts_once(self):
        edges = edges_from([(3, 3, 0.0), (3, 4, 1.0)])
        out = sample_neighbors(IncidenceIndex(edges), 3, 10, np.random.default_rng(0))
        assert out.tolist() == [0, 1]


class TestLayeredNeighborhood:
    def test_single_layer_single_seed(self):
        edges = edges_from([(0, 1, 0.0), (1, 2, 1.0)])
        hood = build_layered_neighborhood(IncidenceIndex(edges), [0], num_layers=1,
                                          max_neighbors=5, rng_key=(0,))
        assert len(hood.layers) == 1
        assert list(hood.layers[0]) == [0]

    def test_path_graph_expansion(self):
        # a-b edge then b-c edge; seeds {a}: the top layer samples a, the layer
        # below also samples b, the endpoint of a's sample
        edges = edges_from([(0, 1, 0.0), (1, 2, 1.0)])
        hood = build_layered_neighborhood(IncidenceIndex(edges), [0], num_layers=2,
                                          max_neighbors=20, rng_key=(0,))
        assert sorted(hood.layers[1]) == [0]
        assert sorted(hood.layers[0]) == [0, 1]
        assert hood.active_nodes.tolist() == [0, 1, 2]

    def test_disconnected_seed_has_empty_layers(self):
        edges = edges_from([(0, 1, 0.0)])
        hood = build_layered_neighborhood(IncidenceIndex(edges), [5], num_layers=3,
                                          max_neighbors=4, rng_key=(0,))
        for layer in hood.layers:
            assert layer[5].size == 0
        assert hood.active_nodes.tolist() == [5]

    def test_sample_independent_of_other_seeds(self):
        rng = np.random.default_rng(0)
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, 8, size=(60, 2)))]
        edges = edges_from([(u, v, t) for u, v, t in triples if u != v])
        solo = build_layered_neighborhood(IncidenceIndex(edges), [0], 2, 3, rng_key=(7,))
        joint = build_layered_neighborhood(IncidenceIndex(edges), [0, 5], 2, 3, rng_key=(7,))
        for layer_solo, layer_joint in zip(solo.layers, joint.layers):
            for anchor, sample in layer_solo.items():
                assert layer_joint[anchor].tolist() == sample.tolist()

    @pytest.mark.parametrize("seed,max_neighbors", [(7, 0), (0, 0), (0, -1)])
    def test_max_neighbors_below_one_rejected(self, seed, max_neighbors):
        # node 7 is isolated and node 0 has one incident edge: neither reaches
        # a draw, so the bound is checked before any anchor is sampled
        edges = edges_from([(0, 1, 0.0)])
        with pytest.raises(ContractError):
            build_layered_neighborhood(IncidenceIndex(edges), [seed], 2, max_neighbors, (0,))

    def test_hub_inclusion_uniform_and_leaves_whole(self):
        # a hub with 30 incident edges, each to a leaf of degree 1
        degree, max_neighbors, keys = 30, 10, 2000
        edges = edges_from([(0, i + 1, float(i)) for i in range(degree)])
        index = IncidenceIndex(edges)
        counts = np.zeros(degree)
        for key in range(keys):
            hood = build_layered_neighborhood(index, [0], 2, max_neighbors, (key,))
            top, bottom = hood.layers[1], hood.layers[0]
            picked = top[0]
            assert len(set(picked.tolist())) == max_neighbors
            counts[picked] += 1
            leaves = picked + 1
            assert sorted(bottom) == [0, *leaves.tolist()]
            for leaf in leaves.tolist():
                assert bottom[leaf].tolist() == index.incident(leaf).tolist() == [leaf - 1]
        # inclusion counts of a k-of-n draw without replacement have covariance
        # N p (1 - p) n / (n - 1) times the centring projection, so this
        # statistic is chi-square with n - 1 degrees of freedom
        p = max_neighbors / degree
        statistic = float(np.sum((counts - keys * p) ** 2)) * (degree - 1) \
            / (keys * p * (1 - p) * degree)
        assert chi2_sf(statistic, degree - 1) > 1e-3

    def test_streams_built_only_for_over_degree_anchors(self, monkeypatch):
        rng = np.random.default_rng(3)
        edges = edges_from([(int(a), int(b), float(i)) for i, (a, b) in
                            enumerate(rng.integers(0, 30, size=(300, 2)))])
        index = IncidenceIndex(edges)
        callers = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(windows.np.random, "default_rng", counting_default_rng)
        hood = build_layered_neighborhood(index, range(34), 3, 20, (7,))
        over = sum(index.incident(anchor).size > 20
                   for samples in hood.layers for anchor in samples)
        assert 0 < over < sum(len(samples) for samples in hood.layers)
        assert callers.count("dygwin.windows") == over

    def test_incidence_index_degree_before(self):
        edges = edges_from([(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)])
        assert WindowFeatureCache(edges).counts_at([1, 1], [1, 1], [2.0, 0.5])[:, 0].tolist() \
            == [2, 0]
        assert IncidenceIndex(edges).last_time([9, 1, 3], fallback=0.5).tolist() == [0.5, 2.0, 3.0]

    def test_decreasing_timestamps_rejected(self):
        # Positions stand for time order, so this slice would give node 0 the
        # last time 1.0 instead of 2.0.
        with pytest.raises(ContractError):
            IncidenceIndex(edges_from([(0, 1, 2.0), (0, 2, 1.0)]))

    def test_incident_positions_once_ascending_and_read_only(self):
        # a self-loop, parallel edges and a tied timestamp
        edges = edges_from([(1, 1, 0.0), (1, 2, 1.0), (2, 1, 1.0), (3, 1, 2.0), (2, 2, 3.0)])
        index = IncidenceIndex(edges)
        assert index.incident(1).tolist() == [0, 1, 2, 3]
        assert index.incident(2).tolist() == [1, 2, 4]
        assert index.incident(9).tolist() == []
        with pytest.raises(ValueError):
            index.incident(1)[0] = 7
        with pytest.raises(ValueError):
            index.nodes[0] = 7


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_layered_neighborhood_matches_per_anchor_oracle(data):
    max_neighbors = data.draw(st.integers(1, 4))
    num_nodes = data.draw(st.integers(1, 6))
    # node 0 gets k - 1, k or k + 1 incident edges around k = max_neighbors:
    # a partner 0 is a self-loop, which is one entry, and a repeated partner a
    # parallel edge; the other edges avoid node 0, and k - 1 = 0 with no other
    # edge is an empty window
    hub = [(0, data.draw(st.integers(0, num_nodes - 1)))
           for _ in range(max_neighbors + data.draw(st.integers(-1, 1)))]
    others = data.draw(st.lists(st.tuples(st.integers(1, num_nodes), st.integers(1, num_nodes)),
                                max_size=25))
    pairs = data.draw(st.permutations(hub + others))
    times = sorted(data.draw(st.lists(st.integers(0, 6), min_size=len(pairs),
                                      max_size=len(pairs))))
    index = IncidenceIndex(edges_from([(u, v, float(t)) for (u, v), t in zip(pairs, times)]))
    # seeds repeat and range past num_nodes: isolated nodes and nodes absent
    # from the window
    seeds = data.draw(st.lists(st.integers(0, num_nodes + 2), max_size=6))
    num_layers = data.draw(st.integers(1, 3))
    rng_key = (data.draw(st.integers(0, 2**32)),)

    hood = build_layered_neighborhood(index, seeds, num_layers, max_neighbors, rng_key)
    oracle = oracles.layered_neighborhood(index, seeds, num_layers, max_neighbors, rng_key)
    assert len(hood.layers) == len(oracle.layers) == num_layers
    for samples, expected in zip(hood.layers, oracle.layers):
        assert list(samples) == list(expected)
        for anchor, sample in samples.items():
            assert sample.dtype == expected[anchor].dtype
            assert sample.tolist() == expected[anchor].tolist()
    assert hood.active_nodes.dtype == oracle.active_nodes.dtype
    assert hood.active_nodes.tolist() == oracle.active_nodes.tolist()
    for got, expected in zip(hood.positions + hood.slots, oracle.positions + oracle.slots):
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
