"""Interval arithmetic, batch slicing, and neighbor sampling."""

import numpy as np
import pytest

from dygwin.errors import ContractError
from dygwin.windows import (Interval, IncidenceIndex, build_layered_neighborhood,
                            evaluation_windows, generate_intervals,
                            make_window_batch, sample_neighbors)

from graphs import ctdg_from, edges_from


class TestGenerateIntervals:
    def test_worked_example(self):
        intervals = generate_intervals(10, stride=2, window=4)
        assert [(i.start, i.end) for i in intervals] == \
            [(0, 2), (0, 4), (2, 6), (4, 8), (6, 10)]

    def test_single_full_window(self):
        intervals = generate_intervals(4, stride=4, window=4)
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

    def test_evaluation_windows_cover_region_once(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(37)])
        seen = []
        for batch in evaluation_windows(ctdg, 20, 37, window=10, horizon=5):
            seen.extend(batch.target_edges.idx.tolist())
        assert seen == list(range(20, 37))


class TestSampleNeighbors:
    def test_undersized_neighborhood_returned_whole(self):
        edges = edges_from([(0, i + 1, float(i)) for i in range(5)])
        out = sample_neighbors(edges, 0, max_neighbors=20, rng=np.random.default_rng(0))
        assert out.tolist() == [0, 1, 2, 3, 4]

    def test_isolated_anchor_empty(self):
        edges = edges_from([(1, 2, 0.0)])
        out = sample_neighbors(edges, 7, max_neighbors=3, rng=np.random.default_rng(0))
        assert out.size == 0

    def test_uniformity_over_seeded_draws(self):
        edges = edges_from([(0, i + 1, float(i)) for i in range(100)])
        counts = np.zeros(100)
        for draw in range(10_000):
            picked = sample_neighbors(edges, 0, max_neighbors=20,
                                      rng=np.random.default_rng((99, draw)))
            assert len(set(picked.tolist())) == 20
            counts[picked] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_deterministic_for_fixed_stream(self):
        edges = edges_from([(0, i + 1, float(i)) for i in range(50)])
        a = sample_neighbors(edges, 0, 10, np.random.default_rng(123))
        b = sample_neighbors(edges, 0, 10, np.random.default_rng(123))
        assert a.tolist() == b.tolist()

    def test_self_loop_counts_once(self):
        edges = edges_from([(3, 3, 0.0), (3, 4, 1.0)])
        out = sample_neighbors(edges, 3, 10, np.random.default_rng(0))
        assert out.tolist() == [0, 1]


class TestLayeredNeighborhood:
    def test_single_layer_single_seed(self):
        edges = edges_from([(0, 1, 0.0), (1, 2, 1.0)])
        hood = build_layered_neighborhood(edges, [0], num_layers=1,
                                          max_neighbors=5, rng_key=(0,))
        assert len(hood.layers) == 1
        assert list(hood.layers[0]) == [0]

    def test_path_graph_expansion(self):
        # a-b edge then b-c edge; seeds {a}
        edges = edges_from([(0, 1, 0.0), (1, 2, 1.0)])
        hood = build_layered_neighborhood(edges, [0], num_layers=2,
                                          max_neighbors=20, rng_key=(0,))
        assert sorted(hood.layers[0]) == [0]
        assert sorted(hood.layers[1]) == [0, 1]
        assert hood.active_nodes.tolist() == [0, 1, 2]

    def test_disconnected_seed_has_empty_layers(self):
        edges = edges_from([(0, 1, 0.0)])
        hood = build_layered_neighborhood(edges, [5], num_layers=3,
                                          max_neighbors=4, rng_key=(0,))
        for layer in hood.layers:
            assert layer[5].size == 0
        assert hood.active_nodes.tolist() == [5]

    def test_sample_independent_of_other_seeds(self):
        rng = np.random.default_rng(0)
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, 8, size=(60, 2)))]
        edges = edges_from([(u, v, t) for u, v, t in triples if u != v])
        solo = build_layered_neighborhood(edges, [0], 2, 3, rng_key=(7,))
        joint = build_layered_neighborhood(edges, [0, 5], 2, 3, rng_key=(7,))
        for layer_solo, layer_joint in zip(solo.layers, joint.layers):
            for anchor, sample in layer_solo.items():
                assert layer_joint[anchor].tolist() == sample.tolist()

    def test_incidence_index_degree_before(self):
        edges = edges_from([(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)])
        index = IncidenceIndex(edges)
        assert index.degree_before(1, 2.0) == 2
        assert index.degree_before(1, 0.5) == 0
        assert index.last_time(9) is None
