"""Window arithmetic, window slicing, and neighbor sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dygwin.encoder import encode, init_encoder
from dygwin.errors import ContractError
from dygwin.features import WindowFeatureCache
from dygwin.keyed import key_words, keyed_uniform
from dygwin.windows import IncidenceIndex, build_layered_neighborhood, generate_intervals

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


def window_pairs(total_edges: int, stride: int, window: int) -> list[tuple[int, int]]:
    starts, ends = generate_intervals(total_edges, stride, window)
    assert starts.dtype == ends.dtype == np.int64
    return list(zip(starts.tolist(), ends.tolist()))


class TestGenerateIntervals:
    def test_worked_example(self):
        assert window_pairs(10, stride=2, window=4) == \
            [(0, 2), (0, 4), (2, 6), (4, 8), (6, 10)]

    def test_single_full_window(self):
        for window in (4, 400):  # a window longer than the log starts at its first edge
            assert window_pairs(4, stride=4, window=window) == [(0, 4)]

    def test_no_window_in_a_log_shorter_than_the_stride(self):
        assert window_pairs(3, stride=4, window=4) == []

    def test_monotone_bounds(self):
        starts, ends = generate_intervals(103, stride=7, window=20)
        assert np.all(np.diff(starts) >= 0) and np.all(np.diff(ends) > 0)

    @pytest.mark.parametrize("total,k", [(100, 10), (57, 7), (20, 20), (9, 4)])
    def test_stride_equals_horizon_targets_cover_once(self, total, k):
        # every edge index >= K lands in exactly one target slice
        covered = np.zeros(total, dtype=int)
        for _, end in window_pairs(total, stride=k, window=3 * k):
            covered[end:min(end + k, total)] += 1
        assert np.all(covered[k:] == 1)
        assert np.all(covered[:k] == 0)

    def test_preconditions(self):
        with pytest.raises(ContractError):
            generate_intervals(10, stride=0, window=4)
        with pytest.raises(ContractError):
            generate_intervals(10, stride=2, window=0)


def window_and_targets(ctdg, start: int, end: int, target_size: int):
    """A window's input slice [start, end) and the up to ``target_size`` edges
    after it, as ``train_downstream`` slices them."""
    return ctdg.window(start, end), ctdg.window(end, min(end + target_size, len(ctdg)))


class TestWindowSlices:
    def test_slicing(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10)])
        start, end = window_pairs(10, stride=2, window=4)[1]
        inputs, targets = window_and_targets(ctdg, start, end, 2)
        assert inputs.idx.tolist() == [0, 1, 2, 3]
        assert targets.idx.tolist() == [4, 5]

    def test_interval_at_end_gives_empty_target(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10)])
        start, end = window_pairs(10, stride=2, window=4)[-1]
        inputs, targets = window_and_targets(ctdg, start, end, 5)
        assert len(targets) == 0
        assert inputs.idx.tolist() == [6, 7, 8, 9]

    def test_causality_input_before_target(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(30)])
        for start, end in window_pairs(30, stride=5, window=12):
            inputs, targets = window_and_targets(ctdg, start, end, 5)
            if len(inputs) and len(targets):
                assert inputs.t.max() <= targets.t.min()


class TestKeyedUniform:
    def test_in_unit_interval_and_deterministic(self):
        words = key_words([(1, 2), (3,)])
        draws = keyed_uniform(words[:, None], 4, np.arange(1000))
        assert draws.shape == (2, 1000) and draws.dtype == np.float64
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert draws.tobytes() == keyed_uniform(key_words([(1, 2), (3,)])[:, None], 4,
                                                np.arange(1000)).tobytes()

    def test_changed_key_or_id_changes_the_draw(self):
        assert np.unique(key_words([(i,) for i in range(1000)])).size == 1000
        rng = np.random.default_rng(0)
        word = key_words([(7,)])
        ids = rng.integers(0, 2**40, size=(4, 1000))
        draws = keyed_uniform(word, *ids)
        assert np.all(keyed_uniform(key_words([(8,)]), *ids) != draws)
        for place in range(4):
            changed = ids.copy()
            changed[place] += rng.integers(1, 2**20, size=1000)
            assert np.all(keyed_uniform(word, *changed) != draws)

    def test_consecutive_ids_pass_chi_square(self):
        draws = keyed_uniform(key_words([(20221,)]), np.arange(100_000))
        counts = np.bincount((draws * 100).astype(np.int64), minlength=100)
        statistic = float(np.sum((counts - 1000.0) ** 2) / 1000.0)
        assert chi2_sf(statistic, 99) > 1e-3

    def test_wraps_uint64_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw = keyed_uniform(np.uint64(2**64 - 1), np.uint64(2**64 - 1), -1, 2**62)
        assert draw.shape == (1,) and 0.0 <= draw[0] < 1.0


def top_sample(index, anchor: int, max_neighbors: int, key) -> np.ndarray:
    """``anchor``'s sample in a one-layer neighbourhood of window key ``key``."""
    hood = build_layered_neighborhood(index, [anchor], 1, max_neighbors, key)
    return oracles.sample_dict(hood.layers[0])[anchor]


class TestSampleNeighbors:
    def test_undersized_neighborhood_returned_whole(self):
        edges = edges_from([(0, i + 1, float(i)) for i in range(5)])
        assert top_sample(IncidenceIndex(edges), 0, 20, (0,)).tolist() == [0, 1, 2, 3, 4]

    def test_isolated_anchor_empty(self):
        edges = edges_from([(1, 2, 0.0)])
        assert top_sample(IncidenceIndex(edges), 7, 3, (0,)).size == 0

    def test_uniformity_over_seeded_draws(self):
        # 10,000 windows over one log, each with its own key, in one call
        draws, stride = 10_000, 101
        index = IncidenceIndex(edges_from([(0, i + 1, float(i)) for i in range(100)])) \
            .windows(np.zeros(draws), np.full(draws, 100), stride)
        hood = build_layered_neighborhood(index, np.arange(draws) * stride, 1, 20,
                                          [(99, draw) for draw in range(draws)])
        counts = np.zeros(100)
        for picked in hood.layers[0].values():
            assert len(set(picked.tolist())) == 20
            counts[picked] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_deterministic_for_fixed_stream(self):
        index = IncidenceIndex(edges_from([(0, i + 1, float(i)) for i in range(50)]))
        first, second = top_sample(index, 0, 10, (123,)), top_sample(index, 0, 10, (123,))
        assert first.tolist() == second.tolist()

    def test_self_loop_counts_once(self):
        edges = edges_from([(3, 3, 0.0), (3, 4, 1.0)])
        assert top_sample(IncidenceIndex(edges), 3, 10, (0,)).tolist() == [0, 1]

    def test_matches_one_anchor_oracle(self):
        index = IncidenceIndex(edges_from([(0, i + 1, float(i // 3)) for i in range(40)]))
        word = np.random.SeedSequence((5,)).generate_state(1, np.uint64)[0]
        assert top_sample(index, 0, 7, (5,)).tolist() == \
            oracles.sample_neighbors(index, 0, 7, word, 1).tolist()


class TestLayeredNeighborhood:
    def test_single_layer_single_seed(self):
        edges = edges_from([(0, 1, 0.0), (1, 2, 1.0)])
        hood = build_layered_neighborhood(IncidenceIndex(edges), [0], num_layers=1,
                                          max_neighbors=5, rng_key=(0,))
        assert len(hood.layers) == 1
        assert hood.layers[0].anchors.tolist() == [0]

    def test_path_graph_expansion(self):
        # a-b edge then b-c edge; seeds {a}: the top layer samples a, the layer
        # below also samples b, the endpoint of a's sample
        edges = edges_from([(0, 1, 0.0), (1, 2, 1.0)])
        hood = build_layered_neighborhood(IncidenceIndex(edges), [0], num_layers=2,
                                          max_neighbors=20, rng_key=(0,))
        assert hood.layers[1].anchors.tolist() == [0]
        assert hood.layers[0].anchors.tolist() == [0, 1]
        assert hood.active_nodes.tolist() == [0, 1, 2]

    def test_disconnected_seed_has_empty_layers(self):
        edges = edges_from([(0, 1, 0.0)])
        hood = build_layered_neighborhood(IncidenceIndex(edges), [5], num_layers=3,
                                          max_neighbors=4, rng_key=(0,))
        for layer in hood.layers:
            assert oracles.sample_dict(layer)[5].size == 0
        assert hood.active_nodes.tolist() == [5]

    def test_sample_independent_of_other_seeds(self):
        rng = np.random.default_rng(0)
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, 8, size=(60, 2)))]
        edges = edges_from([(u, v, t) for u, v, t in triples if u != v])
        solo = build_layered_neighborhood(IncidenceIndex(edges), [0], 2, 3, rng_key=(7,))
        joint = build_layered_neighborhood(IncidenceIndex(edges), [0, 5], 2, 3, rng_key=(7,))
        for layer_solo, layer_joint in zip(solo.layers, joint.layers):
            joint_samples = oracles.sample_dict(layer_joint)
            for anchor, sample in oracles.sample_dict(layer_solo).items():
                assert joint_samples[anchor].tolist() == sample.tolist()

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
            bottom, top = (oracles.sample_dict(layer) for layer in hood.layers)
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

    def test_sampling_and_encode_build_no_generator(self, monkeypatch):
        rng = np.random.default_rng(3)
        edges = edges_from([(int(a), int(b), float(i)) for i, (a, b) in
                            enumerate(rng.integers(0, 30, size=(300, 2)))])
        cache = WindowFeatureCache(edges)
        params = init_encoder(num_layers=3, node_dim=4, time_dim=2, heads=2, dropout=0.3,
                              seed=0)
        calls = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        hood = build_layered_neighborhood(cache.index, range(34), 3, 20, (7,))
        assert any(cache.index.incident(anchor).size > 20
                   for samples in hood.layers for anchor in samples.anchors.tolist())
        encode(cache, params, 20, (7,), range(34), training=True)
        assert calls == []

    def test_incidence_index_degree_before(self):
        edges = edges_from([(1, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)])
        assert WindowFeatureCache(edges).counts_at([1, 1], [1, 1], [2.0, 0.5])[:, 0].tolist() \
            == [2, 0]
        assert IncidenceIndex(edges).last_time([9, 1, 3], fallback=0.5).tolist() == [0.5, 2.0, 3.0]

    def test_window_stride_must_exceed_every_node_id(self):
        # A stride of 4 would alias node 4 of window 0 with node 0 of window 1.
        edges = edges_from([(0, 4, 0.0), (2, 1, 1.0)])
        for stride in (1, 4):
            with pytest.raises(ContractError):
                IncidenceIndex(edges).windows([0, 0], [2, 2], stride)
            with pytest.raises(ContractError):
                WindowFeatureCache(edges).windows([0, 0], [2, 2], stride)
        assert IncidenceIndex(edges).windows([0, 0], [2, 2], 5).stride == 5
        assert IncidenceIndex(edges_from([])).windows([0], [0], 1).stride == 1

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
        assert_samples_equal_dict(samples, expected)
    assert hood.active_nodes.dtype == oracle.active_nodes.dtype
    assert hood.active_nodes.tolist() == oracle.active_nodes.tolist()


def assert_samples_equal_dict(samples, expected: dict) -> None:
    """A ``LayerSamples`` against the per-anchor dict of its anchors ascending:
    the same keys, slices and flat arrays."""
    as_dict = oracles.sample_dict(samples)
    assert len(samples) == len(expected) and list(as_dict) == list(expected)
    for anchor, sample in as_dict.items():
        assert sample.dtype == expected[anchor].dtype
        assert sample.tolist() == expected[anchor].tolist()
    flat = oracles.flatten_layer(expected)
    assert samples.anchors.dtype == samples.positions.dtype == np.int64
    assert list(zip(samples.anchors[samples.segments].tolist(), samples.segments.tolist(),
                    samples.positions.tolist())) == flat
    assert samples.bounds.tolist() == np.cumsum([0] + [s.size for s in expected.values()]).tolist()


def test_layer_samples_len_and_values_follow_bounds():
    expected = {2: np.array([0, 4]), 5: np.empty(0, dtype=np.int64), 9: np.array([1])}
    samples = oracles.layer_samples(expected)
    assert_samples_equal_dict(samples, expected)
    assert len(samples) == samples.anchors.size == samples.bounds.size - 1 == 3
    bounds = samples.bounds.tolist()
    assert [sample.tolist() for sample in samples.values()] \
        == [samples.positions[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])] \
        == [[0, 4], [], [1]]
    empty = oracles.layer_samples({})
    assert len(empty) == 0 and empty.values() == [] and empty.bounds.tolist() == [0]
