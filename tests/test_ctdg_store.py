"""Dataset ingestion, caching, and split semantics."""

import gc
import warnings

import numpy as np
import pytest

from dygwin.data import (chronological_split, inductive_split, load_cache,
                         load_csv, load_split_manifest, save_cache,
                         save_split_manifest, split_edge_indices)
from dygwin.errors import DataError

from graphs import ctdg_from


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_line_file(self, tmp_path):
        path = write_csv(tmp_path, "tiny.csv", "u,v,t\n0,1,1.0\n1,2,2.0\n0,2,3.0\n")
        ctdg = load_csv(path)
        assert ctdg.num_nodes == 3
        assert len(ctdg) == 3
        assert ctdg.edge_dim == 0
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.csv"]  # loading writes nothing

    def test_out_of_order_rows_stably_sorted(self, tmp_path):
        sorted_path = write_csv(tmp_path, "s.csv", "u,v,t\n0,1,2.0\n1,2,5.0\n")
        unsorted_path = write_csv(tmp_path, "u.csv", "u,v,t\n1,2,5.0\n0,1,2.0\n")
        a, b = load_csv(sorted_path), load_csv(unsorted_path)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.t, b.t)

    def test_feature_columns(self, tmp_path):
        path = write_csv(tmp_path, "f.csv",
                         "u,v,t,f0,f1,f2,f3\n0,1,1.0,0.1,0.2,0.3,0.4\n1,2,2.0,1,2,3,4\n")
        ctdg = load_csv(path)
        assert ctdg.edge_dim == 4
        assert ctdg.feats[0].shape == (4,)

    def test_label_column_optional_per_row(self, tmp_path):
        path = write_csv(tmp_path, "l.csv", "u,v,t,label\n0,1,1.0,1\n1,2,2.0,\n")
        ctdg = load_csv(path)
        assert ctdg.label_present.tolist() == [True, False]
        assert np.isnan(ctdg.labels[1])

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "bad.csv", "u,v,t\n0,1,1.0\n0,x,2.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        path = write_csv(tmp_path, "neg.csv", "u,v,t\n0,1,-5.0\n")
        with pytest.raises(DataError, match="negative"):
            load_csv(path)

    def test_node_ids_compacted(self, tmp_path):
        path = write_csv(tmp_path, "gap.csv", "u,v,t\n10,50,1.0\n50,99,2.0\n")
        ctdg = load_csv(path)
        assert ctdg.num_nodes == 3
        assert ctdg.u.tolist() == [0, 1] and ctdg.v.tolist() == [1, 2]
        assert ctdg.original_ids.tolist() == [10, 50, 99]

    def test_node_ids_past_float_precision_stay_distinct(self, tmp_path):
        # 2**53 < both ids, where a float64 rounds them to one value
        path = write_csv(tmp_path, "big.csv",
                         "u,v,t\n12345678901234567,12345678901234568,1.0\n1,2,2.0\n")
        ctdg = load_csv(path)
        assert ctdg.num_nodes == 4
        assert ctdg.original_ids.tolist() == [1, 2, 12345678901234567, 12345678901234568]
        assert ctdg.u.tolist() == [2, 0] and ctdg.v.tolist() == [3, 1]

    @pytest.mark.parametrize("text, node", [("3.0", 3), ("1e3", 1000), (" 7 ", 7)])
    def test_float_forms_of_integer_ids(self, tmp_path, text, node):
        ctdg = load_csv(write_csv(tmp_path, "forms.csv", f"u,v,t\n{text},0,1.0\n"))
        assert ctdg.original_ids.tolist() == sorted({node, 0})

    @pytest.mark.parametrize("text", ["9223372036854775808", "-9223372036854775808", "1e19",
                                      "2.5"])
    def test_out_of_range_or_fractional_id_rejected(self, tmp_path, text):
        with pytest.raises(DataError, match="line 2: node id"):
            load_csv(write_csv(tmp_path, "bad.csv", f"u,v,t\n{text},0,1.0\n"))

    def test_cache_round_trip(self, tmp_path):
        path = write_csv(tmp_path, "c.csv", "u,v,t,label,f0\n0,1,1.0,1,0.5\n1,2,2.0,,0.25\n")
        ctdg = load_csv(path)
        save_cache(ctdg, tmp_path / "c.npz")
        again = load_cache(tmp_path / "c.npz")
        assert np.array_equal(ctdg.u, again.u)
        assert np.array_equal(ctdg.feats, again.feats)
        assert np.array_equal(ctdg.label_present, again.label_present)

    @pytest.mark.parametrize("column, reshape", [
        ("feats", lambda a: a[:, 0]),
        ("u", lambda a: a[:, None]),
        ("node_features", lambda a: a[:, 0]),
        ("original_ids", lambda a: a[:, None]),
        ("u", lambda a: a + 0.5),
        ("v", lambda a: a.astype(np.float64)),
        ("num_nodes", lambda a: a + 0.7),
        ("u", lambda a: a[0]),
        ("labels", lambda a: np.full(a.shape, "yes")),
    ], ids=["1d-feats", "2d-u", "1d-node-features", "2d-original-ids", "fractional-u",
            "float-v", "fractional-num-nodes", "0d-u", "text-labels"])
    def test_malformed_column_is_data_error(self, tmp_path, column, reshape):
        payload = {"u": np.array([0, 1, 0]), "v": np.array([1, 2, 2]),
                   "t": np.array([1.0, 2.0, 3.0]), "feats": np.ones((3, 2), np.float32),
                   "labels": np.zeros(3), "label_present": np.zeros(3, bool),
                   "num_nodes": np.asarray(3), "original_ids": np.arange(3),
                   "node_features": np.ones((3, 2), np.float32)}
        np.savez(tmp_path / "good.npz", **payload)
        assert load_cache(tmp_path / "good.npz").node_dim == 2
        np.savez(tmp_path / "bad.npz", **{**payload, column: reshape(payload[column])})
        with pytest.raises(DataError):
            load_cache(tmp_path / "bad.npz")

    def test_truncated_cache_closes_its_file(self, tmp_path):
        path = tmp_path / "cut.npz"
        np.savez(path, u=[0, 1], v=[1, 2], t=[1.0, 2.0])
        path.write_bytes(path.read_bytes()[:-40])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="malformed cache"):
                load_cache(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestChronologicalSplit:
    def test_hundred_edges(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(100)])
        assert chronological_split(ctdg).boundaries == (70, 85)

    def test_ten_edges_floor(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(10)])
        assert chronological_split(ctdg).boundaries == (7, 8)

    def test_three_edges_degenerate_warns(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(3)])
        with pytest.warns(UserWarning):
            assert chronological_split(ctdg).boundaries == (2, 2)

    def test_too_small_rejected(self):
        ctdg = ctdg_from([(0, 1, 0.0), (1, 2, 1.0)])
        with pytest.raises(DataError):
            chronological_split(ctdg)

    def test_partition_property(self):
        ctdg = ctdg_from([(i % 5, (i + 1) % 5, float(i)) for i in range(53)])
        split = chronological_split(ctdg)
        train, val, test = split_edge_indices(ctdg, split)
        joined = np.concatenate([train, val, test])
        assert np.array_equal(joined, np.arange(53))


class TestInductiveSplit:
    def _social_graph(self, n_nodes=10, n_edges=60, seed=2):
        rng = np.random.default_rng(seed)
        triples = []
        for i in range(n_edges):
            u, v = rng.choice(n_nodes, size=2, replace=False)
            triples.append((int(u), int(v), float(i)))
        return ctdg_from(triples, num_nodes=n_nodes)

    def test_masked_count_is_ceil(self):
        split = inductive_split(self._social_graph(), node_fraction=0.1, seed=0)
        assert len(split.masked_nodes) == 1

    def test_same_seed_same_mask(self):
        g = self._social_graph()
        a = inductive_split(g, node_fraction=0.3, seed=5)
        b = inductive_split(g, node_fraction=0.3, seed=5)
        assert a.masked_nodes == b.masked_nodes

    def test_star_graph_emptied_training_rejected(self):
        # every edge touches the hub, so masking the hub empties training
        triples = [(0, i, float(i)) for i in range(1, 5)]
        ctdg = ctdg_from(triples, num_nodes=5)
        failures = 0
        for seed in range(40):
            try:
                split = inductive_split(ctdg, node_fraction=0.2, seed=seed)
            except DataError:
                failures += 1
            else:
                assert 0 not in split.masked_nodes
        assert failures > 0

    def test_filter_correctness(self):
        g = self._social_graph(n_nodes=12, n_edges=200)
        split = inductive_split(g, node_fraction=0.25, seed=1)
        masked = set(split.masked_nodes)
        train, val, test = split_edge_indices(g, split)
        for i in train:
            assert int(g.u[i]) not in masked and int(g.v[i]) not in masked
        for i in np.concatenate([val, test]):
            assert int(g.u[i]) in masked or int(g.v[i]) in masked

    def test_manifest_round_trip(self, tmp_path):
        g = self._social_graph()
        split = inductive_split(g, node_fraction=0.2, seed=3)
        save_split_manifest(tmp_path / "split.txt", split)
        loaded = load_split_manifest(tmp_path / "split.txt")
        assert loaded == split
