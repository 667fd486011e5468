import numpy as np

from uci_graph import (MEAN_GAP_S, UCI_MESSAGES, UCI_NODES, UCI_PAIRS, UCI_SPAN_S, digest,
                       uci_shaped)


def test_same_seed_same_graph_and_digest():
    a, b = uci_shaped(3000, seed=5), uci_shaped(3000, seed=5)
    for column in ("u", "v", "t"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
    assert digest(a) == digest(b)
    assert digest(uci_shaped(3000, seed=6)) != digest(a)


def test_shape():
    g = uci_shaped(12000, seed=1, edge_dim=172)
    assert g.num_nodes == UCI_NODES and len(g) == 12000
    assert g.feats.shape == (12000, 172)
    assert not np.any(g.u == g.v)
    assert np.all(np.diff(g.t) >= 0) and np.all(g.t == np.floor(g.t))
    assert uci_shaped(10, seed=1).feats.shape == (10, 0)


def test_full_length_log_matches_the_published_uci_figures():
    for seed in (0, 1):
        g = uci_shaped(UCI_MESSAGES, seed)
        pairs = np.unique(g.u.astype(np.int64) * UCI_NODES + g.v).size
        assert abs(pairs / UCI_PAIRS - 1.0) < 0.02
        assert np.unique(np.r_[g.u, g.v]).size == UCI_NODES  # every user sends or receives
        assert abs(g.t[-1] / UCI_SPAN_S - 1.0) < 0.03
        assert abs(np.diff(g.t).mean() / MEAN_GAP_S - 1.0) < 0.03


def test_degrees_are_heavy_tailed():
    # Checks the assumed Pareto activity, not a published UCI figure.
    g = uci_shaped(12000, seed=2)
    degree = np.sort(np.bincount(np.concatenate([g.u, g.v]), minlength=g.num_nodes))[::-1]
    assert degree[0] >= 20 * np.median(degree)
