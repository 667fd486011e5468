"""Small hand-written edge slices and logs for the unit tests.

A plain module, not ``conftest``: the benchmark's test directory has its
own ``conftest.py``, and ``from conftest import ...`` would reach that one
when both directories are collected in one run.
"""

import numpy as np

from dygwin.data import CTDG, EdgeArray


def edges_from(triples, feats=None, labels=None) -> EdgeArray:
    """Build an edge slice from (u, v, t) triples for feature/window tests."""
    n = len(triples)
    u = np.asarray([e[0] for e in triples], dtype=np.int64)
    v = np.asarray([e[1] for e in triples], dtype=np.int64)
    t = np.asarray([e[2] for e in triples], dtype=np.float64)
    if feats is None:
        feats = np.zeros((n, 0), dtype=np.float32)
    if labels is None:
        labels_arr = np.full(n, np.nan)
        present = np.zeros(n, dtype=bool)
    else:
        labels_arr = np.asarray(labels, dtype=np.float64)
        present = ~np.isnan(labels_arr)
    return EdgeArray(u, v, t, feats, np.arange(n), labels_arr, present)


def ctdg_from(triples, num_nodes=None, feats=None, labels=None) -> CTDG:
    edges = edges_from(triples, feats=feats, labels=labels)
    if num_nodes is None:
        num_nodes = int(max(edges.u.max(), edges.v.max())) + 1 if len(edges) else 0
    return CTDG(edges.u, edges.v, edges.t, edges.feats, edges.labels,
                edges.label_present, num_nodes=num_nodes)
