"""Synthetic interaction-log generator for desk-scale verification.

The planted rule: at each step, with probability ``motif_prob`` the next
interaction is drawn uniformly from node pairs that share at least one
common neighbor within the last ``history`` edges; otherwise it is a
uniform random pair. Triadic closure makes drifting clusters, so recent
structure genuinely predicts future edges.

Interactions arrive periodically: bursts of ``burst_len`` edges at unit
gaps separated by long quiet gaps, so relative-time patterns carry real
signal for a learnable time encoding.

Dynamic labels mark currently "hot" sources: nodes whose degree within
the recent window reaches ``label_threshold``.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from dygwin.data import CTDG


def make_synthetic_ctdg(num_nodes: int = 100, num_edges: int = 5000,
                        history: int = 200, motif_prob: float = 0.8,
                        bootstrap_edges: int = 200, label_threshold: int = 8,
                        burst_len: int = 40, quiet_gap: float = 120.0,
                        seed: int = 0) -> CTDG:
    rng = np.random.default_rng((seed, 71))
    recent: deque[tuple[int, int]] = deque()
    adjacency = np.zeros((num_nodes, num_nodes), dtype=np.int32)

    def push(u: int, v: int) -> None:
        recent.append((u, v))
        adjacency[u, v] += 1
        adjacency[v, u] += 1
        if len(recent) > history:
            ou, ov = recent.popleft()
            adjacency[ou, ov] -= 1
            adjacency[ov, ou] -= 1

    def random_pair() -> tuple[int, int]:
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        while v == u:
            v = int(rng.integers(0, num_nodes))
        return u, v

    us = np.empty(num_edges, dtype=np.int64)
    vs = np.empty(num_edges, dtype=np.int64)
    t = np.empty(num_edges, dtype=np.float64)
    labels = np.empty(num_edges, dtype=np.float64)
    clock = 0.0
    for i in range(num_edges):
        pair = None
        if i >= bootstrap_edges and rng.random() < motif_prob:
            # 0/1 path counts stay exact in float32 and take the BLAS path
            connected = (adjacency > 0).astype(np.float32)
            common = (connected @ connected) >= 1.0
            np.fill_diagonal(common, False)
            candidates = np.argwhere(np.triu(common, k=1))
            if len(candidates):
                u, v = candidates[rng.integers(0, len(candidates))]
                pair = (int(u), int(v))
        if pair is None:
            pair = random_pair()
        u, v = pair
        us[i], vs[i] = u, v
        clock += quiet_gap if (i % burst_len == 0 and i > 0) else float(rng.uniform(0.5, 1.5))
        t[i] = clock
        labels[i] = 1.0 if int(adjacency[u].sum()) >= label_threshold else 0.0
        push(u, v)

    feats = np.zeros((num_edges, 0), dtype=np.float32)
    present = np.ones(num_edges, dtype=bool)
    return CTDG(us, vs, t, feats, labels, present, num_nodes=num_nodes)


def write_synthetic_csv(path, ctdg: CTDG) -> None:
    lines = ["u,v,t,label"]
    for i in range(len(ctdg)):
        label = ""
        if ctdg.label_present[i]:
            label = f"{ctdg.labels[i]:g}"
        lines.append(f"{ctdg.u[i]},{ctdg.v[i]},{ctdg.t[i]:g},{label}")
    Path(path).write_text("\n".join(lines) + "\n")
