"""UCI-shaped synthetic interaction logs for the benchmark.

The target is the UC Irvine student forum log (Panzarasa, Opsahl and
Carley, JASIST 2009; published as SNAP's CollegeMsg): 1,899 users,
59,835 directed messages over 20,296 distinct sender-receiver pairs (about
2.95 messages per pair), spanning 193 days, so a message every 278.7 s on
average. The generator matches those figures at that length:

- every node has a Pareto activity weight, dealt from the Pareto quantiles
  in a seeded order, so every seed has the same activity profile;
- each message's sender is drawn in proportion to activity;
- with probability ``REPEAT_PROB`` the sender writes again to the receiver of
  one of its own earlier messages, picked uniformly; otherwise the receiver
  is drawn in proportion to activity, redrawn on a self-loop. The
  probability is fitted so that a 59,835-message log has 20,296 distinct
  pairs (see the tests);
- timestamps are integer seconds with exponential gaps of the UCI mean.

No degree-tail figure of the UCI log is cited here: ``PARETO_SHAPE`` is an
assumption, and ``REPEAT_PROB`` is fitted given it. Each message depends only
on earlier ones, so a short log is distributed as the start of a long one.
Everything is vectorized and seeded only by the caller's seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dygwin.data import CTDG

UCI_NODES = 1899
UCI_MESSAGES = 59835
UCI_PAIRS = 20296
UCI_SPAN_S = 193 * 86400
MEAN_GAP_S = UCI_SPAN_S / UCI_MESSAGES
PARETO_SHAPE = 1.5
REPEAT_PROB = 0.66


def uci_shaped(num_edges: int, seed: int, edge_dim: int = 0) -> CTDG:
    """A time-sorted log of ``num_edges`` messages over ``UCI_NODES`` nodes."""
    num_nodes = UCI_NODES
    rng = np.random.default_rng(seed)
    quantiles = (np.arange(num_nodes) + 0.5) / num_nodes
    activity = rng.permutation((1.0 - quantiles) ** (-1.0 / PARETO_SHAPE))
    cdf = np.cumsum(activity)
    cdf /= cdf[-1]

    def draw(count: int) -> np.ndarray:
        picks = np.searchsorted(cdf, rng.random(count), side="right")
        return np.minimum(picks, num_nodes - 1)

    u = draw(num_edges)
    v = draw(num_edges)
    loops = np.flatnonzero(u == v)
    while loops.size:
        v[loops] = draw(loops.size)
        loops = loops[u[loops] == v[loops]]

    # Repeats: message i copies the receiver of a uniformly chosen earlier
    # message of its sender; a sender's first message is always fresh.
    order = np.argsort(u, kind="stable")
    by_sender = u[order]
    starts = np.flatnonzero(np.r_[True, by_sender[1:] != by_sender[:-1]])
    group_start = np.repeat(starts, np.diff(np.r_[starts, num_edges]))
    rank = np.arange(num_edges) - group_start
    pick = group_start + np.floor(rng.random(num_edges) * rank).astype(np.int64)
    repeat = (rank > 0) & (rng.random(num_edges) < REPEAT_PROB)
    source = np.arange(num_edges)
    source[order[repeat]] = order[pick[repeat]]
    while np.any(source[source] != source):  # follow copies back to a fresh message
        source = source[source]
    v = v[source]

    t = np.floor(np.cumsum(rng.exponential(MEAN_GAP_S, num_edges)))
    feats = rng.standard_normal((num_edges, edge_dim)).astype(np.float32)
    return CTDG(u, v, t, feats, labels=np.zeros(num_edges),
                label_present=np.zeros(num_edges, dtype=bool), num_nodes=num_nodes)


def digest(ctdg: CTDG) -> str:
    """Short content hash of a log, so a result names the exact graph it ran on."""
    h = hashlib.sha256()
    for column in (ctdg.u, ctdg.v, ctdg.t, ctdg.feats):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]
