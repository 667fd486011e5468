"""Single-item reference paths the batched encoder and counts are tested against.

Each function computes one anchor's attention, one edge's encoding, one
node's row, recency, degree or common neighbours, one sampled position,
one layer's receptive field or one anchor's draw the direct way, so a test
can compare it item by item with ``layer_forward``, ``NodeEmbeddings.rows``,
``IncidenceIndex.last_time``, ``build_layered_neighborhood`` and
``WindowFeatureCache.counts_at``. The
``sigmoid`` and ``softmax_rows`` primitives serve the reference ``mha`` and
the gradient checks only. ``slice_rows``, ``segment_softmax`` and
``segment_sum`` scatter through ``np.add.at`` and ``np.maximum.at``, one cell
at a time, for comparison with the ``np.bincount`` forms in ``dygwin.tensor``.
``checkpoint_digest`` lets a test compare parameter maps by content.
"""

import hashlib

import numpy as np

import dygwin.tensor as T
from dygwin.data import EdgeArray
from dygwin.encoder import EncoderParams, LayerParams
from dygwin.errors import ConsistencyError, ContractError, ShapeError
from dygwin.features import time2vec
from dygwin.tensor import Tensor, _finish
from dygwin.windows import IncidenceIndex, LayeredNeighborhood, sample_neighbors


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _finish("sigmoid", (a,), out, bwd)


def softmax_rows(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-d tensor, got shape {a.shape}")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _finish("softmax_rows", (a,), out, bwd)


def slice_rows(a: Tensor, rows) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64)
    out = a.values[rows]

    def bwd(g):
        full = np.zeros_like(a.values)
        np.add.at(full, rows, g)
        return (full,)

    return _finish("slice_rows", (a,), out, bwd)


def segment_softmax(a: Tensor, segment_ids) -> Tensor:
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.size == 0:
        return _finish("segment_softmax", (a,), a.values.copy(), lambda g: (g,))
    num = int(seg.max()) + 1
    seg_max = np.full((num,) + a.shape[1:], -np.inf, dtype=a.values.dtype)
    np.maximum.at(seg_max, seg, a.values)
    e = np.exp(a.values - seg_max[seg])
    denom = np.zeros((num,) + a.shape[1:], dtype=a.values.dtype)
    np.add.at(denom, seg, e)
    out = e / denom[seg]

    def bwd(g):
        dot = np.zeros((num,) + a.shape[1:], dtype=g.dtype)
        np.add.at(dot, seg, out * g)
        return (out * (g - dot[seg]),)

    return _finish("segment_softmax", (a,), out, bwd)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    seg = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments, a.shape[1]), dtype=a.values.dtype)
    np.add.at(out, seg, a.values)

    def bwd(g):
        return (g[seg],)

    return _finish("segment_sum", (a,), out, bwd)


def edge_message(h_u_prev: Tensor, t_p: float, anchor_recency: float,
                 m_p: np.ndarray, params: EncoderParams,
                 counts=(0, 0, 0)) -> Tensor:
    """Single-edge message [h_neighbor || time-and-structure encoding || features]."""
    if anchor_recency < t_p:
        raise ContractError(f"anchor recency {anchor_recency} precedes edge time {t_p}")
    f = time2vec(params.t2v, anchor_recency - t_p)
    scaled = np.log1p(np.asarray(counts, dtype=np.float64).reshape(1, 3))
    f = T.add(f, T.matmul(T.constant(scaled, dtype=params.edge_enc.dtype), params.edge_enc))
    parts = [h_u_prev, f]
    if params.edge_dim > 0:
        parts.append(T.constant(np.asarray(m_p, dtype=np.float64).reshape(1, -1),
                                dtype=h_u_prev.dtype))
    return T.concat_last_dim(parts)


def mha(query: Tensor, keys: Tensor | None, layer: LayerParams,
        dropout_p: float = 0.0, rng: np.random.Generator | None = None,
        training: bool = False) -> Tensor:
    """Reference multi-head scaled dot-product attention for one anchor.

    ``keys`` holds one message per row and doubles as the values; an empty
    or missing key set yields the zero vector.
    """
    node_dim = layer.w1.shape[0]
    if keys is None or keys.shape[0] == 0:
        return T.constant(np.zeros((1, node_dim)), dtype=query.dtype)
    head_dim = layer.wq[0].shape[1]
    contexts = []
    for h in range(len(layer.wq)):
        q = T.matmul(query, layer.wq[h])                    # (1, head_dim)
        k = T.matmul(keys, layer.wk[h])                     # (rows, head_dim)
        v = T.matmul(keys, layer.wv[h])
        scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(head_dim))
        attn = softmax_rows(scores)                         # (1, rows)
        if dropout_p > 0.0:
            attn = T.dropout(attn, dropout_p, rng, training=training)
        contexts.append(T.matmul(attn, v))                  # (1, head_dim)
    return T.matmul(T.concat_last_dim(contexts), layer.wo)


def encode_counts(edge_enc: Tensor, counts: np.ndarray) -> Tensor:
    """Map log1p of a (rows, 3) count matrix through the learned bias-free
    (3, dim) projection."""
    scaled = np.log1p(np.asarray(counts, dtype=np.float64))
    return T.matmul(T.constant(scaled, dtype=edge_enc.dtype), edge_enc)


def brute_degree(triples, node, t):
    """Count incident edges with timestamp <= t by direct scan."""
    return sum(1 for (u, v, ts) in triples if ts <= t and (u == node or v == node))


def brute_common_neighbors(triples, a, b, t):
    """Distinct shared neighbours via explicit set construction."""
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


def edge_encoding(edge_enc: Tensor, input_edges: EdgeArray,
                  u: int, v: int, t: float) -> Tensor:
    """Encoding vector for a (u, v, t) interaction; shape (1, dim)."""
    triples = list(zip(input_edges.u.tolist(), input_edges.v.tolist(), input_edges.t.tolist()))
    counts = np.asarray([[brute_degree(triples, u, t), brute_degree(triples, v, t),
                          brute_common_neighbors(triples, u, v, t)]], dtype=np.float64)
    return encode_counts(edge_enc, counts)


def dict_rows(ids, nodes) -> list[int]:
    """Row of each node through a node-id dict; a missing node is a ConsistencyError."""
    row_of = {int(n): i for i, n in enumerate(ids)}
    try:
        return [row_of[int(n)] for n in nodes]
    except KeyError as exc:
        raise ConsistencyError(f"no embedding row for node {exc}") from None


def last_time(edges: EdgeArray, node: int, fallback: float) -> float:
    """Latest timestamp over the edges touching ``node``, else ``fallback``."""
    touches = (edges.u == node) | (edges.v == node)
    return float(edges.t[touches].max()) if touches.any() else fallback


def flatten_layer(samples: dict[int, np.ndarray], ids,
                  edges: EdgeArray) -> list[tuple[int, int, int]]:
    """(segment, edge_position, neighbor_row) per sampled position, one at a
    time: anchors ascending, the segment of a position the index of its anchor
    among them, each anchor's positions in sample order."""
    anchors = sorted(samples)
    segments, positions, others = [], [], []
    for segment, anchor in enumerate(anchors):
        for position in samples[anchor]:
            position = int(position)
            u, v = int(edges.u[position]), int(edges.v[position])
            segments.append(segment)
            positions.append(position)
            others.append(v if u == anchor else u)
    return list(zip(segments, positions, dict_rows(ids, others)))


def active_nodes(seeds, layers: list[dict[int, np.ndarray]],
                 edges: EdgeArray) -> list[list[int]]:
    """Rows each layer needs, top-down, one at a time: element L is the sorted
    seeds, and element i - 1 adds to element i both endpoints of every position
    sampled for its anchors at layer i, so element i (i >= 1) is layer i's
    anchors and element 0 the rows layer 1 reads."""
    needed = [sorted({int(n) for n in seeds})]
    for samples in reversed(layers):
        below = set(needed[0])
        for anchor in needed[0]:
            for position in samples[anchor]:
                below.update((int(edges.u[position]), int(edges.v[position])))
        needed.insert(0, sorted(below))
    return needed


def layered_neighborhood(index: IncidenceIndex, seed_nodes, num_layers: int,
                         max_neighbors: int, rng_key: tuple[int, ...]) -> LayeredNeighborhood:
    """``build_layered_neighborhood`` one anchor at a time: every (layer,
    anchor) builds its Generator from ``rng_key + (layer, anchor)`` and goes
    through ``sample_neighbors``, whatever its degree."""
    edges = index.edges
    anchors = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    layers = []
    for layer in range(num_layers, 0, -1):
        samples = {anchor: sample_neighbors(index, anchor, max_neighbors,
                                            np.random.default_rng(rng_key + (layer, anchor)))
                   for anchor in anchors.tolist()}
        layers.insert(0, samples)
        sampled = np.concatenate([np.empty(0, dtype=np.int64), *samples.values()])
        anchors = np.union1d(anchors, np.concatenate([edges.u[sampled], edges.v[sampled]]))
    return LayeredNeighborhood(layers=layers, active_nodes=anchors)


def checkpoint_digest(params: dict[str, Tensor]) -> str:
    """Order-independent content hash of a parameter map."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].values.tobytes())
    return h.hexdigest()
