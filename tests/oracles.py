"""Single-item reference paths the batched encoder and counts are tested against.

Each function computes one anchor's attention, one edge's encoding, one
node's row, recency, degree or common neighbours, one sampled position,
one layer's receptive field or one anchor's draw the direct way, so a test
can compare it item by item with ``layer_forward``, ``NodeEmbeddings.rows``,
``IncidenceIndex.last_time``, ``build_layered_neighborhood`` and
``WindowFeatureCache.counts_at``. The ``sigmoid``, ``softmax_rows`` and
``columns`` primitives serve the reference ``mha`` and the gradient checks
only. ``mha`` attends one head at a time, on that head's column blocks of
the fused projections; ``segment_attention`` is one head, which tests apply
to each head's column blocks in turn. ``slice_rows``, ``segment_softmax_at``
and ``segment_sum_at`` scatter through ``np.add.at`` and ``np.maximum.at``,
one cell at a time, for comparison with the ``np.bincount`` forms of
``dygwin.tensor.slice_rows``, ``segment_softmax`` and ``segment_sum``. Those
two, ``cast``, ``wrap_angle`` and ``sin`` are unfused primitives:
``segment_attention`` and ``time_encoding`` compose them with
``dygwin.tensor``'s into references for the one-entry ops of the same names,
expression for expression.
``checkpoint_digest`` lets a test compare parameter maps by content.
``flp_scores_per_cut`` and ``dnc_scores_per_cut`` score an evaluation region
one cut at a time, each cut with a cache built from its own input slice, for
comparison with the batched passes of ``dygwin.downstream``.
"""

import hashlib

import numpy as np

import dygwin.tensor as T
from dygwin.data import CTDG, EdgeArray
from dygwin.downstream import (EVAL_ENC_STREAM, EVAL_NEG_STREAM, RANK_NEG_STREAM,
                               dnc_score, flp_score, sample_negatives)
from dygwin.encoder import EncoderParams, LayerParams, encode
from dygwin.errors import ConsistencyError, ContractError, ShapeError
from dygwin.features import WindowFeatureCache, time2vec
from dygwin.tensor import Tensor, _finish, _row_sum
from dygwin.windows import (IncidenceIndex, Interval, LayeredNeighborhood, make_window_batch,
                            sample_neighbors)


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


def segment_softmax_at(a: Tensor, segment_ids) -> Tensor:
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


def segment_sum_at(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    seg = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments, a.shape[1]), dtype=a.values.dtype)
    np.add.at(out, seg, a.values)

    def bwd(g):
        return (g[seg],)

    return _finish("segment_sum", (a,), out, bwd)


def cast(a: Tensor, dtype) -> Tensor:
    out = a.values.astype(dtype)

    def bwd(g):
        return (g.astype(a.dtype),)

    return _finish("cast", (a,), out, bwd)


def wrap_angle(a: Tensor) -> Tensor:
    """``a`` less its nearest multiple of 2 pi, with the gradient of the identity."""
    out = a.values + np.rint(a.values * (0.5 / np.pi)) * (-2.0 * np.pi)

    def bwd(g):
        return (g,)

    return _finish("wrap_angle", (a,), out, bwd)


def sin(a: Tensor) -> Tensor:
    out = np.sin(a.values)

    def bwd(g):
        return (g * np.cos(a.values),)

    return _finish("sin", (a,), out, bwd)


def segment_softmax(a: Tensor, segment_ids) -> Tensor:
    """Softmax along axis 0 within each segment id's rows, which must be contiguous."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2 or seg.shape != (a.shape[0],):
        raise ShapeError(
            f"segment_softmax: values {a.shape} vs segment ids {seg.shape}"
        )
    head = np.diff(seg, prepend=seg[:1] - 1) != 0
    starts = np.flatnonzero(head)
    if np.unique(seg[starts]).size < starts.size:
        raise ShapeError("segment_softmax: a segment id's rows are not contiguous")
    run = np.cumsum(head) - 1
    e = np.exp(a.values - np.maximum.reduceat(a.values, starts)[run])
    out = e / _row_sum(e, run, starts.size)[run]

    def bwd(g):
        return (out * (g - _row_sum(out * g, run, starts.size)[run]),)

    return _finish("segment_softmax", (a,), out, bwd)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows sharing a segment id; empty segments yield zero rows."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2 or seg.shape != (a.shape[0],):
        raise ShapeError(f"segment_sum: values {a.shape} vs segment ids {seg.shape}")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError("segment_sum: segment id outside [0, num_segments)")
    out = _row_sum(a.values, seg, num_segments)

    def bwd(g):
        return (g[seg],)

    return _finish("segment_sum", (a,), out, bwd)


def segment_attention(q_rows: Tensor, k: Tensor, v: Tensor, segments, num_segments: int,
                      scale, dropout=None) -> Tensor:
    """``T.segment_attention`` as eight primitives: gather, product, row sum,
    scale, segment softmax, dropout, product and segment sum."""
    q = T.slice_rows(q_rows, segments)
    scores = T.scale(T.tensor_sum(T.mul(q, k), axis=1, keepdims=True), scale)
    attn = segment_softmax(scores, segments)
    if dropout is not None:
        attn = T.dropout(attn, *dropout, training=True)
    return segment_sum(T.mul(attn, v), segments, num_segments)


def time_encoding(dt: np.ndarray, omega: Tensor, phase: Tensor) -> Tensor:
    """``T.time_encoding`` composed from primitives: float64 angles from the
    parameters cast up, then the angles cast to the parameters' dtype times a
    one-hot mask of column 0, plus their sine times its complement. The sine
    takes the float64 angles for float64 parameters, and otherwise the angles
    wrapped to [-pi, pi] and cast down."""
    angles = T.add(T.matmul(T.constant(dt, dtype=np.float64), cast(omega, np.float64)),
                   cast(phase, np.float64))
    wrapped = angles if omega.dtype == np.float64 else cast(wrap_angle(angles), omega.dtype)
    linear_mask = np.zeros((1, omega.shape[1]), dtype=omega.dtype)
    linear_mask[0, 0] = 1.0
    return T.add(T.mul(cast(angles, omega.dtype), T.constant(linear_mask)),
                 T.mul(sin(wrapped), T.constant(1.0 - linear_mask)))


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


def columns(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of a 2-d tensor; backward pads its gradient with zeros."""
    def bwd(g):
        full = np.zeros(a.shape, dtype=np.result_type(a.dtype, g.dtype))
        full[:, start:stop] = g
        return (full,)

    return _finish("columns", (a,), a.values[:, start:stop].copy(), bwd)


def mha(query: Tensor, keys: Tensor | None, layer: LayerParams, heads: int,
        dropout_p: float = 0.0, rng: np.random.Generator | None = None,
        training: bool = False) -> Tensor:
    """Reference multi-head scaled dot-product attention for one anchor, one
    head at a time: head h projects through the h-th column block of
    ``layer.wq``, ``wk`` and ``wv``.

    ``keys`` holds one message per row and doubles as the values; an empty
    or missing key set yields the zero vector.
    """
    node_dim = layer.w1.shape[0]
    if keys is None or keys.shape[0] == 0:
        return T.constant(np.zeros((1, node_dim)), dtype=query.dtype)
    head_dim = layer.wq.shape[1] // heads
    contexts = []
    for h in range(heads):
        block = (h * head_dim, (h + 1) * head_dim)
        q = T.matmul(query, columns(layer.wq, *block))      # (1, head_dim)
        k = T.matmul(keys, columns(layer.wk, *block))       # (rows, head_dim)
        v = T.matmul(keys, columns(layer.wv, *block))
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
    layers, positions = [], []
    for layer in range(num_layers, 0, -1):
        samples = {anchor: sample_neighbors(index, anchor, max_neighbors,
                                            np.random.default_rng(rng_key + (layer, anchor)))
                   for anchor in anchors.tolist()}
        layers.insert(0, samples)
        sampled = np.concatenate([np.empty(0, dtype=np.int64), *samples.values()])
        positions.insert(0, sampled)
        anchors = np.union1d(anchors, np.concatenate([edges.u[sampled], edges.v[sampled]]))
    return LayeredNeighborhood(layers, anchors, positions,
                               [np.zeros(p.size, dtype=np.int64) for p in positions])


def checkpoint_digest(params: dict[str, Tensor]) -> str:
    """Order-independent content hash of a parameter map."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].values.tobytes())
    return h.hexdigest()


def evaluation_windows(ctdg: CTDG, region_start: int, region_end: int, window: int,
                       horizon: int, target_filter=None):
    """Target windows of size ``horizon`` tiling [region_start, region_end), one
    input slice each, yielded one at a time; a window with no target left is
    skipped."""
    for cut in range(region_start, region_end, horizon):
        batch = make_window_batch(ctdg, Interval(max(0, cut - window), cut),
                                  min(horizon, region_end - cut))
        if target_filter is not None:
            batch.target_edges = batch.target_edges.take(target_filter(batch.target_edges))
        if len(batch.target_edges):
            yield batch


def flp_scores_per_cut(ctdg, region, encoder, decoder, window, horizon, max_neighbors, seed,
                       target_filter=None, rank_negatives=0):
    """``downstream.flp_scores`` one cut at a time."""
    pos_scores, neg_scores = [np.empty(0)], [np.empty(0)]
    rank_scores = [np.empty((0, rank_negatives))]
    for batch in evaluation_windows(ctdg, region[0], region[1], window, horizon,
                                    target_filter):
        targets = batch.target_edges
        cut = batch.interval.end
        cache = WindowFeatureCache(batch.input_edges)
        neg_rng = np.random.default_rng((seed, EVAL_NEG_STREAM, cut))
        negatives = sample_negatives(targets, neg_rng, ctdg.num_nodes)
        rank_neg = np.empty(0, dtype=np.int64)
        if rank_negatives > 0:
            rank_rng = np.random.default_rng((seed, RANK_NEG_STREAM, cut))
            rank_neg = sample_negatives(targets, rank_rng, ctdg.num_nodes, rank_negatives)
        scored = np.concatenate([targets.u, targets.v, negatives.ravel(), rank_neg.ravel()])
        embeddings = encode(cache, encoder, max_neighbors, (seed, EVAL_ENC_STREAM, cut),
                            scored, node_features=ctdg.node_features)
        pos_scores.append(flp_score(decoder, embeddings, targets.u, targets.v, targets.t,
                                    cache).values.ravel())
        neg_scores.append(flp_score(decoder, embeddings, targets.u, negatives.ravel(),
                                    targets.t, cache).values.ravel())
        if rank_negatives > 0:
            rank_scores.append(flp_score(decoder, embeddings,
                                         np.repeat(targets.u, rank_negatives), rank_neg.ravel(),
                                         np.repeat(targets.t, rank_negatives),
                                         cache).values.reshape(len(targets), rank_negatives))
    return np.concatenate(pos_scores), np.concatenate(neg_scores), np.concatenate(rank_scores)


def dnc_scores_per_cut(ctdg, region, encoder, decoder, window, horizon, max_neighbors, seed,
                       target_filter=None):
    """``downstream.dnc_scores`` one cut at a time."""
    scores, labels = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for batch in evaluation_windows(ctdg, region[0], region[1], window, horizon,
                                    target_filter):
        labeled = batch.target_edges.take(batch.target_edges.label_present)
        if len(labeled) == 0:
            continue
        cut = batch.interval.end
        cache = WindowFeatureCache(batch.input_edges)
        embeddings = encode(cache, encoder, max_neighbors, (seed, EVAL_ENC_STREAM, cut),
                            labeled.u, node_features=ctdg.node_features)
        scores.append(dnc_score(decoder, embeddings, labeled.u, labeled.t, cache,
                                training=False).values.ravel())
        labels.append((labeled.labels > 0.5).astype(np.int64))
    return np.concatenate(scores), np.concatenate(labels)
