"""Single-item reference paths the batched encoder and counts are tested against.

Each function computes one anchor's attention, one edge's encoding, one
node's row, recency, degree or common neighbours, one sampled position,
one layer's receptive field or one anchor's keyed sample the direct way, so
a test can compare it item by item with ``layer_forward``, ``NodeEmbeddings.rows``,
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
``messages`` is ``EdgeEncodingTable.messages`` composed the way each layer
built its keys and values before one entry kept no message matrix:
``slice_rows``, the table rows as one ``edge_encoding`` entry
(``table_gather``), ``concat_last_dim`` and one ``matmul`` per weight.
``layer_edge_encoding`` encodes one layer's messages the way each layer did
before ``encoder.edge_table`` shared one table among them, and
``per_layer_edge_table`` puts it in that function's place, with the composed
messages, so a test can compare ``encode``'s rows and gradients with the
per-layer path.
``checkpoint_digest`` lets a test compare parameter maps by content.
``region_scores_per_cut`` scores an evaluation region one cut at a time, each
cut with a cache built from its own input slice and its own candidate table in
its own decoder call, for comparison with the batched passes of
``dygwin.downstream``.
"""

import hashlib

import numpy as np

import dygwin.tensor as T
from dygwin.data import CTDG, EdgeArray
from dygwin.downstream import (EVAL_ENC_STREAM, EVAL_NEG_STREAM, RANK_NEG_STREAM, candidates,
                               score)
from dygwin.encoder import EncoderParams, LayerParams, encode
from dygwin.errors import ConsistencyError, ContractError, ShapeError
from dygwin.features import WindowFeatureCache, time2vec
from dygwin.pretrain import (COVARIANCE_WEIGHT, INVARIANCE_WEIGHT, VARIANCE_EPS,
                             VARIANCE_TARGET, VARIANCE_WEIGHT)
from dygwin.tensor import Tensor, _finish, _row_sum
from dygwin.keyed import keyed_uniform
from dygwin.windows import IncidenceIndex, LayeredNeighborhood, LayerSamples


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


# Elementwise and reduction ops that the VICReg loss was once composed from.
# They call ``T._finish`` through the module, so the test suite's checks on it
# cover them.

def sub(a: Tensor, b: Tensor) -> Tensor:
    T._check_broadcast("sub", a, b)
    out = a.values - b.values

    def bwd(g):
        return (T._unbroadcast(g, a.shape) if a.requires_grad else None,
                T._unbroadcast(-g, b.shape) if b.requires_grad else None)

    return T._finish("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    T._check_broadcast("mul", a, b)
    out = a.values * b.values

    def bwd(g):
        return (T._unbroadcast(g * b.values, a.shape) if a.requires_grad else None,
                T._unbroadcast(g * a.values, b.shape) if b.requires_grad else None)

    return T._finish("mul", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.values * c

    def bwd(g):
        return (g * c,)

    return T._finish("scale", (a,), out, bwd)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)

    def bwd(g):
        return (g * 0.5 / out,)

    return T._finish("sqrt", (a,), out, bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.mean(axis=axis, keepdims=keepdims)
    count = a.values.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return T._finish("mean", (a,), np.asarray(out), bwd)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return T._finish("sum", (a,), np.asarray(out), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got shape {a.shape}")
    out = a.values.T.copy()

    def bwd(g):
        return (g.T.copy(),)

    return T._finish("transpose", (a,), out, bwd)


def vicreg_variance(z: Tensor) -> Tensor:
    """Hinge on the regularized per-dimension standard deviation (population)."""
    n, d = z.shape
    if n < 2:
        raise ContractError(f"variance term needs at least 2 rows, got {n}")
    centered = sub(z, mean(z, axis=0, keepdims=True))
    var = mean(mul(centered, centered), axis=0, keepdims=True)
    std = sqrt(T.add(var, T.constant(np.full((1, d), VARIANCE_EPS), dtype=z.dtype)))
    hinge = T.relu(sub(T.constant(np.full((1, d), VARIANCE_TARGET), dtype=z.dtype), std))
    return mean(hinge)


def vicreg_covariance(z: Tensor) -> Tensor:
    """Sum of squared off-diagonal entries of the (1/n) covariance matrix,
    divided by the representation dimension."""
    n, d = z.shape
    if n < 2:
        raise ContractError(f"covariance term needs at least 2 rows, got {n}")
    centered = sub(z, mean(z, axis=0, keepdims=True))
    cov = scale(T.matmul(transpose(centered), centered), 1.0 / n)
    off_diagonal = T.constant(1.0 - np.eye(d), dtype=z.dtype)
    return scale(tensor_sum(mul(mul(cov, cov), off_diagonal)), 1.0 / d)


def vicreg_invariance(z_a: Tensor, z_b: Tensor) -> Tensor:
    """Mean squared euclidean distance between paired rows."""
    if z_a.shape != z_b.shape:
        raise ContractError(f"invariance term: shapes {z_a.shape} vs {z_b.shape}")
    diff = sub(z_a, z_b)
    return scale(tensor_sum(mul(diff, diff)), 1.0 / z_a.shape[0])


def vicreg_loss(z_a: Tensor, z_b: Tensor) -> tuple[Tensor, dict[str, float]]:
    """``pretrain.ssl_loss_terms`` composed from the three terms: 47 tape entries."""
    s = vicreg_invariance(z_a, z_b)
    v_a, v_b = vicreg_variance(z_a), vicreg_variance(z_b)
    c_a, c_b = vicreg_covariance(z_a), vicreg_covariance(z_b)
    loss = T.add(T.add(scale(s, INVARIANCE_WEIGHT), scale(T.add(v_a, v_b), VARIANCE_WEIGHT)),
                 scale(T.add(c_a, c_b), COVARIANCE_WEIGHT))
    return loss, {"s": s.item(), "v": v_a.item() + v_b.item(), "c": c_a.item() + c_b.item()}


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
                      factor, dropout=None) -> Tensor:
    """``T.segment_attention`` as eight primitives: gather, product, row sum,
    scale, segment softmax, dropout mask product (``dropout = (p, u)``, ``u``
    one column), product and segment sum."""
    q = T.slice_rows(q_rows, segments)
    scores = scale(tensor_sum(mul(q, k), axis=1, keepdims=True), factor)
    attn = segment_softmax(scores, segments)
    if dropout is not None:
        p, u = dropout
        attn = mul(attn, T.constant((u >= p).astype(attn.dtype) / (1.0 - p), dtype=attn.dtype))
    return segment_sum(mul(attn, v), segments, num_segments)


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
    return T.add(mul(cast(angles, omega.dtype), T.constant(linear_mask)),
                 mul(sin(wrapped), T.constant(1.0 - linear_mask)))


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


def mha(query: Tensor, keys: Tensor | None, layer: LayerParams, heads: int) -> Tensor:
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
        scores = scale(T.matmul(q, transpose(k)), 1.0 / np.sqrt(head_dim))
        attn = softmax_rows(scores)                         # (1, rows)
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


def flatten_layer(samples: dict[int, np.ndarray]) -> list[tuple[int, int, int]]:
    """(anchor, segment, edge_position) per sampled position, one at a time:
    anchors ascending, the segment of a position the index of its anchor among
    them, each anchor's positions in sample order."""
    return [(anchor, segment, int(position))
            for segment, anchor in enumerate(sorted(samples)) for position in samples[anchor]]


def neighbors(samples: dict[int, np.ndarray], edges: EdgeArray) -> list[int]:
    """The other endpoint of each sampled position, in ``flatten_layer`` order."""
    others = []
    for anchor, _, position in flatten_layer(samples):
        u, v = int(edges.u[position]), int(edges.v[position])
        others.append(v if u == anchor else u)
    return others


def sample_dict(samples: LayerSamples) -> dict[int, np.ndarray]:
    """A ``LayerSamples`` as the dict of each anchor to its positions, anchors ascending."""
    return dict(zip(samples.anchors.tolist(), samples.values()))


def layer_samples(samples: dict[int, np.ndarray]) -> LayerSamples:
    """A per-anchor sample dict as the flat ``LayerSamples`` of its sorted anchors."""
    anchors = sorted(samples)
    return LayerSamples(np.asarray(anchors, dtype=np.int64),
                        np.asarray([samples[a].size for a in anchors], dtype=np.int64),
                        np.concatenate([np.empty(0, dtype=np.int64),
                                        *(samples[a] for a in anchors)]))


def layer_edge_encoding(cache: WindowFeatureCache, params: EncoderParams,
                        samples: LayerSamples) -> Tensor:
    """One layer's time-and-structure encodings, one row per message, the way
    each layer computed them before the shared table: its own counts per window,
    ``time2vec`` of its gaps plus ``log1p(counts) @ edge_enc``, three tape entries."""
    index, edges, positions = cache.index, cache.index.edges, samples.positions
    anchors = samples.anchors[samples.segments]
    counts = np.empty((positions.size, 3))
    for slot in np.unique(anchors // index.stride).tolist():
        block = anchors // index.stride == slot
        counts[block] = cache.window(slot).counts_matrix(positions[block] - index.lo[slot])
    counts = np.where(edges.enc_masked[positions][:, None], 0.0, counts)
    delta = index.last_time(anchors, np.nan) - edges.t[positions]
    return T.add(time2vec(params.t2v, delta),
                 T.matmul(T.constant(np.log1p(counts), dtype=params.edge_enc.dtype),
                          params.edge_enc))


def table_gather(table: T.EdgeEncodingTable, rows: np.ndarray) -> Tensor:
    """Rows ``rows`` of ``table`` as one ``edge_encoding`` entry, whose backward
    gathers the cosines, gaps and log-counts at ``rows``; the constant columns
    get no gradient."""
    omega, phase, w = table.params

    def bwd(g):
        g = g[:, :w.shape[1]]
        return (*T._time2vec_grads(g, table.cos[rows], table.dt[rows], omega, phase),
                table.log_counts[rows].T @ g if w.requires_grad else None)

    return _finish("edge_encoding", table.params, table.values[rows], bwd)


def compose_messages(h: Tensor | None, node_rows, encoded: Tensor, wk: Tensor | None,
                     wv: Tensor) -> Tensor:
    """Keys and values of the messages ``[h[node_rows] | encoded]`` (zero node
    columns when ``h`` is None, which takes values alone) through the message
    matrix: ``slice_rows``, ``concat_last_dim``, then ``@ wk`` and ``@ wv``."""
    node = (T.constant(np.zeros((encoded.shape[0], wv.shape[0] - encoded.shape[1]),
                                encoded.dtype)) if h is None else T.slice_rows(h, node_rows))
    m = T.concat_last_dim([node, encoded])
    return T.matmul(m, wv) if h is None else T.concat_last_dim([T.matmul(m, wk), T.matmul(m, wv)])


def messages(table: T.EdgeEncodingTable, h: Tensor | None, node_rows, rows: np.ndarray,
             wk: Tensor | None, wv: Tensor) -> Tensor:
    """``table.messages`` composed from ``table_gather`` and the message matrix."""
    return compose_messages(h, node_rows, table_gather(table, rows), wk, wv)


class PerLayerEdgeTable:
    """Stands in for ``encoder.edge_table``'s result: ``messages(h, node_rows, i,
    wk, wv)`` computes layer i's encodings through ``layer_edge_encoding``, then
    its masked edge features as a constant concatenated after them, and composes
    the keys and values from them (``compose_messages``)."""

    def __init__(self, cache: WindowFeatureCache, params: EncoderParams,
                 hood: LayeredNeighborhood):
        self.cache, self.params, self.hood = cache, params, hood

    def gather(self, layer: int) -> Tensor:
        samples, edges = self.hood.layers[layer], self.cache.index.edges
        encoded = layer_edge_encoding(self.cache, self.params, samples)
        if self.params.edge_dim == 0:
            return encoded
        feats = edges.feats[samples.positions].astype(np.float64)
        feats[edges.enc_masked[samples.positions]] = 0.0
        return T.concat_last_dim([encoded, T.constant(feats, dtype=self.params.dtype)])

    def messages(self, h: Tensor | None, node_rows, layer: int, wk: Tensor | None,
                 wv: Tensor) -> Tensor:
        return compose_messages(h, node_rows, self.gather(layer), wk, wv)


def per_layer_edge_table(cache, params, hood) -> tuple[PerLayerEdgeTable, list[int]]:
    """A drop-in ``encoder.edge_table`` whose layers encode their own messages."""
    return PerLayerEdgeTable(cache, params, hood), list(range(len(hood.layers)))


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


def sample_neighbors(index: IncidenceIndex, anchor: int, max_neighbors: int, word,
                     layer: int) -> np.ndarray:
    """One anchor's keyed sample: its whole incident run if at most
    ``max_neighbors`` long, else the first ``max_neighbors`` of the run sorted
    by ``keyed_uniform(word, layer, node, window position)``, ascending."""
    slot, node = divmod(anchor, index.stride)
    positions = index.incident(anchor)
    if positions.size <= max_neighbors:
        return positions
    priority = keyed_uniform(np.uint64(word), layer, node, positions - index.lo[slot])
    return np.sort(positions[np.argsort(priority, kind="stable")[:max_neighbors]])


def layered_neighborhood(index: IncidenceIndex, seed_nodes, num_layers: int,
                         max_neighbors: int, rng_key: tuple[int, ...]) -> LayeredNeighborhood:
    """``build_layered_neighborhood`` of one window, one anchor at a time through
    ``sample_neighbors``, with the window's word from ``SeedSequence(rng_key)``;
    each layer is a per-anchor dict, anchors ascending."""
    edges = index.edges
    word = np.random.SeedSequence(rng_key).generate_state(1, np.uint64)[0]
    anchors = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    layers = []
    for layer in range(num_layers, 0, -1):
        samples = {anchor: sample_neighbors(index, anchor, max_neighbors, word, layer)
                   for anchor in anchors.tolist()}
        layers.insert(0, samples)
        sampled = np.concatenate([np.empty(0, dtype=np.int64), *samples.values()])
        anchors = np.union1d(anchors, np.concatenate([edges.u[sampled], edges.v[sampled]]))
    return LayeredNeighborhood(layers, anchors)


def checkpoint_digest(params: dict[str, Tensor]) -> str:
    """Order-independent content hash of a parameter map."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].values.tobytes())
    return h.hexdigest()


def evaluation_windows(ctdg: CTDG, region_start: int, region_end: int, window: int,
                       horizon: int, target_filter=None):
    """Target windows of size ``horizon`` tiling [region_start, region_end), as
    (cut, input slice, targets), one at a time; a window with no target left
    is skipped."""
    for cut in range(region_start, region_end, horizon):
        targets = ctdg.window(cut, min(cut + horizon, region_end))
        if target_filter is not None:
            targets = targets.take(target_filter(targets))
        if len(targets):
            yield cut, ctdg.window(max(0, cut - window), cut), targets


def region_scores_per_cut(task, ctdg, region, encoder, decoder, window, horizon, max_neighbors,
                          seed, target_filter=None, rank_negatives=0):
    """``downstream.region_scores`` one cut at a time: each cut's candidate table
    decoded in its own call."""
    scores, kinds = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for cut, input_edges, targets in evaluation_windows(ctdg, region[0], region[1], window,
                                                        horizon, target_filter):
        rank_rng = np.random.default_rng((seed, RANK_NEG_STREAM, cut))
        src, dst, t, kind = candidates(task, targets, ctdg.num_nodes,
                                       np.random.default_rng((seed, EVAL_NEG_STREAM, cut)),
                                       rank_rng, rank_negatives)
        if src.size == 0:
            continue
        cache = WindowFeatureCache(input_edges)  # a fresh cache per cut: the reference
        embeddings = encode(cache, encoder, max_neighbors, (seed, EVAL_ENC_STREAM, cut),
                            np.concatenate([src, dst]), node_features=ctdg.node_features)
        scores.append(score(task, decoder, embeddings, src, dst, t, cache).values.ravel())
        kinds.append(kind)
    return np.concatenate(scores), np.concatenate(kinds)
