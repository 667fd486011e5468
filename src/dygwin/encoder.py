"""Window encoder: stacked multi-head temporal attention over sampled neighborhoods.

Message passing is flat: every layer aggregates from the same input slice.
A node's layer update is ``h = h_prev @ W1 + MHA(h_prev, messages)`` where
each message concatenates the neighbor's previous embedding, a relative
time encoding plus structural edge encoding, and the raw edge features.
Each layer is computed only for the receptive field of the rows a caller
requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConsistencyError, ContractError
from .features import Time2VecParams, WindowFeatureCache, init_time2vec, time2vec
from .tensor import Tensor
from .windows import IncidenceIndex, LayeredNeighborhood, build_layered_neighborhood

NEIGHBOR_STREAM = 11
DROPOUT_STREAM = 13


@dataclass
class LayerParams:
    w1: Tensor                # (node_dim, node_dim)
    wq: Tensor                # (node_dim, heads * head_dim), one column block per head
    wk: Tensor                # (message_dim, heads * head_dim)
    wv: Tensor                # (message_dim, heads * head_dim)
    wo: Tensor                # (heads * head_dim, node_dim)


@dataclass
class EncoderParams:
    layers: list[LayerParams]
    t2v: Time2VecParams
    edge_enc: Tensor          # (3, time_dim): log1p [deg_u, deg_v, common] -> time width
    input_proj: Tensor | None
    node_dim: int
    time_dim: int
    edge_dim: int
    heads: int
    dropout: float

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def message_dim(self) -> int:
        return self.node_dim + self.time_dim + self.edge_dim

    @property
    def dtype(self):
        return self.t2v.omega.dtype

    def named(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {
            f"{prefix}/time2vec/omega": self.t2v.omega,
            f"{prefix}/time2vec/phase": self.t2v.phase,
            f"{prefix}/edge_enc/w2": self.edge_enc,
        }
        if self.input_proj is not None:
            out[f"{prefix}/input_proj"] = self.input_proj
        for i, layer in enumerate(self.layers):
            out.update({f"{prefix}/layer{i}/{name}": p for name, p in vars(layer).items()})
        return out

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.named().values():
            p.requires_grad = flag


def init_encoder(num_layers: int = 3, node_dim: int = 100, time_dim: int = 100,
                 edge_dim: int = 0, node_feature_dim: int = 0, heads: int = 2,
                 dropout: float = 0.1, seed: int = 0, dtype=np.float32) -> EncoderParams:
    if node_dim % heads != 0:
        raise ContractError(f"head count {heads} must divide node_dim {node_dim}")
    rng = np.random.default_rng((seed, 17))
    head_dim = node_dim // heads
    message_dim = node_dim + time_dim + edge_dim

    def per_head(fan_in: int) -> Tensor:  # each head's block drawn at its own fan-out
        return T.parameter(np.hstack([T.xavier_uniform(rng, fan_in, head_dim, dtype=dtype).values
                                      for _ in range(heads)]))

    layers = [LayerParams(w1=T.xavier_uniform(rng, node_dim, node_dim, dtype=dtype),
                          wq=per_head(node_dim), wk=per_head(message_dim), wv=per_head(message_dim),
                          wo=T.xavier_uniform(rng, heads * head_dim, node_dim, dtype=dtype))
              for _ in range(num_layers)]
    input_proj = (T.xavier_uniform(rng, node_feature_dim, node_dim, dtype=dtype)
                  if node_feature_dim > 0 else None)
    return EncoderParams(layers=layers, t2v=init_time2vec(time_dim, dtype=dtype),
                         edge_enc=T.xavier_uniform(rng, 3, time_dim, dtype=dtype),
                         input_proj=input_proj, node_dim=node_dim, time_dim=time_dim,
                         edge_dim=edge_dim, heads=heads, dropout=dropout)


class NodeEmbeddings:
    """Embedding matrix with one row per tracked node, ids strictly ascending."""

    def __init__(self, ids: np.ndarray, matrix: Tensor):
        self.ids = np.asarray(ids, dtype=np.int64)
        if np.any(np.diff(self.ids) <= 0):
            raise ContractError("embedding node ids must be strictly ascending")
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, nodes) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        rows = np.searchsorted(self.ids, nodes)
        missing = np.append(self.ids, -1)[rows] != nodes  # a node past the last id reads -1
        if np.any(missing):
            raise ConsistencyError(f"no embedding row for node {nodes[missing][0]}")
        return rows

    def gather(self, nodes) -> Tensor:
        return T.slice_rows(self.matrix, self.rows(nodes))


def _flatten_layer(samples: dict[int, np.ndarray], index: IncidenceIndex
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-anchor samples into (anchors, segment, edge_position,
    neighbor): anchors ascending, one segment (the index of its anchor) per
    sampled position, each anchor's positions in sample order, and the row id
    of each position's other endpoint in its anchor's window."""
    keys = sorted(samples)
    positions = np.concatenate([np.empty(0, dtype=np.int64), *(samples[a] for a in keys)])
    segments = np.repeat(np.arange(len(keys)), [samples[a].size for a in keys])
    anchors = np.asarray(keys, dtype=np.int64)
    slots, nodes = np.divmod(anchors[segments], index.stride)
    u, v = index.edges.u[positions], index.edges.v[positions]
    return anchors, segments, positions, np.where(u == nodes, v, u) + slots * index.stride


def message_counts(cache: WindowFeatureCache, hood: LayeredNeighborhood) -> list[np.ndarray]:
    """Each layer's (deg_u, deg_v, common) rows, in ``_flatten_layer`` order, from
    one ``counts_matrix`` call per window on its positions over all layers."""
    index = cache.index
    # Anchors ascend, so a window's messages are one block of each layer.
    bounds = [np.searchsorted(slots, np.arange(len(index.lo) + 1)) for slots in hood.slots]
    counts = [np.empty((positions.size, 3)) for positions in hood.positions]
    for slot, lo in enumerate(index.lo.tolist()):
        parts = [slice(b[slot], b[slot + 1]) for b in bounds]
        positions = np.concatenate([p[part] for p, part in zip(hood.positions, parts)])
        if positions.size == 0:
            continue
        union, inverse = np.unique(positions, return_inverse=True)
        rows, start = cache.window(slot).counts_matrix(union - lo)[inverse], 0
        for out, part in zip(counts, parts):
            out[part] = rows[start:start + part.stop - part.start]
            start += part.stop - part.start
    return counts


def layer_forward(embeddings: NodeEmbeddings, samples: dict[int, np.ndarray],
                  layer: LayerParams, params: EncoderParams, index: IncidenceIndex,
                  counts: np.ndarray, dropout_rng: np.random.Generator | None = None,
                  training: bool = False) -> NodeEmbeddings:
    """One attention layer from the input rows to one row per anchor of ``samples``.

    Anchors are row ids of ``index`` and sampled positions index its log;
    ``counts`` holds each message's structural counts in ``_flatten_layer``
    order. Anchors and their sampled neighbours must have input rows. An
    anchor with an empty sample (no incident edges) takes the bare ``h @ W1``
    path; attention context is added for the rest. Output rows are invariant
    to each anchor's sample order.
    """
    edges = index.edges
    anchors, segments, positions, neighbors = _flatten_layer(samples, index)
    rows = embeddings.rows(anchors)
    H = embeddings.matrix
    # A request covering the window (training) makes every input row an anchor.
    H_out = H if rows.size == len(embeddings) else T.slice_rows(H, rows)
    h_new = T.matmul(H_out, layer.w1)
    if positions.size == 0:
        return NodeEmbeddings(anchors, h_new)

    # An anchor with a sampled position has an incident edge, so no fallback is read.
    delta = index.last_time(anchors, np.nan)[segments] - edges.t[positions]
    masked = edges.enc_masked[positions]

    counts = np.where(masked[:, None], 0.0, counts)
    f = T.add(time2vec(params.t2v, delta),
              T.matmul(T.constant(np.log1p(counts), dtype=params.edge_enc.dtype),
                       params.edge_enc))
    message_parts = [T.slice_rows(H, embeddings.rows(neighbors)), f]
    if params.edge_dim > 0:
        feats = edges.feats[positions].astype(np.float64)
        feats[masked] = 0.0
        message_parts.append(T.constant(feats, dtype=H.dtype))
    messages = T.concat_last_dim(message_parts)            # (occurrences, message_dim)

    dropout = (params.dropout, dropout_rng) if params.dropout > 0.0 and training else None
    context = T.segment_attention(T.matmul(H_out, layer.wq), T.matmul(messages, layer.wk),
                                  T.matmul(messages, layer.wv), segments, len(anchors),
                                  params.heads, dropout)
    return NodeEmbeddings(anchors, T.add(h_new, T.matmul(context, layer.wo)))


def encode(cache: WindowFeatureCache, params: EncoderParams, max_neighbors: int,
           rng_key, nodes, node_features: np.ndarray | None = None,
           training: bool = False) -> NodeEmbeddings:
    """Encode the windows of ``cache`` into embeddings of the requested rows.

    ``nodes`` are row ids of ``cache.index`` (node ids for a cache of one
    window), and window s draws from ``rng_key[s]`` (from ``rng_key`` for one
    window, the only form training takes). Returns one row per distinct
    requested id, ids ascending, and no other row. Layer i is computed only
    for the rows within L - i sampled hops of the request, so each row equals
    the row a request of every window node gives, up to rounding. A requested
    node without edges in its window takes the bare ``W1`` chain.
    """
    if isinstance(rng_key, int):
        rng_key = (rng_key,)
    keys = [rng_key] if isinstance(rng_key, tuple) else rng_key
    requested = np.unique(np.asarray(nodes, dtype=np.int64))
    hood = build_layered_neighborhood(cache.index, requested, params.num_layers, max_neighbors,
                                      [key + (NEIGHBOR_STREAM,) for key in keys])
    active = hood.active_nodes
    counts = message_counts(cache, hood)

    if params.input_proj is not None:
        if node_features is None:
            raise ConsistencyError("encoder has an input projection but no node features given")
        h0 = T.matmul(T.constant(node_features[active % cache.index.stride], dtype=params.dtype),
                      params.input_proj)
    else:
        h0 = T.constant(np.zeros((len(active), params.node_dim)), dtype=params.dtype)

    embeddings = NodeEmbeddings(active, h0)
    for i, layer in enumerate(params.layers):
        dropout_rng = np.random.default_rng(keys[0] + (DROPOUT_STREAM, i)) \
            if training and params.dropout > 0.0 else None
        embeddings = layer_forward(embeddings, hood.layers[i], layer, params, cache.index,
                                   counts[i], dropout_rng, training)
    return embeddings
