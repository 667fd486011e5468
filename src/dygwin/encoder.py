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
from .data import EdgeArray
from .errors import ConsistencyError, ContractError
from .features import Time2VecParams, WindowFeatureCache, init_time2vec, time2vec
from .tensor import Tensor
from .windows import build_layered_neighborhood

NEIGHBOR_STREAM = 11
DROPOUT_STREAM = 13


@dataclass
class LayerParams:
    w1: Tensor                # (node_dim, node_dim)
    wq: list[Tensor]          # per head (node_dim, head_dim)
    wk: list[Tensor]          # per head (message_dim, head_dim)
    wv: list[Tensor]          # per head (message_dim, head_dim)
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
            out[f"{prefix}/layer{i}/w1"] = layer.w1
            out[f"{prefix}/layer{i}/wo"] = layer.wo
            for h in range(len(layer.wq)):
                out[f"{prefix}/layer{i}/head{h}/wq"] = layer.wq[h]
                out[f"{prefix}/layer{i}/head{h}/wk"] = layer.wk[h]
                out[f"{prefix}/layer{i}/head{h}/wv"] = layer.wv[h]
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
    layers = []
    for _ in range(num_layers):
        layers.append(LayerParams(
            w1=T.xavier_uniform(rng, node_dim, node_dim, dtype=dtype),
            wq=[T.xavier_uniform(rng, node_dim, head_dim, dtype=dtype) for _ in range(heads)],
            wk=[T.xavier_uniform(rng, message_dim, head_dim, dtype=dtype) for _ in range(heads)],
            wv=[T.xavier_uniform(rng, message_dim, head_dim, dtype=dtype) for _ in range(heads)],
            wo=T.xavier_uniform(rng, heads * head_dim, node_dim, dtype=dtype),
        ))
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
        missing = ~np.isin(nodes, self.ids)
        if np.any(missing):
            raise ConsistencyError(f"no embedding row for node {nodes[missing][0]}")
        return np.searchsorted(self.ids, nodes)

    def gather(self, nodes) -> Tensor:
        return T.slice_rows(self.matrix, self.rows(nodes))


def _flatten_layer(samples: dict[int, np.ndarray], embeddings: NodeEmbeddings,
                   edges: EdgeArray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-anchor samples into (anchors, segment, edge_position,
    neighbor_row): anchors ascending, one segment (the index of its anchor)
    per sampled position, each anchor's positions in sample order, and
    neighbour rows in ``embeddings``."""
    keys = sorted(samples)
    positions = np.concatenate([np.empty(0, dtype=np.int64), *(samples[a] for a in keys)])
    segments = np.repeat(np.arange(len(keys)), [samples[a].size for a in keys])
    anchors = np.asarray(keys, dtype=np.int64)
    anchor_ids = anchors[segments]
    others = np.where(edges.u[positions] == anchor_ids, edges.v[positions], edges.u[positions])
    return anchors, segments, positions, embeddings.rows(others)


def layer_forward(embeddings: NodeEmbeddings, samples: dict[int, np.ndarray],
                  layer: LayerParams, params: EncoderParams, cache: WindowFeatureCache,
                  dropout_rng: np.random.Generator | None = None,
                  training: bool = False) -> NodeEmbeddings:
    """One attention layer from the input rows to one row per anchor of ``samples``.

    Sampled positions index ``cache.edges``. Anchors and their sampled
    neighbours must have input rows. An anchor with an empty sample (no
    incident edges) takes the bare ``h @ W1`` path; attention context is added
    for the rest. Output rows are invariant to each anchor's sample order.
    """
    edges = cache.edges
    anchors, segments, positions, neighbor_rows = _flatten_layer(samples, embeddings, edges)
    rows = embeddings.rows(anchors)
    H = embeddings.matrix
    # A request covering the window (training) makes every input row an anchor.
    H_out = H if rows.size == len(embeddings) else T.slice_rows(H, rows)
    h_new = T.matmul(H_out, layer.w1)
    if positions.size == 0:
        return NodeEmbeddings(anchors, h_new)

    # An anchor with a sampled position has an incident edge, so no fallback is read.
    delta = cache.index.last_time(anchors[segments], np.nan) - edges.t[positions]
    masked = edges.enc_masked[positions]

    counts = cache.counts_matrix(positions)
    counts[masked] = 0.0
    f = T.add(time2vec(params.t2v, delta),
              T.matmul(T.constant(np.log1p(counts), dtype=params.edge_enc.dtype),
                       params.edge_enc))
    message_parts = [T.slice_rows(H, neighbor_rows), f]
    if params.edge_dim > 0:
        feats = edges.feats[positions].astype(np.float64)
        feats[masked] = 0.0
        message_parts.append(T.constant(feats, dtype=H.dtype))
    messages = T.concat_last_dim(message_parts)            # (occurrences, message_dim)

    head_dim = layer.wq[0].shape[1]
    contexts = []
    for h in range(params.heads):
        q_all = T.matmul(H_out, layer.wq[h])
        q = T.slice_rows(q_all, segments)
        k = T.matmul(messages, layer.wk[h])
        v = T.matmul(messages, layer.wv[h])
        scores = T.scale(T.tensor_sum(T.mul(q, k), axis=1, keepdims=True),
                         1.0 / np.sqrt(head_dim))
        attn = T.segment_softmax(scores, segments)
        if params.dropout > 0.0 and training:
            attn = T.dropout(attn, params.dropout, dropout_rng, training=True)
        contexts.append(T.segment_sum(T.mul(attn, v), segments, len(anchors)))
    mha_out = T.matmul(T.concat_last_dim(contexts), layer.wo)
    return NodeEmbeddings(anchors, T.add(h_new, mha_out))


def encode(cache: WindowFeatureCache, params: EncoderParams, max_neighbors: int,
           rng_key: tuple[int, ...] | int, nodes,
           node_features: np.ndarray | None = None,
           training: bool = False) -> NodeEmbeddings:
    """Encode the slice ``cache.edges`` into embeddings of the requested nodes.

    Returns one row per distinct id in ``nodes``, ids ascending, and no other
    row. Layer i is computed only for the nodes within L - i sampled hops of
    the request, so each row equals the row a request of every window node
    gives, up to rounding. A requested node without edges in the slice takes
    the bare ``W1`` chain.
    """
    if isinstance(rng_key, int):
        rng_key = (rng_key,)
    requested = np.unique(np.asarray(nodes, dtype=np.int64))
    hood = build_layered_neighborhood(cache.index, requested, params.num_layers,
                                      max_neighbors, rng_key + (NEIGHBOR_STREAM,))
    active = hood.active_nodes

    if params.input_proj is not None:
        if node_features is None:
            raise ConsistencyError("encoder has an input projection but no node features given")
        h0 = T.matmul(T.constant(node_features[active], dtype=params.dtype), params.input_proj)
    else:
        h0 = T.constant(np.zeros((len(active), params.node_dim)), dtype=params.dtype)

    embeddings = NodeEmbeddings(active, h0)
    for i, layer in enumerate(params.layers):
        dropout_rng = np.random.default_rng(rng_key + (DROPOUT_STREAM, i)) \
            if training and params.dropout > 0.0 else None
        embeddings = layer_forward(embeddings, hood.layers[i], layer, params, cache,
                                   dropout_rng, training)
    return embeddings
