"""Window encoder: stacked multi-head temporal attention over sampled neighborhoods.

Message passing is flat: every layer aggregates from the same input slice.
A node's layer update is ``h = h_prev @ W1 + MHA(h_prev, messages)`` where
each message concatenates the neighbor's previous embedding, a relative
time encoding plus structural edge encoding, and the raw edge features.
One embedding matrix serves every prediction against the batch's targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import EdgeArray
from .errors import ConsistencyError, ContractError
from .features import (TemporalEdgeEncoding, Time2VecParams, WindowFeatureCache,
                       apply_count_scale, init_edge_encoding, init_time2vec, time2vec)
from .tensor import Tensor
from .windows import LayeredNeighborhood, WindowBatch, build_layered_neighborhood

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
    edge_enc: TemporalEdgeEncoding
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

    def named(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {
            f"{prefix}/time2vec/omega": self.t2v.omega,
            f"{prefix}/time2vec/phase": self.t2v.phase,
            f"{prefix}/edge_enc/w2": self.edge_enc.w2,
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
                 dropout: float = 0.1, edge_enc_scale: str = "log1p",
                 seed: int = 0, dtype=np.float32) -> EncoderParams:
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
                         edge_enc=init_edge_encoding(time_dim, rng, edge_enc_scale, dtype=dtype),
                         input_proj=input_proj, node_dim=node_dim, time_dim=time_dim,
                         edge_dim=edge_dim, heads=heads, dropout=dropout)


class NodeEmbeddings:
    """Embedding matrix with a node-id index; one row per tracked node."""

    def __init__(self, ids: np.ndarray, matrix: Tensor):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.matrix = matrix
        self._row = {int(n): i for i, n in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, node: int) -> int:
        try:
            return self._row[int(node)]
        except KeyError:
            raise ConsistencyError(f"no embedding row for node {node}") from None

    def rows(self, nodes) -> np.ndarray:
        return np.asarray([self.row(n) for n in np.asarray(nodes).ravel()], dtype=np.int64)

    def gather(self, nodes) -> Tensor:
        return T.slice_rows(self.matrix, self.rows(nodes))


def _flatten_layer(samples: dict[int, np.ndarray], embeddings: NodeEmbeddings,
                   edges: EdgeArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-anchor samples into (anchor_row, edge_position, neighbor_row)."""
    anchor_rows, positions, neighbor_rows = [], [], []
    for anchor in sorted(samples):
        sampled = samples[anchor]
        if sampled.size == 0:
            continue
        row = embeddings.row(anchor)
        for position in sampled:
            position = int(position)
            other = int(edges.v[position]) if int(edges.u[position]) == anchor else int(edges.u[position])
            anchor_rows.append(row)
            positions.append(position)
            neighbor_rows.append(embeddings.row(other))
    return (np.asarray(anchor_rows, dtype=np.int64),
            np.asarray(positions, dtype=np.int64),
            np.asarray(neighbor_rows, dtype=np.int64))


def layer_forward(embeddings: NodeEmbeddings, samples: dict[int, np.ndarray],
                  layer: LayerParams, params: EncoderParams, edges: EdgeArray,
                  cache: WindowFeatureCache, fallback_time: float,
                  dropout_rng: np.random.Generator | None = None,
                  training: bool = False) -> NodeEmbeddings:
    """One attention layer over every tracked node.

    Nodes without a sample this layer (no incident edges, or not yet an
    anchor) take the bare ``h @ W1`` path; attention context is added for
    the rest. Output rows are invariant to each anchor's sample order.
    """
    H = embeddings.matrix
    num_rows = len(embeddings)
    h_new = T.matmul(H, layer.w1)
    anchor_rows, positions, neighbor_rows = _flatten_layer(samples, embeddings, edges)
    if positions.size == 0:
        return NodeEmbeddings(embeddings.ids, h_new)

    recency = np.asarray([cache.recency(int(a), fallback_time)
                          for a in embeddings.ids[anchor_rows]], dtype=np.float64)
    delta = recency - edges.t[positions]
    masked = edges.enc_masked[positions]

    counts = cache.counts_matrix(positions)
    counts[masked] = 0.0
    f = T.add(time2vec(params.t2v, delta),
              T.matmul(T.constant(apply_count_scale(counts, params.edge_enc.scale),
                                  dtype=params.edge_enc.w2.dtype),
                       params.edge_enc.w2))
    message_parts = [T.slice_rows(H, neighbor_rows), f]
    if params.edge_dim > 0:
        feats = edges.feats[positions].astype(np.float64)
        feats[masked] = 0.0
        message_parts.append(T.constant(feats, dtype=H.dtype))
    messages = T.concat_last_dim(message_parts)            # (occurrences, message_dim)

    head_dim = layer.wq[0].shape[1]
    contexts = []
    for h in range(params.heads):
        q_all = T.matmul(H, layer.wq[h])
        q = T.slice_rows(q_all, anchor_rows)
        k = T.matmul(messages, layer.wk[h])
        v = T.matmul(messages, layer.wv[h])
        scores = T.scale(T.tensor_sum(T.mul(q, k), axis=1, keepdims=True),
                         1.0 / np.sqrt(head_dim))
        attn = T.segment_softmax(scores, anchor_rows)
        if params.dropout > 0.0 and training:
            attn = T.dropout(attn, params.dropout, dropout_rng, training=True)
        contexts.append(T.segment_sum(T.mul(attn, v), anchor_rows, num_rows))
    mha_out = T.matmul(T.concat_last_dim(contexts), layer.wo)
    return NodeEmbeddings(embeddings.ids, T.add(h_new, mha_out))


def window_end_time(batch: WindowBatch) -> float:
    if len(batch.input_edges):
        return float(batch.input_edges.t.max())
    if len(batch.target_edges):
        return float(batch.target_edges.t.min())
    return 0.0


def encode(batch: WindowBatch, params: EncoderParams, max_neighbors: int,
           rng_key: tuple[int, ...] | int, extra_nodes=(),
           input_override: EdgeArray | None = None,
           node_features: np.ndarray | None = None,
           training: bool = False,
           cache: WindowFeatureCache | None = None,
           hood: LayeredNeighborhood | None = None) -> NodeEmbeddings:
    """Encode one window into task-agnostic node embeddings.

    Rows cover every node in the input slice, the target endpoints, and
    ``extra_nodes`` (e.g. sampled negative destinations). Target edge
    content is never read; targets only contribute node ids. Pass
    ``input_override`` to encode a distorted view of the input slice.
    """
    if isinstance(rng_key, int):
        rng_key = (rng_key,)
    edges = batch.input_edges if input_override is None else input_override
    seed_pool = [edges.endpoints(), batch.target_edges.endpoints(),
                 np.asarray(list(extra_nodes), dtype=np.int64)]
    seeds = np.unique(np.concatenate(seed_pool)) if any(len(s) for s in seed_pool) \
        else np.empty(0, dtype=np.int64)
    if cache is None:
        cache = WindowFeatureCache(edges)
    if hood is None:
        hood = build_layered_neighborhood(edges, seeds, params.num_layers,
                                          max_neighbors, rng_key + (NEIGHBOR_STREAM,),
                                          index=cache.index)
    active = hood.active_nodes
    dtype = params.layers[0].w1.dtype

    if params.input_proj is not None:
        if node_features is None:
            raise ConsistencyError("encoder has an input projection but no node features given")
        h0 = T.matmul(T.constant(node_features[active], dtype=dtype), params.input_proj)
    else:
        h0 = T.constant(np.zeros((len(active), params.node_dim)), dtype=dtype)

    embeddings = NodeEmbeddings(active, h0)
    fallback = window_end_time(batch)
    for i, layer in enumerate(params.layers):
        dropout_rng = np.random.default_rng(rng_key + (DROPOUT_STREAM, i)) \
            if training and params.dropout > 0.0 else None
        embeddings = layer_forward(embeddings, hood.layers[i], layer, params,
                                   edges, cache, fallback, dropout_rng, training)
    return embeddings
