"""Single-item reference paths the batched encoder and counts are tested against.

Each function computes one anchor's attention or one edge's encoding the
direct way, so a test can compare it row by row with ``layer_forward`` and
``WindowFeatureCache.counts_matrix``.
"""

import numpy as np

import dygwin.tensor as T
from dygwin.data import EdgeArray
from dygwin.encoder import EncoderParams, LayerParams
from dygwin.errors import ContractError
from dygwin.features import (TemporalEdgeEncoding, apply_count_scale, common_neighbors_at,
                             time2vec)
from dygwin.tensor import Tensor
from dygwin.windows import IncidenceIndex


def edge_message(h_u_prev: Tensor, t_p: float, anchor_recency: float,
                 m_p: np.ndarray, params: EncoderParams,
                 counts=(0, 0, 0)) -> Tensor:
    """Single-edge message [h_neighbor || time-and-structure encoding || features]."""
    if anchor_recency < t_p:
        raise ContractError(f"anchor recency {anchor_recency} precedes edge time {t_p}")
    f = time2vec(params.t2v, anchor_recency - t_p)
    scaled = apply_count_scale(np.asarray(counts, dtype=np.float64).reshape(1, 3),
                               params.edge_enc.scale)
    f = T.add(f, T.matmul(T.constant(scaled, dtype=params.edge_enc.w2.dtype),
                          params.edge_enc.w2))
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
        attn = T.softmax_rows(scores)                       # (1, rows)
        if dropout_p > 0.0:
            attn = T.dropout(attn, dropout_p, rng, training=training)
        contexts.append(T.matmul(attn, v))                  # (1, head_dim)
    return T.matmul(T.concat_last_dim(contexts), layer.wo)


def encode_counts(enc: TemporalEdgeEncoding, counts: np.ndarray) -> Tensor:
    """Map a (rows, 3) count matrix through the learned bias-free projection."""
    scaled = apply_count_scale(np.asarray(counts, dtype=np.float64), enc.scale)
    return T.matmul(T.constant(scaled, dtype=enc.w2.dtype), enc.w2)


def edge_encoding(enc: TemporalEdgeEncoding, input_edges: EdgeArray,
                  u: int, v: int, t: float,
                  index: IncidenceIndex | None = None) -> Tensor:
    """Encoding vector for a (u, v, t) interaction; shape (1, dim)."""
    if index is None:
        index = IncidenceIndex(input_edges)
    counts = np.asarray([[index.degree_before(u, t),
                          index.degree_before(v, t),
                          common_neighbors_at(input_edges, u, v, t, index)]],
                        dtype=np.float64)
    return encode_counts(enc, counts)
