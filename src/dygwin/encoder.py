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
from .features import Time2VecParams, WindowFeatureCache, init_time2vec
from .keyed import key_words, keyed_uniform
from .tensor import Tensor
from .windows import IncidenceIndex, LayeredNeighborhood, LayerSamples, build_layered_neighborhood

NEIGHBOR_STREAM = 11


@dataclass
class LayerParams:  # w1, wq and wk are None where the input rows are all zero
    w1: Tensor | None         # (node_dim, node_dim)
    wq: Tensor | None         # (node_dim, heads * head_dim), one column block per head
    wk: Tensor | None         # (message_dim, heads * head_dim)
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
            out.update({f"{prefix}/layer{i}/{name}": p for name, p in vars(layer).items()
                        if p is not None})
        return out

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.named().values():
            p.requires_grad = flag


def init_encoder(num_layers: int = 3, node_dim: int = 100, time_dim: int = 100,
                 edge_dim: int = 0, node_feature_dim: int = 0, heads: int = 2,
                 dropout: float = 0.1, seed: int = 0, dtype=np.float32) -> EncoderParams:
    if num_layers < 1:
        raise ContractError(f"an encoder needs at least one layer, got {num_layers}")
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
    if input_proj is None:  # zero input rows: layer 0 reads only wv and wo; the
        layers[0].w1 = layers[0].wq = layers[0].wk = None  # rest are drawn to keep later draws
    return EncoderParams(layers=layers, t2v=init_time2vec(time_dim, dtype=dtype),
                         edge_enc=T.xavier_uniform(rng, 3, time_dim, dtype=dtype),
                         input_proj=input_proj, node_dim=node_dim, time_dim=time_dim,
                         edge_dim=edge_dim, heads=heads, dropout=dropout)


class NodeEmbeddings:
    """Embedding matrix with one row per tracked node, ids strictly ascending;
    ``matrix`` None stands for all-zero rows (an encoder's featureless input)."""

    def __init__(self, ids: np.ndarray, matrix: Tensor | None):
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


def edge_table(cache: WindowFeatureCache, params: EncoderParams, hood: LayeredNeighborhood
               ) -> tuple[T.EdgeEncodingTable, list[np.ndarray]]:
    """The time-and-structure encoding and masked edge features of each distinct
    message of ``hood``, keyed by anchor rank in ``hood.active_nodes`` times E + 1
    plus position (E edges in the log), and each layer's rows into them; a
    window's counts come from one ``counts_matrix`` call."""
    index, edges, span = cache.index, cache.index.edges, len(cache.index.edges) + 1
    keys = [np.searchsorted(hood.active_nodes, s.anchors)[s.segments] * span + s.positions
            for s in hood.layers]
    pairs, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    anchors, positions = hood.active_nodes[pairs // span], pairs % span
    # Row ids ascend by window, so a window's pairs are one block.
    bounds = np.searchsorted(anchors // index.stride, np.arange(len(index.lo) + 1)).tolist()
    counts = np.empty((pairs.size, 3))
    for slot, lo in enumerate(index.lo.tolist()):
        block = slice(bounds[slot], bounds[slot + 1])
        if block.start < block.stop:
            union, where = np.unique(positions[block], return_inverse=True)
            counts[block] = cache.window(slot).counts_matrix(union - lo)[where]
    masked = edges.enc_masked[positions]
    feats = edges.feats[positions].astype(params.dtype, copy=False)  # a fresh gather
    counts[masked], feats[masked] = 0.0, 0.0
    # An anchor with a sampled position has an incident edge, so no fallback is read.
    delta = index.last_time(anchors, np.nan) - edges.t[positions]
    table = T.EdgeEncodingTable(delta[:, None], np.log1p(counts).astype(params.dtype),
                                params.t2v.omega, params.t2v.phase, params.edge_enc,
                                feats if params.edge_dim > 0 else None)
    return table, np.split(inverse, np.cumsum([k.size for k in keys[:-1]]))


def layer_forward(embeddings: NodeEmbeddings, samples: LayerSamples,
                  layer: LayerParams, params: EncoderParams, index: IncidenceIndex,
                  table: T.EdgeEncodingTable, encoding_rows: np.ndarray,
                  dropout_key: tuple[np.ndarray, int] | None = None) -> NodeEmbeddings:
    """One attention layer from the input rows to one row per anchor of ``samples``.

    Anchors are row ids of ``index`` and sampled positions index its log;
    ``encoding_rows`` holds each message's row of ``table``, in the order of
    ``samples.positions``. Anchors and their sampled neighbours must have input
    rows. An anchor with an empty sample (no incident edges) takes the bare
    ``h @ W1`` path; attention context is added for the rest. Output rows are
    invariant to each anchor's sample order. Given ``dropout_key = (words,
    depth)``, head h drops a message of window s where ``keyed_uniform(words[s],
    depth, h, anchor node, window position) < params.dropout``. Featureless input
    (``embeddings.matrix`` None) means zero rows, so every ``h @ W`` and attention
    score is 0: a row is ``context @ Wo``, the mean of the anchor's kept messages
    times ``wv``, and ``w1``, ``wq`` and ``wk`` are not read. Each layer's keys and
    values are one ``table.messages`` entry, which keeps no message matrix.
    """
    edges = index.edges
    anchors, segments, positions = samples.anchors, samples.segments, samples.positions
    rows = embeddings.rows(anchors)
    H = embeddings.matrix
    if H is not None:  # a request covering the window (the probe's) makes every row an anchor
        H_out = H if rows.size == len(embeddings) else T.slice_rows(H, rows)
        h_new = T.matmul(H_out, layer.w1)
    if positions.size == 0:
        return NodeEmbeddings(anchors, h_new if H is not None else
                              T.constant(np.zeros((len(anchors), params.node_dim), params.dtype)))

    slots, nodes = np.divmod(anchors[segments], index.stride)
    u, v = edges.u[positions], edges.v[positions]
    neighbors = np.where(u == nodes, v, u) + slots * index.stride
    kv = table.messages(H, None if H is None else embeddings.rows(neighbors), encoding_rows,
                        layer.wk, layer.wv)  # (occurrences, [keys |] values)

    dropout = None
    if dropout_key is not None and params.dropout > 0.0:
        words, depth = dropout_key
        u = keyed_uniform(words[slots, None], depth, np.arange(params.heads), nodes[:, None],
                          positions[:, None] - index.lo[slots, None])
        dropout = (params.dropout, u)
    q_rows = None if H is None else T.matmul(H_out, layer.wq)
    context = T.matmul(T.segment_attention(q_rows, kv, segments, len(anchors), params.heads,
                                           dropout), layer.wo)
    return NodeEmbeddings(anchors, context if H is None else T.add(h_new, context))


def encode(cache: WindowFeatureCache, params: EncoderParams, max_neighbors: int,
           rng_key, nodes, node_features: np.ndarray | None = None,
           training: bool = False) -> NodeEmbeddings:
    """Encode the windows of ``cache`` into embeddings of the requested rows.

    ``nodes`` are row ids of ``cache.index`` (node ids for a cache of one
    window), and window s draws from ``rng_key[s]`` (a tuple ``rng_key`` for one
    window, the only form training takes). Returns one row per distinct
    requested id, ids ascending, and no other row. Layer i is computed only
    for the rows within L - i sampled hops of the request. Sampling and dropout
    are keyed draws, so each row equals the row a request of every window node
    gives, up to rounding, also while ``training``. A requested node without
    edges in its window takes the bare ``W1`` chain. Every layer reads its
    messages' encodings from one ``edge_table`` built over all layers.
    """
    keys = [rng_key] if isinstance(rng_key, tuple) else rng_key
    requested = np.unique(np.asarray(nodes, dtype=np.int64))
    hood = build_layered_neighborhood(cache.index, requested, params.num_layers, max_neighbors,
                                      [key + (NEIGHBOR_STREAM,) for key in keys])
    active = hood.active_nodes
    table, rows = edge_table(cache, params, hood)

    h0 = None  # no node features: every input row is 0, which layer 0 need not read
    if params.input_proj is not None:
        if node_features is None:
            raise ConsistencyError("encoder has an input projection but no node features given")
        h0 = T.matmul(T.constant(node_features[active % cache.index.stride], dtype=params.dtype),
                      params.input_proj)

    embeddings = NodeEmbeddings(active, h0)
    words = key_words(keys) if training else None
    for i, layer in enumerate(params.layers):
        embeddings = layer_forward(embeddings, hood.layers[i], layer, params, cache.index,
                                   table, rows[i], (words, i + 1) if training else None)
    return embeddings
