"""Window generation, the incidence index, and temporal neighbor sampling.

Windows are measured in edge counts: the input window holds the W most
recent interactions before a cut index, and the target window holds the
next K. With stride S = K every edge index past the first stride lands in
exactly one target window. A window is a position range [lo, hi) of one
log, read through one index over that log.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import EdgeArray
from .errors import ContractError
from .keyed import key_words, keyed_uniform


def generate_intervals(total_edges: int, stride: int,
                       window: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding input windows [max(0, j*S - W), j*S) for j in 1..floor(E/S), as
    int64 (starts, ends) arrays.

    The j = 0 window is formally [-W, 0); no edges precede index 0, so it
    clamps to the empty [0, 0) and is dropped.
    """
    if stride < 1 or window < 1:
        raise ContractError(f"stride and window must be >= 1, got S={stride}, W={window}")
    ends = np.arange(stride, total_edges + 1, stride, dtype=np.int64)
    return np.maximum(ends - window, 0), ends


ONE_WINDOW = np.iinfo(np.int64).max  # the stride of a single window: row id = node id


class IncidenceIndex:
    """Per-node incident edge positions within one time-sorted log, sorted by
    (node, position): each node's run is ascending, hence time-ordered, and a
    self-loop is one entry. Read-only, since ``incident`` returns views.

    Positions are log positions. The index answers for windows of the log,
    the position ranges [lo[s], hi[s]), and row id ``s * stride + node`` names
    a node in window s. A new index has the one window [0, E), where a row id
    is the node id; ``windows`` gives a view over others.
    """

    def __init__(self, edges: EdgeArray):
        if np.any(edges.t[1:] < edges.t[:-1]):
            raise ContractError("edge slice timestamps must not decrease")
        self.edges = edges
        span, positions = len(edges) + 1, np.arange(len(edges))
        # node * (E + 1) + position, sorted: a run's part in a window is one key range.
        self.keys = np.sort(np.concatenate([edges.u * span + positions,
                                            (edges.v * span + positions)[edges.u != edges.v]]))
        self.nodes, self.positions = np.divmod(self.keys, span)
        self._run_times = np.append(edges.t[self.positions], np.nan)  # [-1]: no edge
        for array in (self.nodes, self.positions, self.keys, self._run_times):
            array.flags.writeable = False
        self.lo, self.hi, self.stride = np.zeros(1, np.int64), np.full(1, len(edges)), ONE_WINDOW

    def windows(self, lo, hi, stride: int = ONE_WINDOW) -> IncidenceIndex:
        """This index over the windows [lo[s], hi[s]) of its log, with row ids
        ``s * stride + node``; ``stride`` must exceed every node id."""
        view = copy.copy(self)
        view.lo, view.hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
        if np.any((view.lo < 0) | (view.lo > view.hi) | (view.hi > len(self.edges))):
            raise ContractError(f"windows outside [0, {len(self.edges)}]")
        if self.nodes.size and stride <= self.nodes[-1]:  # nodes ascend: [-1] is the largest id
            raise ContractError(f"stride {stride} does not exceed node id {self.nodes[-1]}")
        view.stride = stride
        return view

    def runs(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Start and end, in ``positions``, of each row id's run within its window."""
        slot, node = np.divmod(np.asarray(ids, dtype=np.int64), self.stride)
        low = node * (len(self.edges) + 1)
        return (np.searchsorted(self.keys, low + self.lo[slot]),
                np.searchsorted(self.keys, low + self.hi[slot]))

    def incident(self, node: int) -> np.ndarray:
        (start,), (end,) = self.runs([node])
        return self.positions[start:end]

    def last_time(self, ids, fallback=None) -> np.ndarray:
        """Latest incident timestamp of each row id within its window. A row
        with no edge there gets ``fallback``, by default its window's last
        timestamp (NaN for an empty window)."""
        ids = np.asarray(ids, dtype=np.int64)
        start, end = self.runs(ids)
        if fallback is None:
            lo, hi = self.lo[ids // self.stride], self.hi[ids // self.stride]
            fallback = np.append(self.edges.t, np.nan)[np.where(hi > lo, hi - 1, -1)]
        return np.where(end > start, self._run_times[end - 1], fallback)


class LayerSamples:
    """One layer's samples, flat and read-only: ``anchors`` ascending, anchor i's
    positions at ``positions[bounds[i]:bounds[i + 1]]`` and ``segments`` each
    position's anchor index. ``values()`` lists each anchor's positions."""

    def __init__(self, anchors: np.ndarray, sizes: np.ndarray, positions: np.ndarray):
        self.anchors, self.positions = anchors, positions
        self.bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.segments = np.repeat(np.arange(anchors.size), sizes)

    def __len__(self) -> int:
        return self.anchors.size

    def values(self) -> list[np.ndarray]:
        bounds = self.bounds.tolist()
        return [self.positions[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class LayeredNeighborhood:
    """Per-layer anchor samples, bottom layer first, plus the rows layer 1 reads."""

    layers: list[LayerSamples]
    active_nodes: np.ndarray  # sorted unique ids


def build_layered_neighborhood(index: IncidenceIndex, seed_nodes,
                               num_layers: int, max_neighbors: int,
                               rng_key) -> LayeredNeighborhood:
    """Receptive field of the seed rows, sampled top-down within their windows.

    The top layer's anchors are the seeds; each lower layer's anchors are the
    anchors above it plus the endpoints of their samples, and ``active_nodes``
    adds the endpoints of layer 1's samples. Anchors, samples and active rows
    are row ids of ``index`` and log positions. A run of at most
    ``max_neighbors`` incident positions is kept whole, a longer one keeps its
    ``max_neighbors`` of least ``keyed_uniform(word, layer, node, window
    position)``, window s's word from ``key_words(rng_key)[s]``: a uniform
    sample without replacement (Efraimidis & Spirakis, IPL 2006) that does not
    depend on the other anchors or windows. Each anchor's positions ascend.
    """
    if max_neighbors < 1:
        raise ContractError(f"max_neighbors must be >= 1, got {max_neighbors}")
    words, edges = key_words(rng_key), index.edges
    anchors = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    layers = []
    for layer in range(num_layers, 0, -1):
        starts, ends = index.runs(anchors)
        sizes, over = np.minimum(ends - starts, max_neighbors), ends - starts > max_neighbors
        bounds = np.cumsum(sizes)
        take = np.repeat(starts - bounds + sizes, sizes) + np.arange(sizes.sum())
        # The over-degree runs as one ragged array; one sort ranks each by priority.
        lengths = (ends - starts)[over]
        run = np.repeat(np.arange(lengths.size), lengths)
        flat = np.repeat(starts[over] - np.cumsum(lengths) + lengths, lengths) + np.arange(run.size)
        slot, node = np.divmod(anchors[over][run], index.stride)
        priority = keyed_uniform(words[slot], layer, node, index.positions[flat] - index.lo[slot])
        kept = np.zeros(flat.size, dtype=bool)  # rank in the run below max_neighbors, by priority
        kept[np.lexsort((priority, run))[flat - starts[over][run] < max_neighbors]] = True
        take[np.repeat(over, sizes)] = flat[kept]
        layers.insert(0, LayerSamples(anchors, sizes, index.positions[take]))
        sampled, slots = layers[0].positions, anchors[layers[0].segments] // index.stride
        anchors = np.union1d(anchors, np.concatenate([edges.u[sampled], edges.v[sampled]])
                             + np.tile(slots * index.stride, 2))
    return LayeredNeighborhood(layers, anchors)
