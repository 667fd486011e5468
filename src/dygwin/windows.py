"""Interval generation, window batches, and temporal neighbor sampling.

Windows are measured in edge counts: the input window holds the W most
recent interactions before a cut index, and the target window holds the
next K. With stride S = K every edge index past the first stride lands in
exactly one target window.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import CTDG, EdgeArray
from .errors import ContractError


@dataclass(frozen=True)
class Interval:
    """Half-open [start, end) range of edge indices."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ContractError(f"invalid interval [{self.start}, {self.end})")


@dataclass
class WindowBatch:
    """One input (history) slice plus the following target slice."""

    interval: Interval
    input_edges: EdgeArray
    target_edges: EdgeArray


def generate_intervals(total_edges: int, stride: int, window: int) -> list[Interval]:
    """Sliding input intervals [max(0, j*S - W), j*S) for j in 0..floor(E/S).

    The j = 0 interval is formally [-W, 0); no edges precede index 0, so it
    clamps to the empty [0, 0) and is dropped.
    """
    if stride < 1 or window < 1:
        raise ContractError(f"stride and window must be >= 1, got S={stride}, W={window}")
    intervals = []
    for j in range(total_edges // stride + 1):
        end = j * stride
        if end == 0:
            continue
        intervals.append(Interval(max(0, end - window), end))
    return intervals


def make_window_batch(ctdg: CTDG, interval: Interval, target_size: int) -> WindowBatch:
    """Slice the input window and the following K target edges."""
    if interval.end > len(ctdg):
        raise ContractError(f"interval end {interval.end} beyond {len(ctdg)} edges")
    if target_size < 0:
        raise ContractError(f"target_size must be >= 0, got {target_size}")
    input_edges = ctdg.window(interval.start, interval.end)
    target_edges = ctdg.window(interval.end, min(interval.end + target_size, len(ctdg)))
    return WindowBatch(interval, input_edges, target_edges)


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


def sample_neighbors(index: IncidenceIndex, anchor: int, max_neighbors: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform sample (without replacement) of incident edge positions.

    Anchors with at most ``max_neighbors`` incident edges keep all of them
    without reading ``rng``, so callers build a stream only for an anchor with
    more; isolated anchors return an empty array. Output positions ascend.
    """
    if max_neighbors < 1:
        raise ContractError(f"max_neighbors must be >= 1, got {max_neighbors}")
    positions = index.incident(anchor)
    if positions.size <= max_neighbors:
        return positions
    chosen = rng.choice(positions, size=max_neighbors, replace=False)
    return np.sort(chosen)


@dataclass
class LayeredNeighborhood:
    """Per-layer anchor samples, bottom layer first, plus the rows layer 1 reads.

    Each layer's dict lists its anchors ascending; ``positions`` holds its
    samples concatenated in that order and ``slots`` each sample's window.
    """

    layers: list[dict[int, np.ndarray]]
    active_nodes: np.ndarray  # sorted unique ids
    positions: list[np.ndarray]
    slots: list[np.ndarray]


def build_layered_neighborhood(index: IncidenceIndex, seed_nodes,
                               num_layers: int, max_neighbors: int,
                               rng_key) -> LayeredNeighborhood:
    """Receptive field of the seed rows, sampled top-down within their windows.

    The top layer's anchors are the seeds; each lower layer's anchors are the
    anchors above it plus the endpoints of their samples, and ``active_nodes``
    adds the endpoints of layer 1's samples. Anchors, samples and active rows
    are row ids of ``index`` and log positions. Two searches read every
    anchor's incident run; only an anchor with more than ``max_neighbors``
    builds an rng stream, from its window's key (``rng_key`` for one window, or
    ``rng_key[s]`` for window s) and (layer, node), and samples it, so the
    sample for a node never depends on which other anchors or windows exist.
    """
    if max_neighbors < 1:
        raise ContractError(f"max_neighbors must be >= 1, got {max_neighbors}")
    if isinstance(rng_key, int):
        rng_key = (rng_key,)
    keys = [rng_key] if isinstance(rng_key, tuple) else rng_key
    edges = index.edges
    anchors = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    layers, positions, message_slots = [], [], []
    for layer in range(num_layers, 0, -1):
        starts, ends = index.runs(anchors)
        samples = {anchor: index.positions[lo:hi] if hi - lo <= max_neighbors else
                   sample_neighbors(index, anchor, max_neighbors, np.random.default_rng(
                       keys[anchor // index.stride] + (layer, anchor % index.stride)))
                   for anchor, lo, hi in zip(anchors.tolist(), starts.tolist(), ends.tolist())}
        sampled = np.concatenate([np.empty(0, dtype=np.int64), *samples.values()])
        slots = np.repeat(anchors // index.stride, np.minimum(ends - starts, max_neighbors))
        layers.insert(0, samples)
        positions.insert(0, sampled)
        message_slots.insert(0, slots)
        anchors = np.union1d(anchors, np.concatenate([edges.u[sampled], edges.v[sampled]])
                             + np.tile(slots * index.stride, 2))
    return LayeredNeighborhood(layers, anchors, positions, message_slots)
