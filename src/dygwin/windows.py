"""Interval generation, window batches, and temporal neighbor sampling.

Windows are measured in edge counts: the input window holds the W most
recent interactions before a cut index, and the target window holds the
next K. With stride S = K every edge index past the first stride lands in
exactly one target window.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def evaluation_windows(ctdg: CTDG, region_start: int, region_end: int,
                       window: int, horizon: int,
                       target_filter=None) -> Iterator[WindowBatch]:
    """Target windows of size ``horizon`` tiling [region_start, region_end),
    yielded one at a time.

    Each region edge appears in exactly one target window. Input windows
    draw on the full preceding history, crossing split boundaries. The
    arguments are checked on the first ``next``.
    """
    if horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= region_start <= region_end <= len(ctdg):
        raise ContractError(f"bad evaluation region [{region_start}, {region_end})")
    for cut in range(region_start, region_end, horizon):
        batch = make_window_batch(ctdg, Interval(max(0, cut - window), cut),
                                  min(horizon, region_end - cut))
        if target_filter is not None:
            batch.target_edges = batch.target_edges.take(target_filter(batch.target_edges))
        if len(batch.target_edges):
            yield batch


class IncidenceIndex:
    """Per-node incident edge positions within one time-sorted slice, sorted by
    (node, position): each node's run is ascending, hence time-ordered, and a
    self-loop is one entry. Read-only, since ``incident`` returns views."""

    def __init__(self, edges: EdgeArray):
        if np.any(edges.t[1:] < edges.t[:-1]):
            raise ContractError("edge slice timestamps must not decrease")
        self.edges = edges
        loop = edges.u == edges.v
        nodes = np.concatenate([edges.u, edges.v[~loop]])
        positions = np.concatenate([np.arange(len(edges)), np.flatnonzero(~loop)])
        order = np.lexsort((positions, nodes))
        self.nodes = nodes[order]
        self.positions = positions[order]
        starts = np.flatnonzero(np.diff(self.nodes, prepend=self.nodes[:1] - 1))
        self._node_ids = self.nodes[starts]
        self._last_t = edges.t[np.maximum.reduceat(self.positions, starts)]
        for array in (self.nodes, self.positions, self._node_ids, self._last_t):
            array.flags.writeable = False

    def incident(self, node: int) -> np.ndarray:
        lo, hi = np.searchsorted(self.nodes, [node, node + 1])
        return self.positions[lo:hi]

    def last_time(self, nodes, fallback: float) -> np.ndarray:
        """Latest incident timestamp of each node, ``fallback`` for a node
        with no edge in the slice."""
        nodes = np.asarray(nodes, dtype=np.int64)
        at = np.searchsorted(self._node_ids, nodes)
        last = np.append(self._last_t, fallback)[at]  # a node past the last id gets the fallback
        return np.where(np.isin(nodes, self._node_ids), last, fallback)


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
    """Per-layer anchor samples, bottom layer first, plus the rows layer 1 reads."""

    layers: list[dict[int, np.ndarray]]
    active_nodes: np.ndarray  # sorted unique ids


def build_layered_neighborhood(index: IncidenceIndex, seed_nodes,
                               num_layers: int, max_neighbors: int,
                               rng_key: tuple[int, ...] | int) -> LayeredNeighborhood:
    """Receptive field of the seeds, sampled top-down against the index's slice.

    The top layer's anchors are the seeds; each lower layer's anchors are the
    anchors above it plus the endpoints of their samples, and ``active_nodes``
    adds the endpoints of layer 1's samples. One pair of searches reads every
    anchor's incident run; only an anchor with more than ``max_neighbors``
    builds an rng stream, from ``rng_key`` and (layer, anchor), and samples
    it, so the sample for a node never depends on which other anchors exist.
    """
    if max_neighbors < 1:
        raise ContractError(f"max_neighbors must be >= 1, got {max_neighbors}")
    if isinstance(rng_key, int):
        rng_key = (rng_key,)
    edges = index.edges
    anchors = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    layers: list[dict[int, np.ndarray]] = []
    for layer in range(num_layers, 0, -1):
        runs = zip(anchors.tolist(), np.searchsorted(index.nodes, anchors).tolist(),
                   np.searchsorted(index.nodes, anchors, side="right").tolist())
        samples = {anchor: index.positions[lo:hi] if hi - lo <= max_neighbors else
                   sample_neighbors(index, anchor, max_neighbors,
                                    np.random.default_rng(rng_key + (layer, anchor)))
                   for anchor, lo, hi in runs}
        layers.insert(0, samples)
        sampled = np.concatenate([np.empty(0, dtype=np.int64), *samples.values()])
        anchors = np.union1d(anchors, np.concatenate([edges.u[sampled], edges.v[sampled]]))
    return LayeredNeighborhood(layers=layers, active_nodes=anchors)
