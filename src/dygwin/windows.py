"""Interval generation, window batches, and temporal neighbor sampling.

Windows are measured in edge counts: the input window holds the W most
recent interactions before a cut index, and the target window holds the
next K. With stride S = K every edge index past the first stride lands in
exactly one target window.
"""

from __future__ import annotations

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
                       target_filter=None) -> list[WindowBatch]:
    """Target windows of size ``horizon`` tiling [region_start, region_end).

    Each region edge appears in exactly one target window. Input windows
    draw on the full preceding history, crossing split boundaries.
    """
    if horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= region_start <= region_end <= len(ctdg):
        raise ContractError(f"bad evaluation region [{region_start}, {region_end})")
    batches = []
    for cut in range(region_start, region_end, horizon):
        interval = Interval(max(0, cut - window), cut)
        input_edges = ctdg.window(interval.start, interval.end)
        target_edges = ctdg.window(cut, min(cut + horizon, region_end))
        if target_filter is not None:
            target_edges = target_edges.take(target_filter(target_edges))
        if len(target_edges) == 0:
            continue
        batches.append(WindowBatch(interval, input_edges, target_edges))
    return batches


class IncidenceIndex:
    """Per-node incident edge positions within one edge slice.

    Positions are ascending, hence time-ordered; a self-loop contributes a
    single position to its node.
    """

    def __init__(self, edges: EdgeArray):
        self.edges = edges
        count = len(edges)
        nodes = np.concatenate([edges.u, edges.v])
        positions = np.concatenate([np.arange(count), np.arange(count)])
        order = np.argsort(nodes, kind="stable")
        self._nodes = nodes[order]
        self._positions = positions[order]

    def incident(self, node: int) -> np.ndarray:
        lo = np.searchsorted(self._nodes, node, side="left")
        hi = np.searchsorted(self._nodes, node, side="right")
        positions = self._positions[lo:hi]
        if positions.size == 0:
            return positions
        return np.unique(positions)

    def degree_before(self, node: int, t: float) -> int:
        """Incident edges of ``node`` with timestamp <= t (parallel edges count)."""
        positions = self.incident(node)
        if positions.size == 0:
            return 0
        return int(np.searchsorted(self.edges.t[positions], t, side="right"))

    def last_time(self, node: int) -> float | None:
        positions = self.incident(node)
        if positions.size == 0:
            return None
        return float(self.edges.t[positions[-1]])


def sample_neighbors(input_edges: EdgeArray, anchor: int, max_neighbors: int,
                     rng: np.random.Generator,
                     index: IncidenceIndex | None = None) -> np.ndarray:
    """Uniform sample (without replacement) of incident edge positions.

    Anchors with at most ``max_neighbors`` incident edges keep all of them;
    isolated anchors return an empty array. Output positions are ascending.
    """
    if max_neighbors < 1:
        raise ContractError(f"max_neighbors must be >= 1, got {max_neighbors}")
    if index is None:
        index = IncidenceIndex(input_edges)
    positions = index.incident(anchor)
    if positions.size <= max_neighbors:
        return positions
    chosen = rng.choice(positions, size=max_neighbors, replace=False)
    return np.sort(chosen)


@dataclass
class LayeredNeighborhood:
    """Per-layer anchor samples plus every node the encoder must track."""

    layers: list[dict[int, np.ndarray]]
    active_nodes: np.ndarray  # sorted unique ids


def build_layered_neighborhood(input_edges: EdgeArray, seed_nodes,
                               num_layers: int, max_neighbors: int,
                               rng_key: tuple[int, ...] | int,
                               index: IncidenceIndex | None = None) -> LayeredNeighborhood:
    """Flat multi-hop expansion: every layer samples against the same slice.

    Layer-1 anchors are the seeds; each later layer adds the endpoints of
    the previous layer's samples. Draws are independent per (layer, anchor)
    with an rng stream derived from ``rng_key``, so the sample for a node
    never depends on which other anchors are present.
    """
    if isinstance(rng_key, int):
        rng_key = (rng_key,)
    if index is None:
        index = IncidenceIndex(input_edges)
    seeds = np.unique(np.asarray(list(seed_nodes), dtype=np.int64))
    anchors = seeds
    layers: list[dict[int, np.ndarray]] = []
    active = set(int(n) for n in seeds)
    for layer in range(1, num_layers + 1):
        samples: dict[int, np.ndarray] = {}
        reached: set[int] = set()
        for anchor in anchors:
            anchor = int(anchor)
            rng = np.random.default_rng(rng_key + (layer, anchor))
            sampled = sample_neighbors(input_edges, anchor, max_neighbors, rng, index)
            samples[anchor] = sampled
            if sampled.size:
                reached.update(int(n) for n in input_edges.u[sampled])
                reached.update(int(n) for n in input_edges.v[sampled])
        layers.append(samples)
        active.update(reached)
        anchors = np.unique(np.concatenate([anchors, np.asarray(sorted(reached), dtype=np.int64)])
                            ) if reached else anchors
    return LayeredNeighborhood(layers=layers,
                               active_nodes=np.asarray(sorted(active), dtype=np.int64))
