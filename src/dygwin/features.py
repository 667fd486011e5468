"""Relative-time encodings and time-stamped structural edge features.

Two ingredients feed the encoder's per-edge feature vector: a learnable
time encoding of the gap between an interaction and the anchor's most
recent activity, and a learned linear map over (degree of both endpoints,
common-neighbor count) evaluated at the interaction's own timestamp using
only edges inside the current window.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import EdgeArray
from .errors import ContractError
from .tensor import Tensor
from .windows import IncidenceIndex


@dataclass
class Time2VecParams:
    """One linear component (index 0) plus sinusoidal components."""

    omega: Tensor  # (1, dim) frequencies
    phase: Tensor  # (1, dim) offsets


def init_time2vec(dim: int, dtype=np.float32) -> Time2VecParams:
    """Geometrically spaced frequencies cover time gaps from 1 to ~1e7."""
    if dim < 1:
        raise ContractError(f"time encoding dim must be >= 1, got {dim}")
    omega = 1.0 / np.power(10.0, np.linspace(0.0, 7.0, dim))
    omega[0] = 1e-4
    return Time2VecParams(omega=T.parameter(omega.reshape(1, dim), dtype=dtype),
                          phase=T.zeros_parameter((1, dim), dtype=dtype))


def time2vec(params: Time2VecParams, delta_t) -> Tensor:
    """Encode non-negative time gaps; one row per input value.

    out[:, 0] = omega[0] * dt + phase[0]; out[:, k] = sin(omega[k] * dt + phase[k]).
    """
    dt = np.atleast_1d(np.asarray(delta_t, dtype=np.float64)).reshape(-1, 1)
    return T.time_encoding(dt, params.omega, params.phase)


def common_neighbors_at(input_edges: EdgeArray, u: int, v: int, t: float) -> int:
    """Distinct nodes adjacent to both u and v via edges with timestamp <= t,
    excluding u and v themselves."""
    return int(WindowFeatureCache(input_edges).counts_at([u], [v], [t])[0, 2])


class WindowFeatureCache:
    """Batched structural counts for windows of one time-sorted log of E edges:
    an edge of window [lo, hi) counts at time t when its position is in [lo,
    before), before = ``searchsorted(t_log, t, "right")`` clipped to the window.
    Degrees search the index's keys. Common neighbours walk the lower-degree
    endpoint's run in [lo, before) and look each neighbour up among the other
    endpoint's contacts, so a query's cost is bounded by its window, however
    long the log.

    A new cache is the one window [0, E) of its log ``.edges``; ``windows``
    gives several, and ``window(s)`` window s alone with its slice as
    ``.edges``, which ``counts_matrix`` positions index.
    """

    def __init__(self, edges: EdgeArray):
        self.edges = edges
        self.index = IncidenceIndex(edges)
        nodes, positions = self.index.nodes, self.index.positions
        # Per index entry: its other endpoint, and the position of the same
        # pair's previous contact (-1 for its first).
        self._others = np.where(edges.u[positions] == nodes, edges.v[positions],
                                edges.u[positions])
        self._stride = int(nodes.max()) + 1 if nodes.size else 1
        pairs = nodes * self._stride + self._others  # node * M + other, ids below M
        # Stable: positions ascend within a node, so each pair's contacts stay in time order.
        order = np.argsort(pairs, kind="stable")
        pairs, contacts = pairs[order], positions[order]
        first = np.diff(pairs, prepend=-1) != 0
        self._previous = np.empty_like(positions)
        self._previous[order] = np.where(first, -1, np.roll(contacts, 1))
        # Each pair once, and pair rank * (E + 1) + position per contact.
        self._pair_keys = np.append(pairs[first], np.iinfo(np.int64).max)
        self._contact_keys = np.append((np.cumsum(first) - 1) * (len(edges) + 1) + contacts,
                                       np.iinfo(np.int64).max)

    def windows(self, lo, hi, stride: int) -> WindowFeatureCache:
        """The windows [lo[s], hi[s]) of the log, row ids ``s * stride + node``."""
        view = copy.copy(self)
        view.index = self.index.windows(lo, hi, stride)
        return view

    def window(self, slot: int) -> WindowFeatureCache:
        """Window ``slot`` alone; its ``.edges`` is the window's slice of the log."""
        lo, hi = int(self.index.lo[slot]), int(self.index.hi[slot])
        view = copy.copy(self)
        view.index = self.index.windows([lo], [hi])
        view.edges = self.index.edges.take(slice(lo, hi))
        return view

    def counts_at(self, us, vs, ts) -> np.ndarray:
        """(deg_u, deg_v, common neighbours) per (u, v, t) query, shape (n, 3), for
        row ids u and v of one window: its edges at or before t count, a
        self-loop once, and u and v are never their own common neighbour.
        Times and nodes need not occur in the window."""
        index = self.index
        slot, us = np.divmod(np.asarray(us, dtype=np.int64), index.stride)
        vs = np.asarray(vs, dtype=np.int64) % index.stride
        n, span = len(us), len(index.edges) + 1
        lo = index.lo[slot]
        before = np.clip(np.searchsorted(index.edges.t, ts, side="right"), lo, index.hi[slot])
        ends = np.concatenate([us, vs]) * span
        start = np.searchsorted(index.keys, ends + np.tile(lo, 2))
        degrees = np.searchsorted(index.keys, ends + np.tile(before, 2)) - start
        # The lower-degree endpoint's run in [lo, before), expanded ragged, keeping
        # each neighbour's first contact there and neither u nor v.
        small = degrees[:n] <= degrees[n:]
        count, start = np.minimum(degrees[:n], degrees[n:]), np.where(small, start[:n], start[n:])
        query = np.repeat(np.arange(n), count)
        rows = np.arange(query.size) + np.repeat(start - np.cumsum(count) + count, count)
        first = self._previous[rows] < lo[query]
        query, others = query[first], self._others[rows[first]]
        keep = (others != us[query]) & (others != vs[query])
        query, others = query[keep], others[keep]
        # A common neighbour: the other endpoint's pair with it exists and its first
        # contact at or after lo is before ``before`` (a later pair's key reads as
        # too late); the sentinels keep both searches in range.
        pair_key = np.where(small, vs, us)[query] * self._stride + others
        pair = np.searchsorted(self._pair_keys, pair_key)
        contact = self._contact_keys[np.searchsorted(self._contact_keys, pair * span + lo[query])]
        common = (self._pair_keys[pair] == pair_key) & (contact < pair * span + before[query])
        return np.column_stack([degrees.reshape(2, n).T, np.bincount(query[common], minlength=n)])

    def counts_matrix(self, positions) -> np.ndarray:
        """``counts_at`` each edge position's own (u, v, t), as float64 rows."""
        unique, inverse = np.unique(np.asarray(positions, dtype=np.int64), return_inverse=True)
        counts = self.counts_at(self.edges.u[unique], self.edges.v[unique], self.edges.t[unique])
        return counts[inverse].astype(np.float64)
