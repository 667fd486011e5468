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

    @property
    def dim(self) -> int:
        return self.omega.shape[1]


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
    dtype = params.omega.dtype
    angles = T.add(T.matmul(T.constant(dt, dtype=dtype), params.omega), params.phase)
    linear_mask = np.zeros((1, params.dim), dtype=dtype)
    linear_mask[0, 0] = 1.0
    keep_linear = T.constant(linear_mask)
    keep_sin = T.constant(1.0 - linear_mask)
    return T.add(T.mul(angles, keep_linear), T.mul(T.sin(angles), keep_sin))


def common_neighbors_at(input_edges: EdgeArray, u: int, v: int, t: float) -> int:
    """Distinct nodes adjacent to both u and v via edges with timestamp <= t,
    excluding u and v themselves."""
    return int(WindowFeatureCache(input_edges).counts_at([u], [v], [t])[0, 2])


class WindowFeatureCache:
    """Batched structural counts for windows of one time-sorted log of E edges:
    an edge of window [lo, hi) counts at time t when its position is in [lo,
    before), before = ``searchsorted(t_log, t, "right")`` clipped to the window.
    Degrees search the index's keys; common neighbours read node * M + other
    endpoint per contact pair (ids below M) at its earliest position, and
    pair * (E + 1) + position per contact for a pair met before lo.

    A new cache is the one window [0, E) of its log ``.edges``; ``windows``
    gives several, and ``window(s)`` window s alone with its slice as
    ``.edges``, which ``counts_matrix`` positions index.
    """

    def __init__(self, edges: EdgeArray):
        self.edges = edges
        self.index = IncidenceIndex(edges)
        nodes, positions = self.index.nodes, self.index.positions
        others = np.where(edges.u[positions] == nodes, edges.v[positions], edges.u[positions])
        self._stride = int(nodes.max()) + 1 if nodes.size else 1
        # Stable: positions ascend within a node, so each pair's contacts stay in time order.
        order = np.argsort(nodes * self._stride + others, kind="stable")
        pair_keys = nodes[order] * self._stride + others[order]
        first = np.diff(pair_keys, prepend=-1) != 0
        self._pair_keys, self._pair_positions = pair_keys[first], positions[order][first]
        contact_keys = (np.cumsum(first) - 1) * (len(edges) + 1) + positions[order]
        self._contact_keys = np.append(contact_keys, np.iinfo(np.int64).max)

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
        n, ends, span = len(us), np.concatenate([us, vs]), len(index.edges) + 1
        lo = index.lo[slot]
        before = np.clip(np.searchsorted(index.edges.t, ts, side="right"), lo, index.hi[slot])
        # Both endpoints in node order, so the searches and contact rows run ascending.
        side = np.argsort(ends, kind="stable")
        query, nodes = side % n, ends[side]
        degrees = np.empty(2 * n, dtype=np.int64)
        degrees[side] = (np.searchsorted(index.keys, nodes * span + before[query])
                         - np.searchsorted(index.keys, nodes * span + lo[query]))
        # Their contact rows, expanded ragged: a neighbour of both, contacted
        # in [lo, before) and neither u nor v, shows up twice under its query.
        start = np.searchsorted(self._pair_keys, nodes * self._stride)
        lengths = np.searchsorted(self._pair_keys, (nodes + 1) * self._stride) - start
        query = np.repeat(query, lengths)
        rows = np.arange(query.size) + np.repeat(start - np.cumsum(lengths) + lengths, lengths)
        others = self._pair_keys[rows] % self._stride
        contact = self._pair_positions[rows]
        # A pair first met before lo: its first contact at or after lo, if any,
        # follows lo in the contact keys (a later pair's key reads as too late).
        late = np.flatnonzero(contact < lo[query])
        found = np.searchsorted(self._contact_keys, rows[late] * span + lo[query[late]])
        contact[late] = np.minimum(self._contact_keys[found] - rows[late] * span, span)
        keep = (contact < before[query]) & (others != us[query]) & (others != vs[query])
        keys = np.sort(query[keep] * self._stride + others[keep])
        common = np.bincount(keys[1:][keys[1:] == keys[:-1]] // self._stride, minlength=n)
        return np.column_stack([degrees.reshape(2, n).T, common])

    def counts_matrix(self, positions) -> np.ndarray:
        """``counts_at`` each edge position's own (u, v, t), as float64 rows."""
        unique, inverse = np.unique(np.asarray(positions, dtype=np.int64), return_inverse=True)
        counts = self.counts_at(self.edges.u[unique], self.edges.v[unique], self.edges.t[unique])
        return counts[inverse].astype(np.float64)
