"""Relative-time encodings and time-stamped structural edge features.

Two ingredients feed the encoder's per-edge feature vector: a learnable
time encoding of the gap between an interaction and the anchor's most
recent activity, and a learned linear map over (degree of both endpoints,
common-neighbor count) evaluated at the interaction's own timestamp using
only edges inside the current window.
"""

from __future__ import annotations

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
    """Batched structural counts for one time-sorted slice of E edges, keyed by
    position (at or before t means below ``searchsorted(edges.t, t, "right")``):
    node * (E + 1) + position per incidence entry, and node * M + other endpoint
    per contact pair (ids below M), kept at the pair's earliest position."""

    def __init__(self, edges: EdgeArray):
        self.edges = edges
        self.index = IncidenceIndex(edges)
        nodes, positions = self.index.nodes, self.index.positions
        self._degree_keys = nodes * (len(edges) + 1) + positions  # sorted, as the index is
        others = np.where(edges.u[positions] == nodes, edges.v[positions], edges.u[positions])
        self._stride = int(nodes.max()) + 1 if nodes.size else 1
        # Stable: positions ascend within a node, so each pair's first entry is its earliest.
        order = np.argsort(nodes * self._stride + others, kind="stable")
        pair_keys = nodes[order] * self._stride + others[order]
        earliest = np.diff(pair_keys, prepend=-1) != 0
        self._pair_keys, self._pair_positions = pair_keys[earliest], positions[order][earliest]

    def counts_at(self, us, vs, ts) -> np.ndarray:
        """(deg_u, deg_v, common neighbours) per (u, v, t) query, shape (n, 3): edges
        at or before t count, a self-loop once, and u and v are never their own
        common neighbour. Times and nodes need not occur in the slice."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        n, ends = len(us), np.concatenate([us, vs])
        before = np.tile(np.searchsorted(self.edges.t, ts, side="right"), 2)
        low = ends * (len(self.edges) + 1)
        degrees = (np.searchsorted(self._degree_keys, low + before)
                   - np.searchsorted(self._degree_keys, low))
        # Both endpoints' contact rows, expanded ragged: a neighbour of both,
        # contacted by t and neither u nor v, shows up twice under its query.
        lo = np.searchsorted(self._pair_keys, ends * self._stride)
        lengths = np.searchsorted(self._pair_keys, (ends + 1) * self._stride) - lo
        query = np.repeat(np.tile(np.arange(n), 2), lengths)
        rows = np.arange(query.size) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        others = self._pair_keys[rows] % self._stride
        keep = ((self._pair_positions[rows] < before[query])
                & (others != us[query]) & (others != vs[query]))
        keys = np.sort(query[keep] * self._stride + others[keep])
        common = np.bincount(keys[1:][keys[1:] == keys[:-1]] // self._stride, minlength=n)
        return np.column_stack([degrees.reshape(2, n).T, common])

    def counts_matrix(self, positions) -> np.ndarray:
        """``counts_at`` each edge position's own (u, v, t), as float64 rows."""
        unique, inverse = np.unique(np.asarray(positions, dtype=np.int64), return_inverse=True)
        counts = self.counts_at(self.edges.u[unique], self.edges.v[unique], self.edges.t[unique])
        return counts[inverse].astype(np.float64)
