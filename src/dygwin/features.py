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


def _neighbors_before(index: IncidenceIndex, node: int, t: float) -> np.ndarray:
    positions = index.incident(node)
    if positions.size == 0:
        return positions
    keep = int(np.searchsorted(index.edges.t[positions], t, side="right"))
    positions = positions[:keep]
    others = np.where(index.edges.u[positions] == node,
                      index.edges.v[positions], index.edges.u[positions])
    return np.unique(others)


def common_neighbors_at(input_edges: EdgeArray, u: int, v: int, t: float,
                        index: IncidenceIndex | None = None) -> int:
    """Distinct nodes adjacent to both u and v via edges with timestamp <= t,
    excluding u and v themselves."""
    if index is None:
        index = IncidenceIndex(input_edges)
    nu = _neighbors_before(index, u, t)
    nv = _neighbors_before(index, v, t)
    common = np.intersect1d(nu, nv, assume_unique=True)
    return int(np.sum((common != u) & (common != v)))


class WindowFeatureCache:
    """Memoized per-edge structural counts and per-node recency for one slice."""

    def __init__(self, edges: EdgeArray):
        self.edges = edges
        self.index = IncidenceIndex(edges)
        self._counts: dict[int, tuple[int, int, int]] = {}
        self._recency: dict[int, float | None] = {}

    def counts(self, position: int) -> tuple[int, int, int]:
        cached = self._counts.get(position)
        if cached is None:
            u = int(self.edges.u[position])
            v = int(self.edges.v[position])
            t = float(self.edges.t[position])
            cached = (self.index.degree_before(u, t),
                      self.index.degree_before(v, t),
                      common_neighbors_at(self.edges, u, v, t, self.index))
            self._counts[position] = cached
        return cached

    def counts_matrix(self, positions: np.ndarray) -> np.ndarray:
        out = np.empty((len(positions), 3), dtype=np.float64)
        for row, position in enumerate(positions):
            out[row] = self.counts(int(position))
        return out

    def recency(self, node: int, fallback: float) -> float:
        """Latest incident timestamp of ``node``, else the window-end fallback."""
        if node not in self._recency:
            self._recency[node] = self.index.last_time(node)
        value = self._recency[node]
        return fallback if value is None else value


@dataclass
class TemporalEdgeEncoding:
    """Learned map from [deg_u, deg_v, common_neighbors] to the time-encoding width."""

    w2: Tensor  # (3, dim)
    scale: str = "log1p"  # "log1p" | "raw"

    @property
    def dim(self) -> int:
        return self.w2.shape[1]


def init_edge_encoding(dim: int, rng: np.random.Generator, scale: str = "log1p",
                       dtype=np.float32) -> TemporalEdgeEncoding:
    if scale not in ("log1p", "raw"):
        raise ContractError(f"unknown edge_enc_scale {scale!r}")
    return TemporalEdgeEncoding(w2=T.xavier_uniform(rng, 3, dim, dtype=dtype), scale=scale)


def apply_count_scale(counts: np.ndarray, scale: str) -> np.ndarray:
    if scale == "raw":
        return counts
    if scale == "log1p":
        return np.log1p(counts)
    raise ContractError(f"unknown edge_enc_scale {scale!r}")
