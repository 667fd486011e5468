"""Wrappers around dygwin's public functions that feed the per-layer metrics.

Modules bind names with ``from .x import y``, so each wrapper is installed
on the name the calling module looks up (``dygwin.downstream.encode``,
``dygwin.encoder.layer_forward``, ...) or on the class for methods. The
package ``__init__`` rebinds ``dygwin.pretrain`` to the ``pretrain``
function, so that module is taken from ``sys.modules``.

Nothing inside the program changes: the tape and backward counters come
from wrapping the ``backward`` the training loops call and timing each
tape entry's closure before delegating.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import weakref
from unittest import mock

import numpy as np

import dygwin.downstream as downstream
import dygwin.encoder as encoder
import dygwin.features as features
from dygwin.encoder import NodeEmbeddings
from dygwin.features import WindowFeatureCache
from dygwin.optim import Adam
from dygwin.windows import IncidenceIndex

from tracer import Tracer, self_time_by_name, self_times, total_time_by_name

BACKWARD_OPS = ("matmul", "slice_rows", "mul", "segment_sum", "segment_softmax",
                "concat_last_dim", "add")
ORACLE_ROWS_PER_CALL = 8
ORACLE_STREAM = 97
ORACLE_SPAN = "bench.oracle"
CALL_SPAN = "bench.call"


def brute_counts(edges, position: int) -> tuple[int, int, int]:
    """(deg_u, deg_v, common neighbours) at edge ``position``'s timestamp.

    Plain numpy over the whole window: an edge counts when its timestamp is
    at most the edge's own (later edges sharing the timestamp included), a
    self-loop counts once, and u and v are never their own common neighbour.
    """
    u, v, t = int(edges.u[position]), int(edges.v[position]), edges.t[position]
    before = edges.t <= t

    def incident(node):
        touches = before & ((edges.u == node) | (edges.v == node))
        others = np.where(edges.u[touches] == node, edges.v[touches], edges.u[touches])
        return int(touches.sum()), np.unique(others)

    deg_u, nbr_u = incident(u)
    deg_v, nbr_v = incident(v)
    common = np.intersect1d(nbr_u, nbr_v)
    return deg_u, deg_v, int(np.sum((common != u) & (common != v)))


class Probe:
    """Counters filled by the wrappers while they are installed."""

    def __init__(self, tracer: Tracer, seed: int):
        self.tracer = tracer
        self.oracle_rng = np.random.default_rng((seed, ORACLE_STREAM))
        self.windows = 0
        self.steps = 0
        self.layer = 0
        self.incident_calls = 0
        self.anchors = 0
        self.sampled_edges = 0
        self.count_rows = 0
        self.count_misses = 0
        self.oracle_rows = 0
        self.oracle_mismatches = 0
        self.rows = 0
        self.rows_read = 0
        self.messages = 0
        self.tape_entries = 0
        self.tape_bytes = 0
        self.op_seconds = {op: 0.0 for op in BACKWARD_OPS + ("other",)}
        self._read = weakref.WeakKeyDictionary()  # encode output -> node ids gathered

    @contextlib.contextmanager
    def installed(self):
        tracer = self.tracer
        pretrain = sys.modules["dygwin.pretrain"]
        replacements = [
            (downstream, "encode", self._encode(downstream.encode)),
            (pretrain, "encode", self._encode(pretrain.encode)),
            (encoder, "build_layered_neighborhood",
             self._sample(encoder.build_layered_neighborhood)),
            (encoder, "layer_forward", self._layer(encoder.layer_forward)),
            (IncidenceIndex, "incident", self._incident(IncidenceIndex.incident)),
            (WindowFeatureCache, "counts_matrix", self._counts(WindowFeatureCache.counts_matrix)),
            (features, "common_neighbors_at", self._miss(features.common_neighbors_at)),
            (NodeEmbeddings, "gather", self._gather(NodeEmbeddings.gather)),
            (downstream, "backward", self._backward(downstream.backward)),
            (pretrain, "backward", self._backward(pretrain.backward)),
            (Adam, "step", tracer.wrap("optim.step", Adam.step)),
            (downstream, "flp_score", tracer.wrap("downstream.decode", downstream.flp_score)),
            (downstream, "sample_negatives",
             tracer.wrap("downstream.negatives", downstream.sample_negatives)),
            (downstream, "average_precision",
             tracer.wrap("metrics.ap", downstream.average_precision)),
            (pretrain, "distort", tracer.wrap("pretrain.distort", pretrain.distort)),
            (pretrain, "ssl_loss_terms", tracer.wrap("pretrain.loss", pretrain.ssl_loss_terms)),
        ]
        with contextlib.ExitStack() as stack:
            for owner, attr, wrapper in replacements:
                stack.enter_context(mock.patch.object(owner, attr, wrapper))
            yield self

    def _encode(self, original):
        def encode(*args, **kwargs):
            self.tracer.window += 1
            self.windows += 1
            self.layer = 0
            with self.tracer.span("encoder.encode"):
                out = original(*args, **kwargs)
            self.rows += len(out)
            self._read[out] = set()
            return out
        return encode

    def _sample(self, original):
        def build_layered_neighborhood(*args, **kwargs):
            with self.tracer.span("windows.sample"):
                hood = original(*args, **kwargs)
            for samples in hood.layers:
                self.anchors += len(samples)
                self.sampled_edges += sum(s.size for s in samples.values())
            return hood
        return build_layered_neighborhood

    def _layer(self, original):
        def layer_forward(embeddings, samples, *args, **kwargs):
            name = f"encoder.layer{self.layer}"
            self.layer += 1
            self.messages += sum(s.size for s in samples.values())
            with self.tracer.span(name):
                return original(embeddings, samples, *args, **kwargs)
        return layer_forward

    def _incident(self, original):
        def incident(index, node):
            self.incident_calls += 1
            return original(index, node)
        return incident

    def _miss(self, original):
        def common_neighbors_at(*args, **kwargs):
            self.count_misses += 1
            return original(*args, **kwargs)
        return common_neighbors_at

    def _counts(self, original):
        def counts_matrix(cache, positions):
            with self.tracer.span("features.counts"):
                out = original(cache, positions)
            self.count_rows += len(positions)
            with self.tracer.span(ORACLE_SPAN):
                self._check_counts(cache.edges, np.asarray(positions), out)
            return out
        return counts_matrix

    def _check_counts(self, edges, positions: np.ndarray, out: np.ndarray) -> None:
        if positions.size == 0:
            return
        take = min(ORACLE_ROWS_PER_CALL, positions.size)
        for row in self.oracle_rng.choice(positions.size, size=take, replace=False):
            expected = brute_counts(edges, int(positions[row]))
            self.oracle_rows += 1
            if tuple(out[row]) != expected:
                self.oracle_mismatches += 1

    def _gather(self, original):
        def gather(embeddings, nodes):
            seen = self._read.get(embeddings)
            if seen is not None:
                before = len(seen)
                seen.update(np.unique(np.asarray(nodes)).tolist())
                self.rows_read += len(seen) - before
            return original(embeddings, nodes)
        return gather

    def _backward(self, original):
        def backward(tape, loss):
            self.steps += 1
            self.tape_entries += len(tape.entries)
            for entry in tape.entries:
                self.tape_bytes += entry.output.values.nbytes
                entry.backward = self._timed_closure(entry.op, entry.backward)
            with self.tracer.span("tensor.backward"):
                return original(tape, loss)
        return backward

    def _timed_closure(self, op: str, closure):
        key = op if op in self.op_seconds else "other"

        def run(grad):
            start = time.perf_counter()
            out = closure(grad)
            self.op_seconds[key] += time.perf_counter() - start
            return out
        return run


def call_times(spans) -> tuple[list[float], list[float]]:
    """Per ``CALL_SPAN``: its wall time less the count oracle's, and the part of
    that the layer spans' self times cover."""
    own = self_times(spans)
    root = []
    for s in spans:  # a parent always precedes its children
        root.append(len(root) if s.parent < 0 else root[s.parent])
    walls = {i: s.end - s.start for i, s in enumerate(spans) if s.name == CALL_SPAN}
    for s, r in zip(spans, root):
        if s.name == ORACLE_SPAN and r in walls:
            walls[r] -= s.end - s.start
    return list(walls.values()), [wall - own[i] for i, wall in walls.items()]


def layer_metrics(probe: Probe, untraced_walls: list[float],
                  epoch_seconds: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced calls, as name -> (value, unit).

    Window metrics are per encoded window, step metrics per backward pass.
    A layer the workload never calls reads 0.
    """
    spans = probe.tracer.spans
    own = self_time_by_name(spans)
    total = total_time_by_name(spans)
    windows = max(probe.windows, 1)
    steps = max(probe.steps, 1)

    def per_window_ms(name):
        return own.get(name, 0.0) * 1000.0 / windows

    def per_step_ms(name):
        return own.get(name, 0.0) * 1000.0 / steps

    oracle_s = total.get(ORACLE_SPAN, 0.0)
    ap_calls = max(sum(1 for s in spans if s.name == "metrics.ap"), 1)
    out = {
        "windows.sample_ms": (per_window_ms("windows.sample"), "ms"),
        "windows.incident_calls": (probe.incident_calls / windows, "count"),
        "windows.anchors": (probe.anchors / windows, "count"),
        "windows.sampled_edges": (probe.sampled_edges / windows, "count"),
        "features.counts_ms": (per_window_ms("features.counts"), "ms"),
        "features.count_rows": (probe.count_rows / windows, "count"),
        "features.count_hit_ratio": (1.0 - probe.count_misses / max(probe.count_rows, 1), "ratio"),
        "features.oracle_rows": (float(probe.oracle_rows), "count"),
        "features.oracle_mismatches": (float(probe.oracle_mismatches), "count"),
        "encoder.encode_ms": ((total.get("encoder.encode", 0.0) - oracle_s) * 1000.0 / windows,
                              "ms"),
    }
    for i in range(3):
        out[f"encoder.layer{i}_ms"] = (per_window_ms(f"encoder.layer{i}"), "ms")
    out.update({
        "encoder.rows": (probe.rows / windows, "count"),
        "encoder.messages": (probe.messages / windows, "count"),
        "encoder.rows_read_ratio": (probe.rows_read / max(probe.rows, 1), "ratio"),
        "tensor.backward_ms": (per_step_ms("tensor.backward"), "ms"),
    })
    for op, seconds in probe.op_seconds.items():
        out[f"tensor.backward_ms.{op}"] = (seconds * 1000.0 / steps, "ms")
    out.update({
        "tensor.tape_entries": (probe.tape_entries / steps, "count"),
        "tensor.tape_bytes": (probe.tape_bytes / steps, "B"),
        "optim.step_ms": (per_step_ms("optim.step"), "ms"),
        "downstream.decode_ms": (per_window_ms("downstream.decode"), "ms"),
        "downstream.negatives_ms": (per_window_ms("downstream.negatives"), "ms"),
        "downstream.epoch_s": (statistics.median(epoch_seconds) if epoch_seconds else 0.0, "s"),
        "pretrain.distort_ms": (per_step_ms("pretrain.distort"), "ms"),
        "pretrain.loss_ms": (per_step_ms("pretrain.loss"), "ms"),
        "metrics.ap_ms": (own.get("metrics.ap", 0.0) * 1000.0 / ap_calls, "ms"),
    })
    # Calls do equal work, so the share of edges/s lost to tracing is one
    # minus the ratio of median wall times; the oracle's own time is the
    # benchmark's, not tracing overhead. The layer spans' self times are the
    # blocking path the probes explain: their share of the untraced wall time
    # is the coverage, and the call span's self time is what no probe covers.
    untraced = statistics.median(untraced_walls)
    traced, covered = call_times(spans)
    out.update({
        "trace.overhead_ratio": (1.0 - untraced / statistics.median(traced), "ratio"),
        "trace.blocking_coverage": (statistics.median(covered) / untraced, "ratio"),
        "trace.unattributed_share": (1.0 - sum(covered) / sum(traced), "ratio"),
    })
    return out
