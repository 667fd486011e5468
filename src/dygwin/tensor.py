"""Dense tensors with reverse-mode differentiation on an explicit tape.

The primitive set is deliberately small: exactly what the window encoder and
the two task decoders need (the self-supervised loss is one entry of its own,
``pretrain.ssl_loss_terms``). Forward values
are plain numpy arrays; when a :class:`Tape` is active and an input
requires gradients, the primitive records a backward closure on the tape.
Replaying the tape in reverse propagates gradients to every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A dense row-major array plus an optional gradient buffer."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values: Array = arr
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.values.dtype}{flag})"


def constant(values, dtype=None) -> Tensor:
    return Tensor(values, requires_grad=False, dtype=dtype)


def parameter(values, dtype=None) -> Tensor:
    return Tensor(values, requires_grad=True, dtype=dtype)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-limit, limit, size=(fan_in, fan_out)), dtype=dtype)


def zeros_parameter(shape, dtype=np.float32) -> Tensor:
    return parameter(np.zeros(shape), dtype=dtype)


@dataclass
class TapeEntry:
    """One recorded primitive application.

    ``backward`` maps the output gradient to per-input gradients (``None``
    for inputs that do not receive one). Saved activations live inside the
    closure.
    """

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[Array], Sequence[Array | None]]


class Tape:
    """Ordered record of primitive applications within one forward pass.

    Entries are appended in execution order, so the list is topologically
    sorted: every entry's inputs are either leaves or outputs of earlier
    entries. Not shareable across threads.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self._previous: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._previous = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._previous
        self._previous = None


def _finish(op: str, inputs: tuple[Tensor, ...], out_values: Array, backward) -> Tensor:
    out = Tensor(out_values)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.entries.append(TapeEntry(op, inputs, out, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Array]:
    """Propagate d(loss)/d(leaf) to every requires_grad leaf on the tape.

    Gradients accumulate additively across fan-out and into ``.grad``
    across repeated calls; returns the map of leaf tensors to the
    gradients contributed by this call.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.values)}
    owned: set[Tensor] = set()  # sums made here, which no closure has seen yet
    for entry in reversed(tape.entries):
        out_grad = grads.pop(entry.output, None)
        if out_grad is None:
            continue
        input_grads = entry.backward(out_grad)
        for tensor, g in zip(entry.inputs, input_grads):
            if g is None or not tensor.requires_grad:
                continue
            acc = grads.get(tensor)
            if acc is None:
                grads[tensor] = g  # may be shared with a closure or another input
            elif tensor in owned and acc.shape == g.shape \
                    and acc.dtype == np.result_type(acc.dtype, g.dtype):
                np.add(acc, g, out=acc)
            else:
                grads[tensor] = acc + g
                owned.add(tensor)
    leaf_grads: dict[Tensor, Array] = {}
    for tensor, g in grads.items():
        if not tensor.requires_grad:
            continue
        tensor.grad = g if tensor.grad is None else tensor.grad + g
        leaf_grads[tensor] = g
    return leaf_grads


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _row_sum(values: Array, ids: Array, num_rows: int) -> Array:
    """Sum the rows of ``values`` sharing an id, through one ``np.bincount`` over
    ``id * width + column`` keys: in float64 bit for bit what ``ufunc.at`` adds
    row by row, in float32 rounded once instead of once per row."""
    width = int(np.prod(values.shape[1:]))
    keys = (ids[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(keys, weights=values.ravel(), minlength=num_rows * width)
    return sums.reshape((num_rows,) + values.shape[1:]).astype(values.dtype, copy=False)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.values @ b.values

    def bwd(g: Array):
        return (g @ b.values.T if a.requires_grad else None,
                a.values.T @ g if b.requires_grad else None)

    return _finish("matmul", (a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = a.values + b.values

    def bwd(g: Array):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _finish("add", (a, b), out, bwd)


def concat_last_dim(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_last_dim needs at least one input")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last_dim: leading dims differ: {[p.shape for p in parts]}"
            )
    out = np.concatenate([p.values for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]

    def bwd(g: Array):
        grads = []
        offset = 0
        for w in widths:
            grads.append(g[..., offset:offset + w])
            offset += w
        return grads

    return _finish("concat_last_dim", parts, out, bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.values, 0)

    def bwd(g: Array):
        return (g * (a.values > 0),)

    return _finish("relu", (a,), out, bwd)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-p) so eval is the identity."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p).astype(a.values.dtype) / (1.0 - p)
    out = a.values * keep

    def bwd(g: Array):
        return (g * keep,)

    return _finish("dropout", (a,), out, bwd)


def slice_rows(a: Tensor, rows) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64)
    if a.values.ndim < 1:
        raise ShapeError("slice_rows expects at least a 1-d tensor")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]):
        raise ShapeError(
            f"slice_rows: index range [{rows.min()}, {rows.max()}] outside {a.shape[0]} rows"
        )
    out = a.values[rows]

    def bwd(g: Array):
        return (_row_sum(g, rows, a.shape[0]).astype(a.values.dtype, copy=False),)

    return _finish("slice_rows", (a,), out, bwd)


def segment_attention(q_rows: Tensor | None, kv: Tensor, segments, num_segments: int,
                      heads: int, dropout: tuple | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, pooled per segment.

    Message i (row i of ``kv``) goes to segment ``segments[i]``, whose query is
    that row of ``q_rows``; a segment's messages must be contiguous, and a
    segment without any gets a zero row. ``kv``'s first ``q_rows.shape[1]``
    columns are the keys and the rest the values. Head h reads and writes the
    h-th of ``heads`` equal column blocks of each: scores ``sum(q * k) /
    sqrt(block width)`` are softmaxed per segment, dropped out where ``u < p``
    given ``dropout = (p, u)`` with ``u`` of shape (n, heads), and weight the
    block's value rows. ``q_rows = None`` means every score is 0 and ``kv``
    holds values only: each segment takes the mean of its kept rows, with the
    same weight bits. Forward keeps the (n, heads) softmax weights for backward,
    which gathers the queries again.
    """
    seg = np.asarray(segments, dtype=np.int64)
    n, zero = seg.size, q_rows is None
    # The zero form has no queries or keys: its rows are a placeholder for the checks.
    width, rows = (0, num_segments) if zero else (q_rows.shape[1], q_rows.shape[0])
    value_width = kv.shape[1] - width
    head = np.diff(seg, prepend=seg[:1] - 1) != 0
    starts, run = np.flatnonzero(head), np.cumsum(head) - 1
    if kv.shape[0] != n or heads < 1 or width % heads or value_width < 1 or value_width % heads \
            or n and not (0 <= seg.min() and seg.max() < min(num_segments, rows)):
        raise ShapeError(f"segment_attention: queries {getattr(q_rows, 'shape', None)}, keys and "
                         f"values {kv.shape}, {heads} heads, {n} segment ids, "
                         f"{num_segments} segments")
    if np.unique(seg[starts]).size < starts.size:
        raise ShapeError("segment_attention: a segment id's rows are not contiguous")
    head_dim, value_dim = width // heads, value_width // heads
    k3 = kv.values[:, :width].reshape(n, heads, head_dim)
    v3 = kv.values[:, width:].reshape(n, heads, value_dim)
    scale = 1.0 if zero else float(1.0 / np.sqrt(head_dim))  # a Python float keeps the dtype
    scores = np.zeros((n, heads), kv.dtype) if zero else \
        (q_rows.values[seg].reshape(n, heads, head_dim) * k3).sum(axis=2) * scale
    e = np.exp(scores - np.maximum.reduceat(scores, starts)[run])
    attn, keep = e / _row_sum(e, run, starts.size)[run], 1.0
    if dropout is not None:
        p, u = dropout
        keep = (u >= p).astype(attn.dtype) / (1.0 - p)
    out = _row_sum(((attn * keep)[:, :, None] * v3).reshape(n, value_width), seg, num_segments)

    def bwd(g: Array):
        g_rows = g[seg].reshape(n, heads, value_dim)
        g_v = (g_rows * (attn * keep)[:, :, None]).reshape(n, value_width)
        if zero:
            return (g_v,)
        g_attn = (g_rows * v3).sum(axis=2) * keep
        g_scores = attn * (g_attn - _row_sum(attn * g_attn, run, starts.size)[run]) * scale
        g_q = _row_sum((g_scores[:, :, None] * k3).reshape(n, width), seg, q_rows.shape[0])
        q = q_rows.values[seg].reshape(n, heads, head_dim)
        return (g_q.astype(q_rows.dtype, copy=False),
                np.hstack([(g_scores[:, :, None] * q).reshape(n, width), g_v]))

    return _finish("segment_attention", (kv,) if zero else (q_rows, kv), out, bwd)


def _time2vec(dt: Array, omega: Tensor, phase: Tensor) -> tuple[Array, Array]:
    """Time2Vec of the gaps ``dt`` (n, 1), and the angles its sine read:
    ``angles = dt * omega + phase``, formed in float64 so that gaps of 1e7 keep
    their phase; column 0 stays linear and every other column takes its sine.
    Float32 parameters take the float32 sine (numpy's vectorised one) of each
    angle wrapped to [-pi, pi] in float64, and get the output in float32."""
    angles = dt * omega.values.astype(np.float64)
    angles += phase.values.astype(np.float64)
    wrapped = angles
    if omega.dtype != np.float64:  # in place: fresh float64 pages cost more than the math
        wrapped = angles * (0.5 / np.pi)
        np.rint(wrapped, out=wrapped)
        wrapped *= -2.0 * np.pi
        wrapped += angles
        wrapped = wrapped.astype(omega.dtype)
    out = np.sin(wrapped)
    out[:, 0] = angles[:, 0]
    return out, wrapped


def _time2vec_grads(g: Array, cos: Array, dt: Array, omega: Tensor, phase: Tensor):
    """``omega``'s and ``phase``'s gradients given the wrapped angles' cosines at ``dt``."""
    g_angles = (g * cos).astype(np.float64, copy=False)
    g_angles[:, 0] = g[:, 0]
    return ((dt.T @ g_angles).astype(omega.dtype, copy=False),
            _unbroadcast(g_angles, phase.shape).astype(phase.dtype, copy=False))


def time_encoding(dt: Array, omega: Tensor, phase: Tensor) -> Tensor:
    """``_time2vec`` as a tape op; both gradients come in the parameters' dtype."""
    out, wrapped = _time2vec(dt, omega, phase)
    return _finish("time_encoding", (omega, phase), out,
                   lambda g: _time2vec_grads(g, np.cos(wrapped), dt, omega, phase))


class EdgeEncodingTable:
    """Rows ``time_encoding(dt, omega, phase) + log_counts @ w``, then the constant
    columns ``extra``, computed once on no tape. Built under a tape that trains a
    parameter, it keeps the cosines that the backward of ``messages`` reads."""

    def __init__(self, dt: Array, log_counts: Array, omega: Tensor, phase: Tensor, w: Tensor,
                 extra: Array | None = None):
        self.dt, self.log_counts, self.params = dt, log_counts, (omega, phase, w)
        counts = log_counts @ w.values
        self.values = counts if extra is None else np.hstack([counts, extra])
        trained = _ACTIVE_TAPE is not None and any(p.requires_grad for p in self.params)
        self.cos = np.empty_like(counts) if trained else None  # as _finish records
        for lo in range(0, len(dt), 1024):  # blocks of rows bound the float64 angles
            encoded, wrapped = _time2vec(dt[lo:lo + 1024], omega, phase)
            self.values[lo:lo + 1024, :counts.shape[1]] += encoded
            if self.cos is not None:
                self.cos[lo:lo + 1024] = np.cos(wrapped)

    def messages(self, h: Tensor | None, node_rows: Array | None, rows: Array,
                 wk: Tensor | None, wv: Tensor) -> Tensor:
        """Keys and values ``[m @ wk | m @ wv]`` of the messages ``m`` as one
        ``messages`` entry, values alone when ``h`` is None. Message i is row
        ``node_rows[i]`` of ``h`` (zeros when ``h`` is None, since ``wv``'s last
        rows alone round differently), then row ``rows[i]`` of the table. The
        (m, message width) matrix is not kept: backward builds it again for the
        weight gradients, scatters the node block of ``g_v @ wv.T + g_k @ wk.T``
        into ``h`` and reads its time block for the table's parameters."""
        weights = (wv,) if h is None else (wk, wv)
        node_dim, width = wv.shape[0] - self.values.shape[1], wv.shape[1]
        blocks = [slice(i * width, (i + 1) * width) for i in range(len(weights))]

        def build() -> Array:
            dtype = self.values.dtype if h is None else np.result_type(h.values, self.values)
            m = np.empty((rows.size, wv.shape[0]), dtype)
            m[:, :node_dim] = 0 if h is None else h.values[node_rows]
            m[:, node_dim:] = self.values[rows]
            return m

        m = build()
        out = np.empty((rows.size, width * len(weights)), np.result_type(m, wv.values))
        for w, block in zip(weights, blocks):
            np.matmul(m, w.values, out=out[:, block])

        def bwd(g: Array):
            m, g_m = build(), g[:, blocks[-1]] @ wv.values.T
            grads = [m.T @ g[:, block] if w.requires_grad else None
                     for w, block in zip(weights, blocks)]
            if h is not None:
                g_m += g[:, blocks[0]] @ wk.values.T
                h_grad = _row_sum(g_m[:, :node_dim], node_rows, h.shape[0])
                grads.append(h_grad.astype(h.dtype, copy=False))
            if self.cos is None:
                return (None, None, None, *grads)
            g_t = g_m[:, node_dim:node_dim + self.params[2].shape[1]]  # none for constant columns
            return (*_time2vec_grads(g_t, self.cos[rows], self.dt[rows], *self.params[:2]),
                    self.log_counts[rows].T @ g_t if self.params[2].requires_grad else None, *grads)

        return _finish("messages", (*self.params, *weights) + (() if h is None else (h,)), out, bwd)


def bce_with_logits(logits: Tensor, labels: Tensor) -> Tensor:
    """Mean binary cross-entropy in the numerically stable logit form."""
    if logits.shape != labels.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.shape} vs labels {labels.shape}")
    if logits.values.size == 0:
        raise ContractError("bce_with_logits on an empty batch")
    z, y = logits.values, labels.values
    out = np.asarray((np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean())
    n = z.size

    def bwd(g: Array):
        e = np.exp(-np.abs(z))  # never overflows; each branch is the sigmoid of its sign
        s = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return (g * (s - y) / n, None)

    return _finish("bce_with_logits", (logits, labels), out, bwd)


@dataclass
class MLP:
    """ReLU layers, one ``(w, b)`` each, then a linear last layer; dropout
    follows the first hidden layer while training. At least two layers.
    ``named`` calls them ``w1, b1, w2, b2, ...``."""

    layers: list[tuple[Tensor, Tensor]]
    dropout: float

    def named(self, prefix: str) -> dict[str, Tensor]:
        named = {}
        for i, (w, b) in enumerate(self.layers, start=1):
            named[f"{prefix}/w{i}"] = w
            named[f"{prefix}/b{i}"] = b
        return named

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        (w, b), *rest = self.layers
        hidden = dropout(relu(add(matmul(x, w), b)), self.dropout, rng, training)
        for w, b in rest[:-1]:
            hidden = relu(add(matmul(hidden, w), b))
        w, b = rest[-1]
        return add(matmul(hidden, w), b)


def init_mlp_layers(rng: np.random.Generator, widths: Sequence[int],
                    dtype=np.float32) -> list[tuple[Tensor, Tensor]]:
    """Xavier weights and zero biases per consecutive width pair, drawn in layer order."""
    return [(xavier_uniform(rng, fan_in, fan_out, dtype=dtype),
             zeros_parameter((1, fan_out), dtype=dtype))
            for fan_in, fan_out in zip(widths, widths[1:])]
