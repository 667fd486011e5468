"""Dense tensors with reverse-mode differentiation on an explicit tape.

The primitive set is deliberately small: exactly what the window encoder,
the two task decoders, and the self-supervised loss need. Forward values
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
_DEBUG_CHECK_FINITE: bool = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf checks after every forward primitive (slow)."""
    global _DEBUG_CHECK_FINITE
    _DEBUG_CHECK_FINITE = enabled


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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.values.dtype}{flag})"


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


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
    if _DEBUG_CHECK_FINITE and not np.all(np.isfinite(out_values)):
        raise FloatingPointError(f"{op} produced non-finite values")
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
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.values)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for entry in reversed(tape.entries):
        out_grad = grads.pop(id(entry.output), None)
        if out_grad is None:
            continue
        holders.pop(id(entry.output), None)
        input_grads = entry.backward(out_grad)
        for tensor, g in zip(entry.inputs, input_grads):
            if g is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                holders[key] = tensor
    leaf_grads: dict[Tensor, Array] = {}
    for key, g in grads.items():
        tensor = holders[key]
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
        return g @ b.values.T, a.values.T @ g

    return _finish("matmul", (a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = a.values + b.values

    def bwd(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _finish("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out = a.values - b.values

    def bwd(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _finish("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out = a.values * b.values

    def bwd(g: Array):
        return _unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)

    return _finish("mul", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.values * c

    def bwd(g: Array):
        return (g * c,)

    return _finish("scale", (a,), out, bwd)


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


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)

    def bwd(g: Array):
        return (g * out * (1.0 - out),)

    return _finish("sigmoid", (a,), out, bwd)


def sin(a: Tensor) -> Tensor:
    out = np.sin(a.values)

    def bwd(g: Array):
        return (g * np.cos(a.values),)

    return _finish("sin", (a,), out, bwd)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)

    def bwd(g: Array):
        return (g * 0.5 / out,)

    return _finish("sqrt", (a,), out, bwd)


def softmax_rows(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-d tensor, got shape {a.shape}")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g: Array):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _finish("softmax_rows", (a,), out, bwd)


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


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.mean(axis=axis, keepdims=keepdims)
    count = a.values.size if axis is None else a.shape[axis]

    def bwd(g: Array):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _finish("mean", (a,), np.asarray(out), bwd)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def bwd(g: Array):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _finish("sum", (a,), np.asarray(out), bwd)


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
        full = np.zeros_like(a.values)
        np.add.at(full, rows, g)
        return (full,)

    return _finish("slice_rows", (a,), out, bwd)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got shape {a.shape}")
    out = a.values.T.copy()

    def bwd(g: Array):
        return (g.T.copy(),)

    return _finish("transpose", (a,), out, bwd)


def segment_softmax(a: Tensor, segment_ids) -> Tensor:
    """Softmax along axis 0 within contiguous groups sharing a segment id."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2 or seg.shape != (a.shape[0],):
        raise ShapeError(
            f"segment_softmax: values {a.shape} vs segment ids {seg.shape}"
        )
    if seg.size == 0:
        return _finish("segment_softmax", (a,), a.values.copy(), lambda g: (g,))
    num = int(seg.max()) + 1
    seg_max = np.full((num,) + a.shape[1:], -np.inf, dtype=a.values.dtype)
    np.maximum.at(seg_max, seg, a.values)
    e = np.exp(a.values - seg_max[seg])
    denom = np.zeros((num,) + a.shape[1:], dtype=a.values.dtype)
    np.add.at(denom, seg, e)
    out = e / denom[seg]

    def bwd(g: Array):
        dot = np.zeros((num,) + a.shape[1:], dtype=g.dtype)
        np.add.at(dot, seg, out * g)
        return (out * (g - dot[seg]),)

    return _finish("segment_softmax", (a,), out, bwd)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows sharing a segment id; empty segments yield zero rows."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2 or seg.shape != (a.shape[0],):
        raise ShapeError(f"segment_sum: values {a.shape} vs segment ids {seg.shape}")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError("segment_sum: segment id outside [0, num_segments)")
    out = np.zeros((num_segments, a.shape[1]), dtype=a.values.dtype)
    np.add.at(out, seg, a.values)

    def bwd(g: Array):
        return (g[seg],)

    return _finish("segment_sum", (a,), out, bwd)


def bce_with_logits(logits: Tensor, labels: Tensor) -> Tensor:
    """Mean binary cross-entropy in the numerically stable logit form."""
    labels = _as_tensor(labels, logits.dtype)
    if logits.shape != labels.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.shape} vs labels {labels.shape}")
    if logits.values.size == 0:
        raise ContractError("bce_with_logits on an empty batch")
    z, y = logits.values, labels.values
    out = np.asarray((np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean())
    n = z.size

    def bwd(g: Array):
        s = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        return (g * (s - y) / n, None)

    return _finish("bce_with_logits", (logits, labels), out, bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out
