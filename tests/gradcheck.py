"""Central finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from dygwin.tensor import Tape, Tensor, backward


LARGE_GRADIENT = 1e-6  # a coordinate counts as large when either gradient exceeds this


class HarnessError(RuntimeError):
    """The harness detected a broken assumption (e.g. non-determinism)."""


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_parameter: str
    per_parameter: dict[str, float]
    large_coords: int         # checked coordinates with max(|a|, |n|) > LARGE_GRADIENT
    large_rel_error: float    # their largest relative error, no atol zeroing

    def passes(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def numerical_gradient(forward_fn: Callable[[], Tensor], param: Tensor,
                       index: tuple[int, ...], h: float = 1e-5) -> float:
    """Central difference of the scalar forward value w.r.t. one coordinate."""
    original = param.values[index]
    param.values[index] = original + h
    f_plus = forward_fn().item()
    param.values[index] = original - h
    f_minus = forward_fn().item()
    param.values[index] = original
    return (f_plus - f_minus) / (2.0 * h)


def finite_difference_check(forward_fn: Callable[[], Tensor],
                            params: dict[str, Tensor],
                            h: float = 1e-5,
                            max_coords_per_param: int | None = None,
                            rng: np.random.Generator | None = None,
                            atol: float = 1e-8) -> GradCheckReport:
    """Compare tape gradients of a deterministic scalar forward function
    against central differences.

    Every coordinate is checked unless ``max_coords_per_param`` caps the
    per-tensor count with a seeded subsample. The forward function must be
    deterministic (dropout off or seed-pinned); two identical passes that
    disagree raise a harness error.
    """
    probe_a = forward_fn()
    probe_b = forward_fn()
    if probe_a.values.tobytes() != probe_b.values.tobytes():
        raise HarnessError("forward function is not deterministic; pin its seeds")

    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = forward_fn()
    backward(tape, loss)

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    worst_name = ""
    per_param: dict[str, float] = {}
    large_coords, large_worst = 0, 0.0
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        coords = list(np.ndindex(*p.values.shape)) if p.values.shape else [()]
        if max_coords_per_param is not None and len(coords) > max_coords_per_param:
            chosen = rng.choice(len(coords), size=max_coords_per_param, replace=False)
            coords = [coords[i] for i in chosen]
        p_worst = 0.0
        for index in coords:
            a = float(analytic[index])
            n = numerical_gradient(forward_fn, p, index, h=h)
            diff, scale = abs(a - n), max(abs(a), abs(n))
            err = 0.0 if diff <= atol else diff / scale
            p_worst = max(p_worst, err)
            if scale > LARGE_GRADIENT:
                large_coords += 1
                large_worst = max(large_worst, diff / scale)
        per_param[name] = p_worst
        if p_worst > worst:
            worst = p_worst
            worst_name = name
    return GradCheckReport(worst, worst_name, per_param, large_coords, large_worst)
