"""Adam optimizer with optional L2 weight decay."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter map.

    When ``weight_decay`` is positive, the L2 term is added to the raw
    gradient before the moment updates (coupled decay, not the decoupled
    AdamW variant).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {name: np.zeros_like(p.values) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.values) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if g.shape != p.values.shape:
                raise ContractError(
                    f"adam: gradient shape {g.shape} != parameter shape {p.values.shape} for {name!r}"
                )
            if self.weight_decay > 0.0:
                g = g + self.weight_decay * p.values
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.values -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.values.dtype)
