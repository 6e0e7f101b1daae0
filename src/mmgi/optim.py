"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["Adam"]

BETA1 = 0.9     # first-moment decay
BETA2 = 0.999   # second-moment decay
EPS = 1e-8


class Adam:
    """Adam with bias correction; moments keyed by parameter name.

    A parameter whose ``.grad`` is ``None`` is treated as having a zero
    gradient for the step. From a fresh state that leaves it untouched. The
    moments are updated in place.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            # a rebind, not an in-place write: gradient-free parses share p.data
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
