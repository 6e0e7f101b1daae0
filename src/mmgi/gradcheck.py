"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor, backward, zero_grads
from .errors import GradCheckError

__all__ = ["grad_check"]


# the widest step, as a multiple of `eps`, that a small derivative gets; at
# 2e-3 some end-to-end checks crossed a kink of the hinge losses
MAX_STEP = 100.0


def grad_check(fn: Callable[[], Tensor], params: dict[str, Tensor],
               probes_per_tensor: int = 4, eps: float = 1e-5,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of a scalar `fn()` against central differences.

    `fn` must rebuild its graph from the current ``params[...].data`` on every
    call. Probes `probes_per_tensor` coordinates of each parameter (all of
    them when the tensor is smaller) and returns the maximum relative error

        |analytic - fd| / max(|analytic|, |fd|, 1e-8)

    over all probed coordinates.

    The step is chosen per coordinate. A central difference at `eps`
    estimates the derivative g; its roundoff, the loss's rounding noise over
    the step, swamps a small g (a pitch LSTM weight with g near 1e-8 read
    1e-3 relative error at eps = 1e-5). So for |g| < 1 the difference is
    taken again at eps * |g| ** (-1/3), at most `MAX_STEP` * eps: the step
    that balances roundoff against truncation when the third derivative
    scales with the first.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    zero_grads(params.values())
    loss = fn()
    if not np.isfinite(loss.data):
        raise GradCheckError("non-finite loss at the probe point")
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        count = flat.size
        if count <= probes_per_tensor:
            coords = np.arange(count)
        else:
            coords = rng.choice(count, size=probes_per_tensor, replace=False)
        for c in coords:
            fd = _central(fn, flat, c, eps, name)
            step = eps * min(max(abs(fd) ** (-1.0 / 3.0), 1.0), MAX_STEP) if fd else \
                MAX_STEP * eps
            if step != eps:
                fd = _central(fn, flat, c, step, name)
            an = float(analytic[name].reshape(-1)[c])
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst


def _central(fn: Callable[[], Tensor], flat: np.ndarray, c: int, step: float,
             name: str) -> float:
    """The central difference of `fn` in coordinate `c` of `flat`."""
    orig = flat[c]
    flat[c] = orig + step
    up = fn().data
    flat[c] = orig - step
    down = fn().data
    flat[c] = orig
    if not (np.isfinite(up) and np.isfinite(down)):
        raise GradCheckError(f"non-finite loss while probing {name}[{c}]")
    return float((up - down) / (2.0 * step))
