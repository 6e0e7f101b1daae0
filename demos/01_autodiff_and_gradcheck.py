#!/usr/bin/env python3
"""Tour of the tensor engine: build a graph, backprop, verify against FD.

The whole library runs on a small reverse-mode autodiff core over float64
numpy arrays. This script differentiates a toy expression by hand-checkable
math, then runs the named verification suite the `mmgi gradcheck` command
uses.
"""

import numpy as np

from mmgi import autodiff as ad
from mmgi.autodiff import Tensor, backward
from mmgi.gradcheck import grad_check
from mmgi.verify import verification_suite

# d(sum(sqrt(x * x + 1) * y)) / dx = x / sqrt(x^2 + 1) * y
x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
y = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
loss = ad.tensor_sum(ad.sqrt(x * x + 1.0) * y)
backward(loss)
print("analytic dx:", x.grad)
print("expected dx:", x.data / np.sqrt(x.data ** 2 + 1.0) * y.data)

# the FD harness returns the worst relative disagreement over probed coords
params = {"x": x, "y": y}
err = grad_check(lambda: ad.tensor_sum(ad.sqrt(params["x"] * params["x"] + 1.0)
                                       * params["y"]),
                 params, probes_per_tensor=3)
print(f"\nfinite-difference check on the toy expression: {err:.2e}")

print("\nfull verification suite (same as `mmgi gradcheck`):")
for name, value in verification_suite(seed=0).items():
    print(f"  {name:<24s} {value:.3e}")
